// Reproduces §4.6 with Figure 8a/8b: download reliability under the
// paper's injected faults. This is the Figure 5 download sweep
// (bench_fig5_file_download, which emits the plain Figure 8) rerun with
// FaultPlan::paper_section_4_6() installed in every shard's world and
// --retries redoing failed attempts over fresh circuits. Injected-fault
// counters merge in plan order, so counts are deterministic for a seed at
// any --jobs. Outputs carry a "_faults" suffix:
//   8a — fraction of complete / partial / failed attempts per PT.
//   8b — ECDF of the *fraction of the file* actually downloaded, for the
//        three unreliable transports (meek, dnstt, snowflake).
#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("Figure 8a/8b / §4.6", "download reliability under injected faults",
         args);
  std::printf("   fault profile: paper (§4.6), retries=%d\n\n", args.retries);

  EnsembleCampaignConfig ecfg = download_sweep_config(args, "fig8");
  ecfg.base.configure_scenario = [](Scenario& scenario) {
    scenario.install_fault_plan(fault::FaultPlan::paper_section_4_6());
  };
  EnsembleCampaign engine(ecfg);

  RetryPolicy retry;
  retry.max_retries = args.retries;
  emit_fig8(engine.run_reliability(sweep_pts(), download_sweep_sizes(args),
                                   retry),
            args, "_faults");

  std::printf("\n-- Injected faults (deterministic for this seed) --\n");
  stats::Table injected({"fault", "count"});
  for (int k = 0; k < static_cast<int>(fault::FaultKind::kCount_); ++k) {
    auto kind = static_cast<fault::FaultKind>(k);
    if (engine.injected_faults(kind) == 0) continue;
    injected.add_row({std::string(fault::fault_kind_name(kind)),
                      std::to_string(engine.injected_faults(kind))});
  }
  emit(injected, args, "fig8_injected_faults");
  emit_trace(engine, args);
  print_shard_timings(engine.timings(), args);
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  namespace b = ptperf::bench;
  return b::run(
      b::parse_args(argc, argv, b::flag::kEngine | b::flag::kRetries));
}
