// Reproduces Appendix A.5: can Ting identify the bottleneck in a PT
// circuit? Two parts:
//   1. Ting works for ordinary relay pairs: pinned 1-/2-hop echo circuits
//      estimate inter-relay latency; we compare against the topology's
//      ground truth (the simulation knows the real one-way delays).
//   2. Ting cannot be applied to pluggable transports: every PT server is
//      first-hop-only, so the required circuit shapes are impossible —
//      the tool reports the structural limitation for all 12 PTs.
#include "pt/inventory.h"
#include "tor/ting.h"

#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("Appendix A.5", "Ting on relay pairs vs pluggable transports",
         args);

  ScenarioConfig cfg;
  cfg.seed = args.seed;
  cfg.tranco_sites = 1;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);

  // Echo responder next to the client (the Ting operator's box).
  net::HostId echo_host = scenario.add_infra_host(
      "ting-echo", scenario.config().client_region, 1000, 0.0);
  tor::start_echo_server(scenario.network(), echo_host);
  scenario.add_exit_alias("ting.echo", echo_host);

  auto client = scenario.make_tor_client(scenario.client_host());

  // Part 1: measure a handful of relay pairs.
  std::size_t pairs = scaled(6, args.scale, 3);
  tor::PathSelector sampler(scenario.consensus(),
                            scenario.fork_rng("ting-pairs"));
  stats::Table t({"x", "y", "estimated_ms", "true_owd_ms", "abs_err_ms"});
  std::vector<double> errors;

  for (std::size_t i = 0; i < pairs; ++i) {
    tor::Path p = sampler.select({});
    tor::RelayIndex x = p.entry, y = p.middle;
    auto result = scenario.loop().await<tor::TingResult>([&](auto done) {
      tor::ting_measure(client, "ting.echo:80", x, y, {}, done);
    });

    if (!result.ok) {
      t.add_row({std::to_string(x), std::to_string(y), "-", "-",
                 "failed: " + result.error});
      continue;
    }
    double true_owd = sim::to_seconds(scenario.network().topology().one_way(
        scenario.consensus().at(x).region, scenario.consensus().at(y).region));
    double err = std::abs(result.link_latency_s - true_owd);
    errors.push_back(err * 1000);
    t.add_row({std::to_string(x), std::to_string(y),
               util::fmt_double(result.link_latency_s * 1000, 1),
               util::fmt_double(true_owd * 1000, 1),
               util::fmt_double(err * 1000, 1)});
    sampler.reset_guard();
  }

  std::printf("-- part 1: Ting on ordinary relay pairs --\n");
  emit(t, args, "ting_relay_pairs");
  if (!errors.empty()) {
    std::printf(
        "median |error| %.0f ms (bias = per-hop processing, which Ting's\n"
        " real deployment calibrates out)\n\n",
        stats::median(errors));
  }

  // Part 2: the PT limitation.
  std::printf("-- part 2: why Ting cannot measure PT circuits --\n");
  stats::Table lim({"pt", "ting_applicable", "reason"});
  for (const pt::PtInventoryEntry& e : pt::pt_inventory()) {
    if (!e.performance_evaluated) continue;
    tor::TingTargetView view;
    view.is_pluggable_transport = true;
    view.server_can_be_middle_hop = false;  // structurally true for PTs
    view.name = e.name;
    auto why = tor::ting_pt_limitation(view);
    lim.add_row({e.name, why ? "no" : "yes", why ? *why : ""});
  }
  emit(lim, args, "ting_pt_limitation", args.verbose);
  std::printf(
      "all 12 evaluated PTs: not measurable — matching the paper's\n"
      "conclusion that PT-based circuits do not satisfy Ting's conditions\n");
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  namespace b = ptperf::bench;
  return b::run(b::parse_args(argc, argv, b::flag::kBasic));
}
