// Reproduces Table 1: the measurement-type overview — what each campaign
// targets and how many measurements it contributes, at the paper's scale
// and at this reproduction's default/--scale settings.
#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("Table 1", "measurement campaign overview", args);

  struct Row {
    const char* type;
    const char* target;
    std::size_t paper_count;
    std::size_t repro_base;  // measurements at --scale 1
  };
  // Repro counts: sites x reps x stacks per the bench defaults.
  const Row rows[] = {
      {"Website Download (curl)", "Tranco top-1k & CBL-1k", 149'500,
       60u * 3 * 13},
      {"Website Download (selenium)", "Tranco top-1k & CBL-1k", 174'000,
       30u * 2 * 12},
      {"File Downloads (curl)", "5/10/20/50/100 MB", 2'700, 5u * 3 * 13},
      {"File Downloads (selenium)", "5/10/20/50/100 MB", 2'700, 0},
      {"Medium Change (wired/wireless)", "Tranco top-500 & CBL-500", 60'000,
       16u * 2 * 5 * 2},
      {"Speed Index", "Tranco top-1k", 60'000, 15u * 2 * 12},
      {"Pluggable Transport Overhead", "Tranco top-1k", 40'000, 20u * 2 * 9},
      {"Location Variation", "Tranco top-1k & CBL-1k", 686'000,
       9u * 10 * 2 * 3},
  };

  stats::Table t({"measurement type", "target", "paper count",
                  "repro count (this scale)"});
  std::size_t paper_total = 0, repro_total = 0;
  for (const Row& r : rows) {
    std::size_t repro = scaled(r.repro_base, args.scale, r.repro_base ? 1 : 0);
    paper_total += r.paper_count;
    repro_total += repro;
    t.add_row({r.type, r.target, std::to_string(r.paper_count),
               std::to_string(repro)});
  }
  t.add_row({"TOTAL", "", std::to_string(paper_total),
             std::to_string(repro_total)});
  emit(t, args, "table1_overview");
  std::printf(
      "(selenium file downloads share the curl fetch path in this\n"
      " reproduction — the simulated browser adds nothing to a single-file\n"
      " transfer, so the row maps onto the curl campaign)\n");
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  namespace b = ptperf::bench;
  // The overview is arithmetic on the campaign sizes: nothing is seeded.
  return b::run(b::parse_args(argc, argv, b::flag::kScale));
}
