// Reproduces Table 2: the comparative inventory of all 28 candidate
// pluggable transports — availability, functionality, integrability,
// whether this study evaluated them, and the blocking challenge.
#include "pt/inventory.h"

#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("Table 2", "28-PT comparison inventory", args);

  stats::Table t({"name", "code", "functional", "tor-integrable",
                  "evaluated", "challenge", "technology"});
  auto yn = [](bool b) { return std::string(b ? "yes" : "no"); };
  for (const pt::PtInventoryEntry& e : pt::pt_inventory()) {
    t.add_row({e.name, yn(e.code_available), yn(e.functional),
               yn(e.tor_integrable), yn(e.performance_evaluated), e.challenge,
               e.technology});
  }
  emit(t, args, "table2_inventory");

  pt::InventorySummary s = pt::summarize_inventory();
  std::printf(
      "analyzed %zu systems; %zu evaluated, %zu functional, %zu with code\n"
      "(paper: 28 analyzed, 12 evaluated, 13 non-functional among the rest)\n",
      s.total, s.evaluated, s.functional, s.code_available);
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  namespace b = ptperf::bench;
  // A fixed inventory: nothing to seed or scale.
  return b::run(b::parse_args(argc, argv, 0));
}
