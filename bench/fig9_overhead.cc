// Reproduces Figure 9 + §5.2: the performance overhead of the PT itself,
// isolated from Tor — each website is accessed over the *same* fixed
// circuit with and without the PT, with PT client and server co-located to
// minimise extra propagation. Expected: most PTs add no significant
// overhead; marionette is the lone outlier (automaton pacing).
//
// Runs on the sharded engine (one shard per PT, each with a private world
// holding both the vanilla and the PT stack), and additionally reports the
// per-layer byte decomposition exported by each transport's LayerStack:
// integer columns that sum exactly to the wire-byte total.
#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("Figure 9 / §5.2", "PT overhead vs vanilla Tor on a fixed circuit",
         args);

  EnsembleCampaignConfig ecfg = ensemble_config(args, "fig9");
  auto& cfg = ecfg.base;
  cfg.scenario.tranco_sites = scaled(20, args.scale, 6);
  cfg.scenario.cbl_sites = 0;
  // PT infrastructure co-located with the client (§5.2: "we deployed the
  // PT client and server in the same cloud location").
  cfg.factory.pt_server_region = cfg.scenario.client_region;

  // The paper evaluated obfs4, dnstt, webtunnel (inseparable, controlled
  // server) plus the separable PTs; meek/conjure/snowflake servers cannot
  // be self-hosted.
  const std::vector<PtId> pts = {
      PtId::kObfs4,      PtId::kDnstt,      PtId::kWebTunnel,
      PtId::kShadowsocks, PtId::kPsiphon,   PtId::kCloak,
      PtId::kCamoufler,  PtId::kStegotorus, PtId::kMarionette};

  EnsembleCampaign engine(ecfg);
  SiteSelection sites{cfg.scenario.tranco_sites, 0};
  auto runs = engine.run_overhead(pts, sites);
  const std::vector<OverheadSample>& samples = runs.first();

  stats::Table table({"pt", "n", "mean_diff_s", "median_diff_s", "q1", "q3"});
  stats::Table layers({"pt", "n", "payload_bytes", "handshake_bytes",
                       "framing_bytes", "carrier_bytes", "overhead_bytes",
                       "wire_bytes", "handshake_rtts"});
  std::vector<std::pair<std::string, std::vector<double>>> diff_groups;

  for (PtId id : pts) {
    std::string name(pt_id_name(id));
    std::vector<double> diffs;
    std::int64_t payload = 0, handshake = 0, framing = 0, carrier = 0,
                 wire = 0, rtts = 0;
    std::size_t measured = 0;
    for (const OverheadSample& s : samples) {
      if (s.pt != name) continue;
      if (s.ok()) diffs.push_back(s.diff());
      payload += s.payload_bytes;
      handshake += s.handshake_bytes;
      framing += s.framing_bytes;
      carrier += s.carrier_bytes;
      wire += s.wire_bytes;
      rtts += s.handshake_rtts;
      ++measured;
    }
    stats::BoxStats b = stats::box_stats(diffs);
    table.add_row({name, std::to_string(b.n), util::fmt_double(b.mean, 2),
                   util::fmt_double(b.median, 2), util::fmt_double(b.q1, 2),
                   util::fmt_double(b.q3, 2)});
    layers.add_row({name, std::to_string(measured), std::to_string(payload),
                    std::to_string(handshake), std::to_string(framing),
                    std::to_string(carrier),
                    std::to_string(handshake + framing + carrier),
                    std::to_string(wire), std::to_string(rtts)});
    diff_groups.emplace_back(std::move(name), std::move(diffs));
  }

  std::printf("\n-- Figure 9: PT time minus Tor time, same circuit (s) --\n");
  emit(table, args, "fig9_overhead");
  std::printf(
      "(paper: all differences small except marionette, whose automaton\n"
      " pushes website access beyond 30 s)\n");

  std::printf("\n-- Figure 9 companion: per-layer wire-byte decomposition --\n");
  emit(layers, args, "fig9_layer_overhead");
  std::printf(
      "(payload + handshake + framing + carrier == wire, exactly —\n"
      " the LayerStack accounting contract)\n");

  // Cross-repetition distribution of each PT's mean overhead. The
  // estimator is already a PT-minus-Tor difference inside one world, so
  // the paired tests compare against obfs4 — the PT the paper treats as
  // adding no measurable overhead — rather than a vanilla-tor series.
  emit_ensemble(ensemble_series<OverheadSample>(
                    runs,
                    [&pts](const std::vector<OverheadSample>& rep) {
                      std::vector<std::pair<std::string, double>> out;
                      for (PtId id : pts) {
                        std::string name(pt_id_name(id));
                        std::vector<double> diffs;
                        for (const OverheadSample& s : rep)
                          if (s.pt == name && s.ok())
                            diffs.push_back(s.diff());
                        if (!diffs.empty())
                          out.emplace_back(name, stats::mean(diffs));
                      }
                      return out;
                    }),
                args, "fig9_ensemble", "mean_overhead",
                EnsembleUnit::kSeconds, "obfs4");

  print_shard_timings(engine.timings(), args);
  emit_trace(engine, args);
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  namespace b = ptperf::bench;
  return b::run(b::parse_args(argc, argv, b::flag::kEngine));
}
