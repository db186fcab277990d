// Reproduces Figure 7 + §4.5: website access time for meek, snowflake and
// obfs4 from three client locations (Bangalore, London, Toronto) against
// three server locations (Singapore, Frankfurt, New York). Expected: the
// *trend* (snowflake and obfs4 beating meek) holds everywhere, and
// Bangalore clients are uniformly slower because relays cluster in
// Europe/North America.
//
// Runs on the sharded engine: one ensemble campaign per client x server
// cell (one world per PT), all nine on one config, so --jobs, --repeats
// and --checkpoint cover every cell.
#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("Figure 7 / §4.5", "location variation (3 clients x 3 servers)",
         args);

  const std::vector<std::pair<std::string, net::Region>> clients = {
      {"BLR", net::Region::kBangalore},
      {"LON", net::Region::kLondon},
      {"TORO", net::Region::kToronto}};
  const std::vector<std::pair<std::string, net::Region>> servers = {
      {"SGP", net::Region::kSingapore},
      {"FRA", net::Region::kFrankfurt},
      {"NYC", net::Region::kNewYork}};
  const std::vector<std::optional<PtId>> pts = {PtId::kMeek, PtId::kSnowflake,
                                                PtId::kObfs4};

  EnsembleCampaignConfig ecfg = ensemble_config(args, "fig7");
  ecfg.base.scenario.tranco_sites = scaled(10, args.scale, 4);
  ecfg.base.scenario.cbl_sites = 0;
  ecfg.base.campaign.website_reps = 2;
  SiteSelection sites{ecfg.base.scenario.tranco_sites, 0};

  stats::Table table({"client", "server", "pt", "n", "mean_s", "median_s"});
  // client -> pt -> pooled times (for the per-client summary).
  std::map<std::string, std::map<std::string, std::vector<double>>> pooled;
  std::vector<EnsembleSeries> series;
  std::vector<ShardTiming> timings;
  std::vector<trace::ShardTrace> traces;

  for (const auto& [cname, cregion] : clients) {
    for (const auto& [sname, sregion] : servers) {
      EnsembleCampaignConfig cell = ecfg;
      cell.base.scenario.client_region = cregion;
      cell.base.scenario.web_region = sregion;
      EnsembleCampaign engine(cell);
      auto runs = engine.run_website_curl(pts, sites);
      std::string where = cname + "-" + sname;

      for (const auto& pt : pts) {
        std::string name = pt_label(pt);
        auto times = elapsed_seconds(samples_of(runs.first(), name));
        table.add_row({cname, sname, name, std::to_string(times.size()),
                       util::fmt_double(stats::mean(times), 2),
                       times.empty()
                           ? "-"
                           : util::fmt_double(stats::median(times), 2)});
        auto& pool = pooled[cname][name];
        pool.insert(pool.end(), times.begin(), times.end());
      }

      // Cross-repetition distribution of each PT's mean access time.
      auto cell_series = ensemble_series<WebsiteSample>(
          runs, [&](const std::vector<WebsiteSample>& rep) {
            std::vector<std::pair<std::string, double>> out;
            for (const auto& pt : pts) {
              std::string name = pt_label(pt);
              auto times = elapsed_seconds(samples_of(rep, name));
              if (!times.empty())
                out.emplace_back(where + "/" + name, stats::mean(times));
            }
            return out;
          });
      series.insert(series.end(), cell_series.begin(), cell_series.end());
      timings.insert(timings.end(), engine.timings().begin(),
                     engine.timings().end());
      for (const trace::ShardTrace& t : engine.traces())
        traces.push_back({traces.size(), where + "/" + t.pt, t.data});
    }
  }

  std::printf("-- Figure 7: access time by location (s) --\n");
  emit(table, args, "fig7_location");

  std::printf("-- per-client summary (pooled over servers) --\n");
  stats::Table summary({"client", "pt", "mean_s"});
  for (auto& [cname, by_pt] : pooled) {
    for (auto& [pt, xs] : by_pt) {
      summary.add_row({cname, pt, util::fmt_double(stats::mean(xs), 2)});
    }
  }
  emit(summary, args, "fig7_summary");
  std::printf(
      "(paper: trend snowflake/obfs4 < meek at every location; Bangalore\n"
      " slower than London/Toronto because relays sit in EU/NA)\n");

  emit_ensemble(series, args, "fig7_ensemble", "mean_access_time",
                EnsembleUnit::kSeconds);
  emit_trace(traces, args);
  print_shard_timings(timings, args);
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  namespace b = ptperf::bench;
  return b::run(b::parse_args(argc, argv, b::flag::kEngine));
}
