// Reproduces §4.7: effect of the transmission medium — the same website
// campaign over a wired vs a WiFi client access link. Expected: slightly
// higher times on WiFi but NO change in the PT ordering (the paper saw
// meek ~16.4 s and dnstt/cloak/obfs4 at 5.1/3.9/3.7 s over wireless,
// preserving the wired trend).
//
// Runs on the sharded engine: one ensemble campaign per medium (one world
// per PT), both on one config, so --jobs, --repeats and --checkpoint
// cover both media.
#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("§4.7 (medium change)", "wired vs wireless client access", args);

  const std::vector<std::optional<PtId>> pts = {
      std::nullopt, PtId::kObfs4, PtId::kCloak, PtId::kDnstt, PtId::kMeek};

  EnsembleCampaignConfig ecfg = ensemble_config(args, "medium_change");
  ecfg.base.scenario.tranco_sites = scaled(8, args.scale, 4);
  ecfg.base.scenario.cbl_sites = scaled(8, args.scale, 4);
  ecfg.base.campaign.website_reps = 2;
  SiteSelection sites{ecfg.base.scenario.tranco_sites,
                      ecfg.base.scenario.cbl_sites};

  stats::Table table({"medium", "pt", "n", "mean_s", "median_s"});
  std::map<std::string, std::vector<std::pair<std::string, double>>> order;
  std::vector<EnsembleSeries> series;
  std::vector<ShardTiming> timings;
  std::vector<trace::ShardTrace> traces;

  for (bool wireless : {false, true}) {
    EnsembleCampaignConfig cfg = ecfg;
    cfg.base.scenario.wireless_client = wireless;
    EnsembleCampaign engine(cfg);
    auto runs = engine.run_website_curl(pts, sites);
    std::string medium = wireless ? "wifi" : "wired";

    for (const auto& pt : pts) {
      std::string name = pt_label(pt);
      auto times = elapsed_seconds(samples_of(runs.first(), name));
      table.add_row({medium, name, std::to_string(times.size()),
                     util::fmt_double(stats::mean(times), 2),
                     times.empty() ? "-"
                                   : util::fmt_double(stats::median(times), 2)});
      order[medium].emplace_back(name, stats::mean(times));
    }

    // Cross-repetition distribution of each PT's mean access time.
    auto medium_series = ensemble_series<WebsiteSample>(
        runs, [&](const std::vector<WebsiteSample>& rep) {
          std::vector<std::pair<std::string, double>> out;
          for (const auto& pt : pts) {
            std::string name = pt_label(pt);
            auto times = elapsed_seconds(samples_of(rep, name));
            if (!times.empty())
              out.emplace_back(medium + "/" + name, stats::mean(times));
          }
          return out;
        });
    series.insert(series.end(), medium_series.begin(), medium_series.end());
    timings.insert(timings.end(), engine.timings().begin(),
                   engine.timings().end());
    for (const trace::ShardTrace& t : engine.traces())
      traces.push_back({traces.size(), medium + "/" + t.pt, t.data});
  }

  std::printf("-- §4.7: access time by medium (s) --\n");
  emit(table, args, "medium_change");

  // Trend check: the ranking of PT means must be identical across media.
  auto rank = [](std::vector<std::pair<std::string, double>> v) {
    std::sort(v.begin(), v.end(),
              [](auto& a, auto& b) { return a.second < b.second; });
    std::string out;
    for (auto& [name, t] : v) out += name + " < ";
    return out.substr(0, out.size() - 3);
  };
  std::string wired_rank = rank(order["wired"]);
  std::string wifi_rank = rank(order["wifi"]);
  std::printf("wired order: %s\n", wired_rank.c_str());
  std::printf("wifi  order: %s\n", wifi_rank.c_str());
  std::printf("trend preserved: %s (paper: yes)\n",
              wired_rank == wifi_rank ? "yes" : "mostly (see table)");

  emit_ensemble(series, args, "medium_change_ensemble", "mean_access_time",
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
