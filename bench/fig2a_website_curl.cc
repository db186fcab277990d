// Reproduces Figure 2a + Appendix Tables 3/4: website access time via curl
// for vanilla Tor and all 12 PTs over Tranco and CBL sites (paper: 1k+1k
// sites x 5 accesses; default here: 30+30 sites x 3, grow with --scale).
// Runs on the sharded engine: one shard per PT, merged in plan order, so
// --jobs N only changes wall time, never output.
//
// Expected shape (paper): fully-encrypted and proxy-layer PTs cluster near
// vanilla Tor (~2.3 s); dnstt and meek are 2x+ slower; camoufler ~5x;
// marionette is the worst by far (~9x).
//
// Table 10 is derived from the same samples, as in the paper: paired
// t-tests between PT *categories* over per-site access times. Expected
// ordering: fully-encrypted fastest, then proxy-layer, then tunneling ~
// mimicry; e.g. fully-encrypted beats tunneling by ~4.9 s and mimicry by
// ~5.2 s mean difference.
#include "pt/transport.h"

#include "common.h"

namespace ptperf::bench {
namespace {

/// Plan label -> Table 10 category, read from each transport's
/// TransportInfo: one probe world on the main thread builds every stack
/// once and measures nothing.
std::map<std::string, std::string> pt_categories(const ScenarioConfig& cfg) {
  Scenario probe(cfg);
  TransportFactory factory(probe);
  std::map<std::string, std::string> out{{"tor", "Tor"}};
  for (PtId id : figure_pt_order()) {
    PtStack stack = factory.create(id);
    out[stack.name()] = std::string(pt::category_name(stack.info->category));
  }
  return out;
}

/// Table 10: a site's category value is the mean of the successful
/// accesses over that category's PTs; categories are paired by site, over
/// the sites every category covers.
void emit_table10(const std::vector<WebsiteSample>& samples,
                  const std::map<std::string, std::string>& category_of,
                  const BenchArgs& args) {
  // site -> category -> (sum, count)
  std::map<std::string, std::map<std::string, std::pair<double, int>>> acc;
  for (const WebsiteSample& s : samples) {
    if (!s.result.success) continue;
    auto& slot = acc[s.site][category_of.at(s.pt)];
    slot.first += s.result.elapsed();
    slot.second += 1;
  }

  std::vector<std::pair<std::string, std::vector<double>>> groups;
  for (const char* c :
       {"fully-encrypted", "proxy-layer", "tunneling", "mimicry", "Tor"})
    groups.emplace_back(c, std::vector<double>{});
  for (auto& [site, by_cat] : acc) {
    bool complete = true;
    for (const auto& [c, xs] : groups)
      if (!by_cat.count(c)) complete = false;
    if (!complete) continue;
    for (auto& [c, xs] : groups) {
      auto& slot = by_cat[c];
      xs.push_back(slot.first / slot.second);
    }
  }

  std::printf("-- Table 10: category means (s) --\n");
  stats::Table means({"category", "n_sites", "mean_s"});
  for (auto& [c, xs] : groups) {
    means.add_row({c, std::to_string(xs.size()),
                   util::fmt_double(stats::mean(xs), 2)});
  }
  emit(means, args, "table10_means");

  std::printf("-- Table 10: category pair t-tests --\n");
  emit(pairwise_t_tests(groups), args, "table10_ttests");
}

int run(const BenchArgs& args) {
  banner("Figure 2a / Tables 3-4",
         "website access time, curl, Tranco + CBL", args);

  EnsembleCampaignConfig ecfg = ensemble_config(args, "fig2a");
  auto& cfg = ecfg.base;
  cfg.scenario.tranco_sites = scaled(30, args.scale, 5);
  cfg.scenario.cbl_sites = scaled(30, args.scale, 5);
  cfg.campaign.website_reps = 3;  // paper: 5; sites scale with --scale
  EnsembleCampaign engine(ecfg);

  SiteSelection sites{cfg.scenario.tranco_sites, cfg.scenario.cbl_sites};
  auto runs = engine.run_website_curl(sweep_pts(), sites);
  const auto& samples = runs.first();

  stats::Table boxes(box_header());
  std::vector<std::pair<std::string, std::vector<double>>> per_site;
  // Samples arrive merged in plan order: group back by PT, preserving the
  // sweep order for the tables.
  for (const auto& pt : sweep_pts()) {
    std::string name = pt_label(pt);
    std::vector<double> means = per_site_means(samples_of(samples, name));
    boxes.add_row(box_row(name, means));
    per_site.emplace_back(name, std::move(means));
  }

  std::printf("-- Figure 2a: per-site average access time (s) --\n");
  emit(boxes, args, "fig2a_boxes");

  std::printf("-- Tables 3/4: paired t-tests over per-site means --\n");
  stats::Table tests = pairwise_t_tests(per_site);
  emit(tests, args, "fig2a_ttests", args.verbose);
  std::printf("(%zu PT pairs; full table in fig2a_ttests.csv)\n",
              tests.rows());

  emit_table10(samples, pt_categories(cfg.scenario), args);

  // Cross-repetition distribution of each PT's mean access time, with
  // PT-vs-vanilla paired differences over the ensemble.
  emit_ensemble(ensemble_series<WebsiteSample>(
                    runs,
                    [](const std::vector<WebsiteSample>& rep) {
                      std::vector<std::pair<std::string, double>> out;
                      for (const auto& pt : sweep_pts()) {
                        std::string name = pt_label(pt);
                        std::vector<double> means =
                            per_site_means(samples_of(rep, name));
                        if (!means.empty())
                          out.emplace_back(name, stats::mean(means));
                      }
                      return out;
                    }),
                args, "fig2a_ensemble", "mean_access_time",
                EnsembleUnit::kSeconds, "tor");
  emit_trace(engine, args);
  print_shard_timings(engine.timings(), args);
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  namespace b = ptperf::bench;
  return b::run(b::parse_args(argc, argv, b::flag::kEngine));
}
