// Reproduces Figure 12 (Appendix A.2): post-unrest monitoring — one
// pre-September baseline box followed by weekly post-September boxes
// (paper: March 2023 weeks, 100 random Tranco sites x 5 accesses each).
// Expected: every post week sits above the pre baseline; the load never
// recovered.
//
// Both paths are anchored on the population engine's emergent trajectory
// (src/population/): each window's snowflake operating point is the pool
// utilization produced by the simulated user fleets over that window's
// slice of the surge timeline, applied through population::apply_snowflake
// — not a hand-set overload flag. The trajectory marches forward step by
// step per cohort, so extending the horizon (more --windows on a resumed
// run) only appends steps: earlier windows' utilizations are byte-stable.
//
// --monitor generalizes the fixed five-week loop into a continuous
// monitor service on the sharded engine: each --interval-hours window is
// one checkpointed campaign over the same pinned site list (window 0 is
// the pre-unrest baseline, later windows run at their emergent post-surge
// utilization), and fig12_monitor.csv grows one row per completed window —
// rewritten incrementally, so a reader always sees every finished window.
// With --checkpoint, completed windows snapshot between campaigns; a
// killed monitor resumed with --resume replays them from the snapshot and
// continues appending, byte-identically. Raising --windows on a resumed
// run extends the series. See docs/CHECKPOINTING.md.
#include <algorithm>
#include <cmath>
#include <string_view>

#include "population/contention.h"

#include "common.h"

namespace ptperf::bench {
namespace {

/// Scenario seed of window w: the base seed for the pre-unrest baseline,
/// an independent fork per later window — the same scheme repetitions use,
/// under a "window/" namespace so the streams never collide.
std::uint64_t window_seed(std::uint64_t base_seed, int window) {
  if (window == 0) return base_seed;
  return sim::Rng(base_seed)
      .fork("window/" + std::to_string(window))
      .next_u64();
}

/// The surge scenario sized to cover `hours_needed` of timeline (never
/// less than the canonical 12 weeks). Extending the horizon only appends
/// trajectory steps — the covered prefix is byte-stable.
population::IranSurge surge_covering(double hours_needed) {
  int weeks = static_cast<int>(std::ceil(hours_needed / (24.0 * 7)));
  return population::iran_surge(weeks < 12 ? 12 : weeks);
}

/// Window w's emergent pool utilization: the pre-surge mean for the
/// baseline window, the mean over the window's own post-surge slice
/// otherwise.
double window_utilization(const population::IranSurge& surge,
                          const population::Trajectory& traj, int window,
                          double interval_hours) {
  double split = 24.0 * 7 * (surge.surge_week - 1);
  if (window == 0) return surge.utilization_at(traj.mean_active(0, split));
  double h0 = split + (window - 1) * interval_hours;
  return surge.utilization_at(traj.mean_active(h0, h0 + interval_hours));
}

int run_monitor(const BenchArgs& args) {
  banner("Figure 12 / monitor mode",
         "continuous snowflake health monitor (windowed, checkpointed)",
         args);

  EnsembleCampaignConfig ecfg = ensemble_config(args, "fig12");
  std::shared_ptr<checkpoint::Store> store = ecfg.base.checkpoint;
  std::size_t tranco = scaled(15, args.scale, 5);
  ecfg.base.scenario.tranco_sites = tranco;
  ecfg.base.scenario.cbl_sites = 0;
  // A monitor tracks the same site list across windows; pin the corpus to
  // the base seed so only the network world resamples per window.
  ecfg.base.scenario.corpus_seed = args.seed;
  ecfg.base.campaign.website_reps = 3;  // paper: 5

  // The demand side: one fleet trajectory on the monitor's base seed,
  // covering every window's slice of the surge timeline.
  population::IranSurge surge = surge_covering(
      24.0 * 7 * 8 + args.windows * args.interval_hours);
  population::PopulationConfig pcfg = surge.pop;
  pcfg.seed = args.seed;
  population::Trajectory traj = population::PopulationModel(pcfg).simulate();

  stats::Table series({"window", "t_hours", "regime", "utilization", "pt",
                       "n_sites", "mean_us", "p50_us", "p95_us", "fail_ppm"});
  for (int w = 0; w < args.windows; ++w) {
    EnsembleCampaignConfig wcfg = ecfg;
    wcfg.base.scenario.seed = window_seed(args.seed, w);
    bool post = w > 0;  // window 0 = pre-unrest baseline
    double u = window_utilization(surge, traj, w, args.interval_hours);
    wcfg.base.configure_stack = [u](Scenario&, PtStack& stack) {
      if (stack.snowflake) population::apply_snowflake(*stack.snowflake, u);
    };

    EnsembleCampaign engine(wcfg);
    auto runs =
        engine.run_website_curl({PtId::kSnowflake}, {tranco, 0});
    // Window rows summarize repetition 0 (the base world); extra
    // --repeats widen the checkpointed ensemble without changing rows.
    const std::vector<WebsiteSample>& samples = runs.first();
    std::vector<double> per_site = per_site_means(samples);
    std::size_t failed = 0;
    for (const WebsiteSample& s : samples)
      if (!s.result.success) ++failed;
    double fail_frac =
        samples.empty() ? 0
                        : static_cast<double>(failed) /
                              static_cast<double>(samples.size());
    double mean_s = per_site.empty() ? 0 : stats::mean(per_site);
    double p50_s = per_site.empty() ? 0 : stats::quantile(per_site, 0.5);
    double p95_s = per_site.empty() ? 0 : stats::quantile(per_site, 0.95);
    series.add_row({std::to_string(w),
                    util::fmt_double(static_cast<double>(w) *
                                         args.interval_hours, 1),
                    post ? "post" : "pre", util::fmt_double(u, 3),
                    "snowflake",
                    std::to_string(per_site.size()), stats::us_cell(mean_s),
                    stats::us_cell(p50_s), stats::us_cell(p95_s),
                    stats::ppm_cell(fail_frac)});

    // Streaming incremental output: every completed window lands on disk
    // before the next one starts, and the snapshot (if any) catches up.
    emit(series, args, "fig12_monitor", /*print_text=*/false);
    if (store) store->flush();
    std::printf("  window %d (t=%.1fh, %s, u=%.3f) done\n", w,
                static_cast<double>(w) * args.interval_hours,
                post ? "post" : "pre", u);
    std::fflush(stdout);
  }

  std::printf("\n-- Figure 12 monitor: %d windows -> fig12_monitor.csv --\n",
              args.windows);
  std::printf("%s\n", series.to_text().c_str());
  return 0;
}

int run(const BenchArgs& args) {
  if (args.monitor) return run_monitor(args);

  banner("Figure 12 / Appendix A.2", "snowflake post-unrest monitoring",
         args);

  ScenarioConfig cfg;
  cfg.seed = args.seed;
  cfg.tranco_sites = scaled(15, args.scale, 5);
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  CampaignOptions copts;
  copts.website_reps = 3;  // paper: 5
  Campaign campaign(scenario, copts);
  auto sites = Campaign::take_sites(scenario.tranco(), cfg.tranco_sites);

  // Five post-surge weeks after the pre baseline: the canonical 12-week
  // surge timeline has exactly that shape (surge at week 9, weeks 9-12
  // post) plus one extra week of horizon for week 5.
  population::IranSurge surge = surge_covering(24.0 * 7 * 13);
  population::PopulationConfig pcfg = surge.pop;
  pcfg.seed = args.seed;
  population::Trajectory traj = population::PopulationModel(pcfg).simulate();

  PtStack stack = factory.create(PtId::kSnowflake);
  stats::Table boxes(box_header());

  population::apply_snowflake(
      *stack.snowflake, window_utilization(surge, traj, 0, 24.0 * 7));
  auto pre = campaign.run_website_curl(stack, sites);
  boxes.add_row(box_row("pre-unrest", per_site_means(pre)));

  for (int week = 1; week <= 5; ++week) {
    population::apply_snowflake(
        *stack.snowflake, window_utilization(surge, traj, week, 24.0 * 7));
    auto samples = campaign.run_website_curl(stack, sites);
    boxes.add_row(box_row("week" + std::to_string(week),
                          per_site_means(samples)));
    std::printf("  week %d done\n", week);
    std::fflush(stdout);
  }

  std::printf("\n-- Figure 12: weekly access-time boxes (s) --\n");
  emit(boxes, args, "fig12_weekly");
  std::printf(
      "(paper: every post-unrest week's box sits above the pre baseline)\n");
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  namespace b = ptperf::bench;
  // Outside --monitor, fig12 runs one hand-built world: it has no shard
  // pool, ensemble or snapshot, so it refuses their flags.
  bool monitor = std::find(argv + 1, argv + argc,
                           std::string_view("--monitor")) != argv + argc;
  unsigned supported = b::flag::kBasic | b::flag::kMonitor;
  if (monitor)
    supported |= b::flag::kJobs | b::flag::kRepeats | b::flag::kCheckpoint;
  return b::run(b::parse_args(argc, argv, supported));
}
