#include "ptperf/ensemble.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "sim/rng.h"
#include "stats/descriptive.h"
#include "stats/ttest.h"

namespace ptperf {

namespace ensemble {

Estimate summarize(const std::vector<double>& per_rep) {
  Estimate e;
  e.repeats = per_rep.size();
  if (per_rep.empty()) return e;
  stats::Welford w;
  e.min = per_rep.front();
  e.max = per_rep.front();
  for (double x : per_rep) {
    w.add(x);
    e.min = std::min(e.min, x);
    e.max = std::max(e.max, x);
  }
  e.mean = w.mean();
  e.stddev = w.stddev();
  e.ci_lo = e.ci_hi = e.mean;
  if (per_rep.size() >= 2 && e.stddev > 0) {
    double n = static_cast<double>(per_rep.size());
    double crit = stats::student_t_critical(n - 1, 0.95);
    double half = crit * e.stddev / std::sqrt(n);
    e.ci_lo = e.mean - half;
    e.ci_hi = e.mean + half;
  }
  return e;
}

}  // namespace ensemble

std::uint64_t repeat_seed(std::uint64_t base_seed, int repeat) {
  if (repeat <= 0) return base_seed;
  std::string label = "repeat/" + std::to_string(repeat);
  return sim::Rng(base_seed).fork(label).next_u64();
}

EnsembleCampaign::EnsembleCampaign(EnsembleCampaignConfig cfg)
    : cfg_(std::move(cfg)) {}

std::uint64_t EnsembleCampaign::total_injected_faults() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : fault_counts_) total += c;
  return total;
}

/// Runs `run(engine)` once per repetition, each against a ShardedCampaign
/// whose scenario seed is the repetition's fork, and returns the results in
/// repetition order. Repetitions execute in order; each one parallelizes
/// internally over base.jobs, so wall time scales like repeats x (single
/// campaign) while every repetition stays individually jobs-independent.
template <typename Run>
auto EnsembleCampaign::run_reps(const Run& run) {
  std::vector<std::invoke_result_t<const Run&, ShardedCampaign&>> out;
  int n = repeats();
  out.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    ShardedCampaignConfig sc = cfg_.base;
    sc.scenario.seed = repeat_seed(cfg_.base.scenario.seed, r);
    // The recorder observes the base campaign only: repetition 0's trace
    // is what --trace wrote before the ensemble layer existed, and extra
    // repetitions never grow (or reorder) the capture.
    if (r > 0) sc.trace_categories = 0;
    ShardedCampaign engine(sc);
    out.push_back(run(engine));
    for (const ShardTiming& t : engine.timings()) timings_.push_back(t);
    if (r == 0) {
      for (const trace::ShardTrace& tr : engine.traces())
        traces_.push_back(tr);
    }
    for (std::size_t k = 0; k < fault_counts_.size(); ++k)
      fault_counts_[k] += engine.injected_faults(static_cast<fault::FaultKind>(k));
  }
  return out;
}

EnsembleRuns<WebsiteSample> EnsembleCampaign::run_website_curl(
    const std::vector<std::optional<PtId>>& pts, const SiteSelection& sites) {
  return {run_reps([&](ShardedCampaign& engine) {
    return engine.run_website_curl(pts, sites);
  })};
}

EnsembleRuns<PageSample> EnsembleCampaign::run_website_selenium(
    const std::vector<std::optional<PtId>>& pts, const SiteSelection& sites) {
  return {run_reps([&](ShardedCampaign& engine) {
    return engine.run_website_selenium(pts, sites);
  })};
}

EnsembleRuns<FileSample> EnsembleCampaign::run_file_downloads(
    const std::vector<std::optional<PtId>>& pts,
    const std::vector<std::size_t>& sizes) {
  return {run_reps([&](ShardedCampaign& engine) {
    return engine.run_file_downloads(pts, sizes);
  })};
}

EnsembleRuns<ReliabilitySample> EnsembleCampaign::run_reliability(
    const std::vector<std::optional<PtId>>& pts,
    const std::vector<std::size_t>& sizes, RetryPolicy retry) {
  return {run_reps([&](ShardedCampaign& engine) {
    return engine.run_reliability(pts, sizes, retry);
  })};
}

std::vector<population::Trajectory> EnsembleCampaign::run_population(
    const population::PopulationConfig& pcfg) {
  // Population shards record no traces and inject no faults, so only the
  // timings of the shared repetition loop accumulate.
  return run_reps(
      [&](ShardedCampaign& engine) { return engine.run_population(pcfg); });
}

EnsembleRuns<OverheadSample> EnsembleCampaign::run_overhead(
    const std::vector<PtId>& pts, const SiteSelection& sites) {
  return {run_reps([&](ShardedCampaign& engine) {
    return engine.run_overhead(pts, sites);
  })};
}

}  // namespace ptperf
