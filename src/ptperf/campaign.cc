#include "ptperf/campaign.h"

#include <map>

namespace ptperf {

DownloadOutcome classify(const workload::FetchResult& r) {
  if (r.success) return DownloadOutcome::kComplete;
  if (r.received_bytes == 0) return DownloadOutcome::kFailed;
  return DownloadOutcome::kPartial;
}

std::string_view outcome_name(DownloadOutcome o) {
  switch (o) {
    case DownloadOutcome::kComplete: return "complete";
    case DownloadOutcome::kPartial: return "partial";
    case DownloadOutcome::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

/// A fresh circuit, and a fresh guard too where the stack rotates one (a
/// null `rotate_guard` keeps the first hop). The paper's measurements span
/// a year of natural guard rotation, so re-sampling the guard per site
/// recovers the population-average first hop for non-bridge transports.
void fresh_circuit(PtStack& stack) {
  if (stack.rotate_guard) stack.rotate_guard();
  stack.new_identity();
}

}  // namespace

Campaign::Campaign(Scenario& scenario, CampaignOptions opts)
    : scenario_(&scenario), opts_(opts) {}

std::vector<const workload::Website*> Campaign::take_sites(
    const workload::Corpus& corpus, std::size_t n) {
  std::vector<const workload::Website*> out;
  for (std::size_t i = 0; i < corpus.sites().size() && i < n; ++i)
    out.push_back(&corpus.sites()[i]);
  return out;
}

std::vector<const workload::Website*> Campaign::merge(
    std::vector<const workload::Website*> a,
    const std::vector<const workload::Website*>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

std::vector<WebsiteSample> Campaign::run_website_curl(
    PtStack& stack, const std::vector<const workload::Website*>& sites) {
  std::vector<WebsiteSample> samples;
  samples.reserve(sites.size() * static_cast<std::size_t>(opts_.website_reps));
  sim::EventLoop& loop = scenario_->loop();
  for (const workload::Website* site : sites) {
    fresh_circuit(stack);
    for (int rep = 0; rep < opts_.website_reps; ++rep) {
      auto result = loop.await<workload::FetchResult>([&](auto done) {
        stack.fetcher->fetch(site->hostname, "/", opts_.website_timeout, done);
      });
      samples.push_back({stack.name(), site->hostname, rep, std::move(result)});
      loop.idle(opts_.think_gap);
    }
  }
  return samples;
}

std::vector<PageSample> Campaign::run_website_selenium(
    PtStack& stack, const std::vector<const workload::Website*>& sites) {
  std::vector<PageSample> samples;
  if (!stack.supports_selenium()) return samples;
  sim::EventLoop& loop = scenario_->loop();
  for (const workload::Website* site : sites) {
    fresh_circuit(stack);
    for (int rep = 0; rep < opts_.website_reps; ++rep) {
      auto result = loop.await<workload::PageLoadResult>(
          [&](auto done) { stack.fetcher->fetch_page(*site, done); });
      double speed_index_s = workload::speed_index(*site, result);
      samples.push_back({stack.name(), site->hostname, rep, std::move(result),
                         speed_index_s});
      loop.idle(opts_.think_gap);
    }
  }
  return samples;
}

std::vector<FileSample> Campaign::run_file_downloads(
    PtStack& stack, const std::vector<std::size_t>& sizes) {
  std::vector<FileSample> samples;
  for (ReliabilitySample& r : run_reliability(stack, sizes))
    samples.push_back({std::move(r.pt), r.size_bytes, r.rep,
                       std::move(r.result)});
  return samples;
}

std::vector<ReliabilitySample> Campaign::run_reliability(
    PtStack& stack, const std::vector<std::size_t>& sizes, RetryPolicy retry) {
  std::vector<ReliabilitySample> samples;
  sim::EventLoop& loop = scenario_->loop();
  for (std::size_t size : sizes) {
    std::string target = "/" + workload::file_target_name(size);
    for (int rep = 0; rep < opts_.file_reps; ++rep) {
      ReliabilitySample s;
      s.pt = stack.name();
      s.size_bytes = size;
      s.rep = rep;
      for (;;) {
        // Every attempt, first try or retry, runs over a fresh circuit:
        // bulk transfers regularly outlive tunnels, and the paper retried
        // from scratch.
        fresh_circuit(stack);
        s.result = loop.await<workload::FetchResult>([&](auto done) {
          stack.fetcher->fetch("files.example", target, opts_.file_timeout,
                               done);
        });
        s.outcome = classify(s.result);
        bool retryable = s.outcome == DownloadOutcome::kFailed ||
                         (retry.retry_on_partial &&
                          s.outcome == DownloadOutcome::kPartial);
        if (!retryable || s.attempts > retry.max_retries) break;
        ++s.attempts;
        loop.idle(retry.backoff);
      }
      samples.push_back(std::move(s));
      loop.idle(opts_.think_gap);
    }
  }
  return samples;
}

OutcomeCounts count_outcomes(const std::vector<ReliabilitySample>& xs) {
  OutcomeCounts c;
  for (const ReliabilitySample& s : xs) {
    switch (s.outcome) {
      case DownloadOutcome::kComplete: ++c.complete; break;
      case DownloadOutcome::kPartial: ++c.partial; break;
      case DownloadOutcome::kFailed: ++c.failed; break;
    }
  }
  return c;
}

std::vector<double> elapsed_seconds(const std::vector<WebsiteSample>& xs) {
  std::vector<double> out;
  for (const auto& s : xs)
    if (s.result.success) out.push_back(s.result.elapsed());
  return out;
}

std::vector<double> ttfb_seconds(const std::vector<WebsiteSample>& xs) {
  std::vector<double> out;
  for (const auto& s : xs)
    if (s.result.ttfb() >= 0) out.push_back(s.result.ttfb());
  return out;
}

std::vector<double> load_seconds(const std::vector<PageSample>& xs) {
  std::vector<double> out;
  for (const auto& s : xs)
    if (s.result.success) out.push_back(s.result.load_time_s);
  return out;
}

std::vector<double> per_site_means(const std::vector<WebsiteSample>& xs) {
  std::map<std::string, std::pair<double, int>> acc;
  for (const auto& s : xs) {
    if (!s.result.success) continue;
    auto& slot = acc[s.site];
    slot.first += s.result.elapsed();
    slot.second += 1;
  }
  std::vector<double> out;
  out.reserve(acc.size());
  for (const auto& [site, slot] : acc)
    out.push_back(slot.first / slot.second);
  return out;
}

}  // namespace ptperf
