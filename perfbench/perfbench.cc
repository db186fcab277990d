// End-to-end benchmark: host cost of one PTPerf campaign per
// workload, plus per-layer attribution measured from outside the
// simulator. perfbench/README.md has the metric table, the layer ->
// end-to-end mapping and the reason for each workload.
//
//   ptperf_perfbench --workload bulk|browse|tunnel --seed N --seconds S
//                    --trace 0|1 [--size full|tiny]
//
// --trace 0 runs the workload's campaign back to back for S seconds with
// tracing off and reports the end-to-end metrics. --trace 1 alternates
// untraced campaigns, fully traced campaigns (trace::kAll) and a replay of
// every shard through the public Scenario/TransportFactory/Campaign API,
// then times the crypto/tor/sim entry points, and reports the per-layer
// metrics. Every campaign's merged samples are digested in plan order and
// checked. The last stdout line is one JSON object; a bad flag exits 2.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "net/dns.h"
#include "population/contention.h"
#include "pt/dnstt.h"
#include "pt/layer/stack.h"
#include "ptperf/campaign.h"
#include "ptperf/ensemble.h"
#include "ptperf/parallel.h"
#include "sim/rng.h"
#include "stats/descriptive.h"
#include "stats/ttest.h"
#include "tor/cell.h"
#include "tor/ntor.h"
#include "tor/onion.h"

namespace {

using namespace ptperf;

// The seed whose merged-sample digests the workload table records. Every
// run first runs one campaign at this seed as a known-answer check; that
// campaign is also the warm-up.
constexpr std::uint64_t kReferenceSeed = 1;

// Seed of the synthetic web every run measures. Like the paper's fixed
// Tranco/CBL site lists, the page corpus is part of the workload, not of
// the draw: --seed varies the network world (relays, paths, loads, PT
// infrastructure) while every seed fetches the same pages and files.
constexpr std::uint64_t kCorpusSeed = 1;

// setup_s samples taken after each timed campaign. Building a campaign's
// worlds takes milliseconds, so it is timed many times, spread over the
// run like the campaigns, and the median reported.
constexpr int kSetupSamplesPerCampaign = 5;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(const std::vector<double>& xs) {
  return xs.empty() ? 0 : stats::median(xs);
}

// Timed loops fold their results in here so the work cannot be optimized
// away.
volatile double g_sink = 0;

// ------------------------------------------------------------ workloads --

enum class Kind { kFiles, kSelenium, kCurl };

struct Workload {
  std::string name;
  Kind kind = Kind::kFiles;
  std::vector<std::optional<PtId>> pts;  // plan order, vanilla Tor first
  int jobs = 1;
  std::vector<std::size_t> file_sizes;  // kFiles
  SiteSelection sites;                  // kSelenium, kCurl
  int repeats = 1;                      // ensemble repetitions
  bool snowflake_surge = false;         // population::apply_regime(.., true)
  std::uint64_t reference_digest = 0;   // merged samples at kReferenceSeed
};

/// The three workloads at full size, or at a smoke size for the
/// self-test (`tiny`, with its own reference digests). Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "bulk") {
    // fig5: bulk downloads over vanilla Tor and the stream-framed PTs.
    w.kind = Kind::kFiles;
    w.pts = ShardedCampaign::with_vanilla(
        {PtId::kObfs4, PtId::kShadowsocks, PtId::kWebTunnel, PtId::kCloak,
         PtId::kPsiphon, PtId::kConjure, PtId::kStegotorus});
    w.file_sizes = {std::size_t{tiny ? 1u : 5u} << 20};
    w.reference_digest = tiny ? 0xd0c76d740d7d4892 : 0xd542b69621d50fc1;
  } else if (name == "browse") {
    // fig2b: selenium page loads over every PT with parallel streams,
    // during the snowflake surge.
    w.kind = Kind::kSelenium;
    w.pts = ShardedCampaign::with_vanilla(
        {PtId::kMeek, PtId::kPsiphon, PtId::kConjure, PtId::kSnowflake,
         PtId::kDnstt, PtId::kWebTunnel, PtId::kMarionette, PtId::kStegotorus,
         PtId::kCloak, PtId::kShadowsocks, PtId::kObfs4});
    w.jobs = 2;
    w.sites = tiny ? SiteSelection{1, 1} : SiteSelection{4, 4};
    w.repeats = 2;
    w.snowflake_surge = true;
    w.reference_digest = tiny ? 0x3ec32c27e71dbd8d : 0xda424d5d9a7339a9;
  } else if (name == "tunnel") {
    // fig2a-style curl access over the non-stream carriers.
    w.kind = Kind::kCurl;
    w.pts = ShardedCampaign::with_vanilla(
        {PtId::kDnstt, PtId::kMeek, PtId::kSnowflake, PtId::kCamoufler});
    w.sites = tiny ? SiteSelection{1, 1} : SiteSelection{5, 5};
    w.repeats = tiny ? 1 : 4;
    w.reference_digest = tiny ? 0x3ccacc1b3600d52b : 0xc93d3c1949b1a414;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

ShardedCampaignConfig shard_config(const Workload& w, std::uint64_t seed,
                                   int jobs, unsigned trace_categories) {
  ShardedCampaignConfig cfg;
  cfg.scenario.seed = seed;
  cfg.scenario.corpus_seed = kCorpusSeed;
  cfg.jobs = jobs;
  cfg.trace_categories = trace_categories;
  // One measurement per item and stack; repetitions come from the
  // ensemble, in independent worlds.
  cfg.campaign.file_reps = 1;
  cfg.campaign.website_reps = 1;
  if (w.kind == Kind::kFiles) {
    cfg.scenario.tranco_sites = 2;
    cfg.scenario.cbl_sites = 0;
  } else {
    cfg.scenario.tranco_sites = w.sites.tranco;
    cfg.scenario.cbl_sites = w.sites.cbl;
  }
  if (w.snowflake_surge) {
    cfg.configure_stack = [](Scenario&, PtStack& stack) {
      if (stack.snowflake) population::apply_regime(*stack.snowflake, true);
    };
  }
  return cfg;
}

// ------------------------------------------------------- sample digests --

/// FNV-1a over every field of every merged sample, doubles by bit
/// pattern, so two runs agree only if their samples are byte-identical.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

  void add(const workload::FetchResult& r) {
    str(r.target);
    f64(r.start_s);
    f64(r.ttfb_s);
    f64(r.complete_s);
    u64(r.expected_bytes);
    u64(r.received_bytes);
    u64(static_cast<std::uint64_t>(r.success) |
        static_cast<std::uint64_t>(r.timed_out) << 1);
    str(r.error);
  }
  void add(const FileSample& s) {
    str(s.pt);
    u64(s.size_bytes);
    u64(static_cast<std::uint64_t>(s.rep));
    add(s.result);
  }
  void add(const WebsiteSample& s) {
    str(s.pt);
    str(s.site);
    u64(static_cast<std::uint64_t>(s.rep));
    add(s.result);
  }
  void add(const PageSample& s) {
    str(s.pt);
    str(s.site);
    u64(static_cast<std::uint64_t>(s.rep));
    add(s.result.page);
    u64(s.result.resources.size());
    for (const workload::FetchResult& r : s.result.resources) add(r);
    u64(static_cast<std::uint64_t>(s.result.success));
    f64(s.result.load_time_s);
    f64(s.result.speed_index_s);
    f64(s.speed_index_s);
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Payload bytes a sample delivered to the measurement client.
std::uint64_t payload(const FileSample& s) { return s.result.received_bytes; }
std::uint64_t payload(const WebsiteSample& s) {
  return s.result.received_bytes;
}
std::uint64_t payload(const PageSample& s) {
  std::uint64_t n = s.result.page.received_bytes;
  for (const workload::FetchResult& r : s.result.resources)
    n += r.received_bytes;
  return n;
}

/// The figure statistic of a sample (download, access or page-load time).
double figure_value(const FileSample& s) { return s.result.elapsed(); }
double figure_value(const WebsiteSample& s) { return s.result.elapsed(); }
double figure_value(const PageSample& s) { return s.result.load_time_s; }

/// Per-PT figure values, PTs in plan order, repetitions pooled.
using Groups = std::vector<std::pair<std::string, std::vector<double>>>;

/// Merged samples reduced to what the benchmark checks and reports.
struct SampleSummary {
  std::uint64_t digest = 0;
  std::uint64_t payload_bytes = 0;
  std::size_t samples = 0;
  Groups groups;
};

/// Folds samples, in plan order, into a running summary; finish() seals
/// the digest with the sample count.
class SampleFold {
 public:
  template <typename Sample>
  void add(const std::vector<Sample>& samples) {
    for (const Sample& s : samples) {
      digest_.add(s);
      out_.payload_bytes += payload(s);
      auto group = std::find_if(out_.groups.begin(), out_.groups.end(),
                                [&](const auto& g) { return g.first == s.pt; });
      if (group == out_.groups.end())
        group = out_.groups.emplace(group, s.pt, std::vector<double>{});
      group->second.push_back(figure_value(s));
    }
    out_.samples += samples.size();
  }
  SampleSummary finish() {
    digest_.u64(out_.samples);
    out_.digest = digest_.value();
    return std::move(out_);
  }

 private:
  Digest digest_;
  SampleSummary out_;
};

// ------------------------------------------------------------ campaigns --

struct CampaignResult {
  SampleSummary summary;
  std::vector<ShardTiming> timings;
  std::vector<trace::ShardTrace> traces;
  double wall_s = 0;
  double cpu_s = 0;  // all threads of the process
};

/// Runs `repeats` repetitions of the workload's campaign through the
/// public ensemble API, configured the way the figure benches configure
/// theirs, folding every repetition's samples into `fold` and appending
/// timings, traces and host time to `out`.
void run_ensemble(const Workload& w, std::uint64_t seed, int jobs,
                  unsigned trace_categories, int repeats, SampleFold& fold,
                  CampaignResult& out) {
  EnsembleCampaignConfig ecfg;
  ecfg.base = shard_config(w, seed, jobs, trace_categories);
  ecfg.repeats = repeats;
  double t0 = now_s();
  double c0 = cpu_now_s();
  EnsembleCampaign engine(ecfg);
  auto fold_reps = [&fold](const auto& runs) {
    for (const auto& rep : runs.reps) fold.add(rep);
  };
  switch (w.kind) {
    case Kind::kFiles:
      fold_reps(engine.run_file_downloads(w.pts, w.file_sizes));
      break;
    case Kind::kSelenium:
      fold_reps(engine.run_website_selenium(w.pts, w.sites));
      break;
    case Kind::kCurl:
      fold_reps(engine.run_website_curl(w.pts, w.sites));
      break;
  }
  out.wall_s += now_s() - t0;
  out.cpu_s += cpu_now_s() - c0;
  out.timings.insert(out.timings.end(), engine.timings().begin(),
                     engine.timings().end());
  out.traces.insert(out.traces.end(), engine.traces().begin(),
                    engine.traces().end());
}

/// One full campaign of the workload: every repetition, tracing off.
CampaignResult run_campaign(const Workload& w, std::uint64_t seed,
                            int jobs) {
  CampaignResult out;
  SampleFold fold;
  run_ensemble(w, seed, jobs, 0, w.repeats, fold, out);
  out.summary = fold.finish();
  return out;
}

/// The same campaign with every trace category on. The ensemble layer
/// records repetition 0 only, so each repetition runs as its own
/// single-repetition ensemble on repeat_seed(seed, r): identical worlds
/// and samples, with every repetition traced.
CampaignResult run_traced_campaign(const Workload& w, std::uint64_t seed) {
  CampaignResult out;
  SampleFold fold;
  for (int r = 0; r < w.repeats; ++r)
    run_ensemble(w, repeat_seed(seed, r), w.jobs, trace::kAll, 1, fold, out);
  out.summary = fold.finish();
  return out;
}

// --------------------------------------------------------- shard replay --

/// The site slice one shard measures: the selection resolved in the
/// shard's own world, cut to the shard's chunk (as the engine does).
std::vector<const workload::Website*> shard_sites(const ShardSpec& spec,
                                                  Scenario& scenario,
                                                  const SiteSelection& sel) {
  auto sites =
      Campaign::merge(Campaign::take_sites(scenario.tranco(), sel.tranco),
                      Campaign::take_sites(scenario.cbl(), sel.cbl));
  std::size_t end = std::min(spec.item_end, sites.size());
  std::size_t begin = std::min(spec.item_begin, end);
  return {sites.begin() + static_cast<std::ptrdiff_t>(begin),
          sites.begin() + static_cast<std::ptrdiff_t>(end)};
}

std::vector<std::size_t> shard_sizes(const ShardSpec& spec,
                                     const std::vector<std::size_t>& sizes) {
  std::size_t end = std::min(spec.item_end, sizes.size());
  std::size_t begin = std::min(spec.item_begin, end);
  return {sizes.begin() + static_cast<std::ptrdiff_t>(begin),
          sizes.begin() + static_cast<std::ptrdiff_t>(end)};
}

ShardPlan plan_for(const Workload& w, std::uint64_t seed) {
  std::size_t items =
      w.kind == Kind::kFiles ? w.file_sizes.size() : w.sites.count();
  return ShardPlan::build(seed, w.pts, items);
}

/// Host seconds one shard's world took to build.
struct WorldBuild {
  double scenario_s = 0;  // Scenario ctor
  double stack_s = 0;     // TransportFactory::create + configure_stack
};

/// Calls fn(cfg, spec) for every shard of every repetition, in the
/// engine's (repetition, plan) merge order.
template <typename Fn>
void for_each_shard(const Workload& w, std::uint64_t seed, const Fn& fn) {
  for (int rep = 0; rep < w.repeats; ++rep) {
    std::uint64_t rep_seed = repeat_seed(seed, rep);
    ShardedCampaignConfig cfg = shard_config(w, rep_seed, 1, 0);
    ShardPlan plan = plan_for(w, rep_seed);
    for (const ShardSpec& spec : plan.shards()) fn(cfg, spec);
  }
}

/// Builds one shard's world the way the engine does (the shard's forked
/// seed, the configure hook), timing the Scenario ctor and
/// TransportFactory::create, then hands it to `body`. The corpus seed
/// needs no pinning here: shard_config already fixes it.
template <typename Body>
WorldBuild with_shard_world(const ShardedCampaignConfig& cfg,
                            const ShardSpec& spec, const Body& body) {
  ScenarioConfig sc = cfg.scenario;
  sc.seed = spec.seed;
  double t0 = now_s();
  Scenario scenario(sc);
  double t1 = now_s();
  TransportFactory factory(scenario, cfg.factory);
  PtStack stack = spec.pt ? factory.create(*spec.pt) : factory.create_vanilla();
  if (cfg.configure_stack) cfg.configure_stack(scenario, stack);
  double t2 = now_s();
  body(scenario, stack);
  return {t1 - t0, t2 - t1};
}

/// Host seconds to build every shard's world of one campaign, over all
/// repetitions.
double setup_seconds(const Workload& w, std::uint64_t seed) {
  double total = 0;
  for_each_shard(w, seed, [&](const ShardedCampaignConfig& cfg,
                              const ShardSpec& spec) {
    WorldBuild b = with_shard_world(cfg, spec, [](Scenario&, PtStack&) {});
    total += b.scenario_s + b.stack_s;
  });
  return total;
}

/// One sequential replay of every shard: outside timings of each layer
/// entry point, and the counts the replayed worlds expose.
struct Replay {
  SampleSummary summary;
  double scenario_build_s = 0;
  double stack_build_s = 0;
  double body_s = 0;                // Campaign::run_*
  std::uint64_t events = 0;         // EventLoop::events_executed
  std::uint64_t wire_bytes = 0;     // Network::total_bytes_sent
  pt::layer::StackAccounting acct;  // summed over the PT stacks
};

/// Replays every shard of every repetition sequentially, in the engine's
/// merge order, so the folded digest must equal the engine's.
Replay replay_shards(const Workload& w, std::uint64_t seed) {
  Replay r;
  SampleFold fold;
  for_each_shard(w, seed, [&](const ShardedCampaignConfig& cfg,
                              const ShardSpec& spec) {
    WorldBuild b = with_shard_world(cfg, spec, [&](Scenario& scenario,
                                                   PtStack& stack) {
      Campaign campaign(scenario, cfg.campaign);
      auto timed = [&](auto run) {
        double t0 = now_s();
        auto samples = run();
        r.body_s += now_s() - t0;
        fold.add(samples);
      };
      switch (w.kind) {
        case Kind::kFiles:
          timed([&] {
            return campaign.run_file_downloads(
                stack, shard_sizes(spec, w.file_sizes));
          });
          break;
        case Kind::kSelenium:
          timed([&] {
            return campaign.run_website_selenium(
                stack, shard_sites(spec, scenario, w.sites));
          });
          break;
        case Kind::kCurl:
          timed([&] {
            return campaign.run_website_curl(
                stack, shard_sites(spec, scenario, w.sites));
          });
          break;
      }
      r.events += scenario.loop().events_executed();
      r.wire_bytes += scenario.network().total_bytes_sent();
      const pt::layer::LayerStack* layers =
          stack.transport ? stack.transport->layer_stack() : nullptr;
      if (layers) {
        const pt::layer::StackAccounting& a = *layers->accounting();
        r.acct.wire_bytes += a.wire_bytes;
        r.acct.payload_bytes += a.payload_bytes;
        r.acct.framing_bytes += a.framing_bytes;
        r.acct.handshake_rtts += a.handshake_rtts;
      }
    });
    r.scenario_build_s += b.scenario_s;
    r.stack_build_s += b.stack_s;
  });
  r.summary = fold.finish();
  return r;
}

// ----------------------------------------------------------- unit costs --

/// Median nanoseconds per call of `op`, over `batches` batches of `per`.
template <typename Op>
double unit_ns(int batches, int per, const Op& op) {
  std::vector<double> xs;
  for (int b = 0; b < batches; ++b) {
    double t0 = now_s();
    for (int i = 0; i < per; ++i) op();
    xs.push_back((now_s() - t0) * 1e9 / per);
  }
  return median(xs);
}

tor::CircuitKeys random_keys(sim::Rng& rng) {
  tor::CircuitKeys k;
  k.forward_key = rng.bytes(32);
  k.backward_key = rng.bytes(32);
  k.forward_nonce = rng.bytes(12);
  k.backward_nonce = rng.bytes(12);
  k.digest_seed = rng.bytes(16);
  return k;
}

/// The dnstt client's upstream chunk per DNS query (pt/dnstt.cc).
std::size_t dnstt_chunk_bytes() {
  std::size_t n = net::dns::max_query_data(pt::DnsttConfig{}.zone);
  return n > 12 ? n - 8 : 4;
}

struct UnitCosts {
  double sha256_509 = 0, chacha20_512 = 0, aead_cell = 0, aead_chunk = 0,
         x25519 = 0, onion3 = 0, digest = 0, event = 0;
};

UnitCosts measure_unit_costs() {
  constexpr int kBatches = 15;
  sim::Rng rng(7);
  UnitCosts u;
  double sink = 0;

  util::Bytes cell = rng.bytes(tor::kCellPayloadSize);
  u.sha256_509 = unit_ns(kBatches, 2000, [&] {
    sink += crypto::Sha256::digest(cell)[0];
  });

  util::Bytes block = rng.bytes(512);
  crypto::ChaCha20 chacha(rng.bytes(32), rng.bytes(12));
  u.chacha20_512 = unit_ns(kBatches, 2000, [&] {
    chacha.process(block.data(), block.size());
    sink += block[0];
  });

  crypto::ChaCha20Poly1305 aead(rng.bytes(32));
  auto seal_open = [&](std::size_t n) {
    util::Bytes buf = rng.bytes(n + crypto::ChaCha20Poly1305::kTagSize);
    std::uint64_t seq = 0;
    return unit_ns(kBatches, 1000, [&] {
      auto nonce = crypto::counter_nonce_arr(seq++);
      util::BytesView nv(nonce.data(), nonce.size());
      aead.seal_in_place(nv, buf, n);
      sink += static_cast<double>(aead.open_in_place(nv, buf).value_or(0));
    });
  };
  u.aead_cell = seal_open(tor::kRelayDataMax);
  u.aead_chunk = seal_open(dnstt_chunk_bytes());

  crypto::X25519Key scalar{}, point{};
  rng.fill_bytes(scalar.data(), scalar.size());
  scalar = crypto::x25519_clamp(scalar);
  point = crypto::x25519_base(scalar);
  u.x25519 = unit_ns(kBatches, 40, [&] {
    point = crypto::x25519(scalar, point);
    sink += point[0];
  });

  tor::RelayLayer l1(random_keys(rng)), l2(random_keys(rng)),
      l3(random_keys(rng));
  u.onion3 = unit_ns(kBatches, 1000, [&] {
    l3.process_forward(cell);
    l2.process_forward(cell);
    l1.process_forward(cell);
    sink += cell[0];
  });

  tor::CircuitKeys keys = random_keys(rng);
  tor::RelayLayer sender(keys), receiver(keys);
  u.digest = unit_ns(kBatches, 1000, [&] {
    std::uint32_t tag = sender.commit_backward_digest(cell);
    sink += receiver.check_backward_digest(cell, tag) ? 1 : 0;
  });

  // Self-rescheduling no-op events over a 64-deep queue: the loop's own
  // schedule + dispatch cost.
  u.event = unit_ns(kBatches, 1, [&] {
    sim::EventLoop loop;
    constexpr int kChains = 64, kHops = 500;
    std::vector<int> left(kChains, kHops);
    std::function<void(int)> hop = [&](int c) {
      if (--left[static_cast<std::size_t>(c)] > 0)
        loop.schedule(sim::from_millis(1 + c % 7), [&hop, c] { hop(c); });
    };
    for (int c = 0; c < kChains; ++c)
      loop.schedule(sim::from_millis(c), [&hop, c] { hop(c); });
    loop.run();
    sink += static_cast<double>(loop.events_executed());
  }) / (64.0 * 500.0);

  g_sink = sink;
  return u;
}

/// The figure-style reduction over one campaign's samples: a box row per
/// PT and paired t-tests between every PT pair. Returns seconds per call.
double report_seconds(const Groups& groups) {
  double sink = 0;
  double per_call_ns = unit_ns(5, 4, [&] {
    for (const auto& [name, xs] : groups) sink += stats::box_stats(xs).median;
    for (std::size_t i = 0; i < groups.size(); ++i) {
      for (std::size_t j = i + 1; j < groups.size(); ++j) {
        std::size_t n =
            std::min(groups[i].second.size(), groups[j].second.size());
        if (n < 2) continue;
        std::vector<double> x(groups[i].second.begin(),
                              groups[i].second.begin() + static_cast<long>(n));
        std::vector<double> y(groups[j].second.begin(),
                              groups[j].second.begin() + static_cast<long>(n));
        sink += stats::paired_t_test(x, y).t;
      }
    }
  });
  g_sink = sink;
  return per_call_ns * 1e-9;
}

// --------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // human-readable detail, not part of the JSON
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-26s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

/// "median of N; q1 .. q3 ..": the sample count and spread behind a
/// reported median.
std::string quartiles(std::vector<double> xs, const char* unit) {
  std::sort(xs.begin(), xs.end());
  char buf[160];
  std::snprintf(buf, sizeof buf, "median of %zu; q1 %.4g q3 %.4g %s",
                xs.size(), stats::quantile_sorted(xs, 0.25),
                stats::quantile_sorted(xs, 0.75), unit);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ----------------------------------------------------------------- runs --

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool tiny = false;
};

/// Counts campaigns attempted and failed (threw, or digest mismatch).
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Runs `fn`; a throw or a digest other than `expected` (when set) is a
  /// failure. Returns the result, or nullopt when it threw.
  template <typename Fn>
  auto check(const char* what, std::optional<std::uint64_t> expected,
             const Fn& fn) -> std::optional<decltype(fn())> {
    ++attempted;
    try {
      auto r = fn();
      if (expected && r.summary.digest != *expected) {
        ++failed;
        std::printf("digest mismatch (%s): %s, expected %s\n", what,
                    hex(r.summary.digest).c_str(), hex(*expected).c_str());
      }
      return r;
    } catch (const std::exception& e) {
      ++failed;
      std::printf("campaign threw (%s): %s\n", what, e.what());
      return std::nullopt;
    }
  }
};

/// Known-answer check: the campaign at the reference seed, run at
/// --jobs 1, must reproduce the digest recorded at the workload's --jobs,
/// which checks the output and its jobs-independence in one campaign. It
/// also warms caches and buffer pools before anything is timed.
void reference_check(const Workload& w, Ledger& ledger) {
  auto ref = ledger.check("reference seed, jobs 1", w.reference_digest, [&] {
    return run_campaign(w, kReferenceSeed, 1);
  });
  if (ref)
    std::printf("reference digest %s at seed %" PRIu64
                ", jobs 1 (recorded at jobs %d: %s)\n",
                hex(ref->summary.digest).c_str(), kReferenceSeed, w.jobs,
                hex(w.reference_digest).c_str());
}

int run_end_to_end(const Workload& w, const Args& a) {
  Ledger ledger;
  reference_check(w, ledger);

  // Every timed campaign must merge to the first one's digest.
  std::optional<std::uint64_t> digest;
  std::vector<double> wall, cpu, mbps, setup;
  std::uint64_t payload_bytes = 0;
  // The simulator does not return all of a campaign's memory (tunnel
  // grows ~13 MB per campaign), so peak RSS is read at a fixed point, after
  // the reference and first timed campaigns, rather than after however
  // many campaigns the host's speed fits into --seconds.
  double rss_mb = 0;
  double start = now_s();
  while (wall.size() < 3 || now_s() - start < a.seconds) {
    auto r = ledger.check("timed", digest,
                          [&] { return run_campaign(w, a.seed, w.jobs); });
    if (!r) break;
    if (!digest) digest = r->summary.digest;
    if (rss_mb == 0) rss_mb = peak_rss_mb();
    wall.push_back(r->wall_s);
    cpu.push_back(r->cpu_s);
    mbps.push_back(static_cast<double>(r->summary.payload_bytes) / 1e6 /
                   r->wall_s);
    payload_bytes = r->summary.payload_bytes;
    for (int i = 0; i < kSetupSamplesPerCampaign; ++i)
      setup.push_back(setup_seconds(w, a.seed));
  }
  std::printf("workload %s seed %" PRIu64 " jobs %d: %zu timed campaigns, "
              "%.3f MB payload each, digest %s\n",
              w.name.c_str(), a.seed, w.jobs, wall.size(),
              static_cast<double>(payload_bytes) / 1e6,
              hex(digest.value_or(0)).c_str());
  // A metric that is 0 on a healthy run takes no relative bound, so the
  // JSON carries failed_frac as its "failed" and "attempted" fields.
  std::printf("%-26s %16.6g %-6s %" PRIu64 " of %" PRIu64 " campaigns\n",
              "failed_frac",
              static_cast<double>(ledger.failed) /
                  static_cast<double>(ledger.attempted),
              "ratio", ledger.failed, ledger.attempted);
  print_result(
      ledger.failed == 0, ledger.attempted, ledger.failed,
      {{"campaign_s", median(wall), "s", quartiles(wall, "s")},
       {"cpu_s", median(cpu), "s", quartiles(cpu, "s")},
       {"sim_MBps", median(mbps), "MB/s", quartiles(mbps, "MB/s")},
       {"setup_s", median(setup), "s", quartiles(setup, "s")},
       {"peak_rss_mb", rss_mb, "MB",
        "getrusage ru_maxrss after the first timed campaign"}});
  return 0;
}

int run_traced(const Workload& w, const Args& a) {
  Ledger ledger;
  reference_check(w, ledger);

  std::optional<std::uint64_t> digest;
  std::vector<double> untraced_wall, traced_wall, engine_ms, parallel_eff,
      shard_p50, shard_max, virtual_per_host, scenario_ms, stack_ms, body_ms,
      report_ms;
  std::optional<CampaignResult> traced;
  std::optional<Replay> replay;
  double start = now_s();
  while (untraced_wall.empty() || now_s() - start < a.seconds) {
    auto u = ledger.check("untraced", digest, [&] {
      return run_campaign(w, a.seed, w.jobs);
    });
    if (!u) break;
    if (!digest) digest = u->summary.digest;
    auto t = ledger.check("traced", digest, [&] {
      return run_traced_campaign(w, a.seed);
    });
    auto r = ledger.check("replay", digest,
                          [&] { return replay_shards(w, a.seed); });
    std::optional<CampaignResult> j1 = u;
    if (w.jobs != 1)
      j1 = ledger.check("jobs 1", digest,
                        [&] { return run_campaign(w, a.seed, 1); });
    if (!t || !r || !j1) break;

    untraced_wall.push_back(u->wall_s);
    traced_wall.push_back(t->wall_s);
    double shard_sum = 0, virtual_sum = 0;
    std::vector<double> shard_ms;
    for (const ShardTiming& s : u->timings) {
      shard_sum += static_cast<double>(s.wall_us) * 1e-6;
      virtual_sum += s.virtual_seconds;
      shard_ms.push_back(static_cast<double>(s.wall_us) * 1e-3);
    }
    parallel_eff.push_back(shard_sum / (w.jobs * u->wall_s));
    virtual_per_host.push_back(virtual_sum / shard_sum);
    shard_p50.push_back(median(shard_ms));
    shard_max.push_back(*std::max_element(shard_ms.begin(), shard_ms.end()));
    double j1_shard_sum = 0;
    for (const ShardTiming& s : j1->timings)
      j1_shard_sum += static_cast<double>(s.wall_us) * 1e-6;
    engine_ms.push_back((j1->wall_s - j1_shard_sum) * 1e3);
    scenario_ms.push_back(r->scenario_build_s * 1e3);
    stack_ms.push_back(r->stack_build_s * 1e3);
    body_ms.push_back(r->body_s * 1e3);
    report_ms.push_back(report_seconds(u->summary.groups) * 1e3);
    traced = std::move(t);
    replay = std::move(r);
  }
  if (!traced || !replay) {
    print_result(false, ledger.attempted, ledger.failed, {});
    return 0;
  }

  UnitCosts u = measure_unit_costs();

  // Counts: the recorder's metrics registry and span names, summed over
  // the traced campaign's shards in plan order.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> spans;
  std::uint64_t span_total = 0;
  for (const trace::ShardTrace& st : traced->traces) {
    for (const auto& [name, n] : st.data.counters) counters[name] += n;
    for (const trace::SpanEvent& e : st.data.spans) ++spans[e.name];
    span_total += st.data.spans.size();
  }
  auto counter = [&](const char* name) {
    auto it = counters.find(name);
    return static_cast<double>(it == counters.end() ? 0 : it->second);
  };
  auto span_count = [&](const char* name) {
    auto it = spans.find(name);
    return static_cast<double>(it == spans.end() ? 0 : it->second);
  };
  double cells = counter("tor/cells_relayed");
  double data_cells = counter("tor/data_cells");
  double events = static_cast<double>(replay->events);
  double body = median(body_ms);
  double untraced = median(untraced_wall);

  // Modeled body time: traced counts times the unit costs of the public
  // entry points. Each relayed cell is one ChaCha20 onion layer at a
  // relay; each data cell is a 3-hop client onion crypt plus a relay
  // digest commit/check; each event is one loop dispatch. ntor hops add
  // nothing: the default consensus uses HandshakeMode::kFastSim, which
  // performs no X25519.
  double modeled_ms = (cells * u.chacha20_512 +
                       data_cells * (u.onion3 + u.digest) + events * u.event) *
                      1e-6;

  double pt_payload = static_cast<double>(replay->acct.payload_bytes);
  std::vector<Metric> metrics = {
      {"ptperf.shards", static_cast<double>(traced->timings.size()), "count",
       ""},
      {"ptperf.shard_ms_p50", median(shard_p50), "ms", "ShardTiming.wall_us"},
      {"ptperf.shard_ms_max", median(shard_max), "ms", "ShardTiming.wall_us"},
      {"ptperf.parallel_eff", median(parallel_eff), "ratio",
       "sum shard wall / (jobs x campaign wall)"},
      {"ptperf.engine_ms", median(engine_ms), "ms",
       "campaign wall - sum shard wall, jobs 1"},
      {"ptperf.scenario_build_ms", median(scenario_ms), "ms",
       "Scenario ctor, all shards"},
      {"ptperf.stack_build_ms", median(stack_ms), "ms",
       "TransportFactory::create, all shards"},
      {"ptperf.body_ms", body, "ms", "Campaign::run_*, all shards"},
      {"sim.events", events, "count", "EventLoop::events_executed"},
      {"sim.ns_per_event", body * 1e6 / std::max(events, 1.0), "ns", ""},
      {"sim.virtual_per_host_s", median(virtual_per_host), "s/s",
       "ShardTiming virtual / wall seconds"},
      {"sim.event_ns", u.event, "ns", "EventLoop schedule+dispatch"},
      {"tor.cells_relayed", cells, "count", ""},
      {"tor.data_cells", data_cells, "count", ""},
      {"tor.circuits", span_count("circuit_build"), "count",
       "circuit_build spans"},
      {"tor.ntor_hops", span_count("ntor_hop"), "count", "ntor_hop spans"},
      {"tor.ns_per_cell", body * 1e6 / std::max(cells, 1.0), "ns", ""},
      {"tor.onion3_ns", u.onion3, "ns", "3-hop RelayLayer crypt, 509 B"},
      {"tor.digest_ns", u.digest, "ns", "relay digest commit + check"},
      {"crypto.sha256_509_ns", u.sha256_509, "ns", ""},
      {"crypto.chacha20_512_ns", u.chacha20_512, "ns", ""},
      {"crypto.aead_cell_ns", u.aead_cell, "ns", "seal+open in place, 498 B"},
      {"crypto.aead_chunk_ns", u.aead_chunk, "ns",
       "seal+open in place, dnstt chunk " +
           std::to_string(dnstt_chunk_bytes()) + " B"},
      {"crypto.x25519_ns", u.x25519, "ns", ""},
      {"pt.wire_per_payload",
       pt_payload > 0
           ? static_cast<double>(replay->acct.wire_bytes) / pt_payload
           : 0,
       "ratio", "StackAccounting"},
      {"pt.framing_bytes", static_cast<double>(replay->acct.framing_bytes),
       "B", "StackAccounting"},
      {"pt.handshake_rtts", static_cast<double>(replay->acct.handshake_rtts),
       "count", "StackAccounting"},
      {"pt.dnstt_queries", counter("pt/dnstt_queries"), "count", ""},
      {"pt.meek_polls", counter("pt/meek_polls"), "count", ""},
      {"pt.upstream_tunnels", counter("pt/upstream_tunnels"), "count", ""},
      {"net.wire_bytes", static_cast<double>(replay->wire_bytes), "B",
       "Network::total_bytes_sent"},
      {"workload.fetches", counter("workload/fetches"), "count", ""},
      {"workload.http_bytes", counter("workload/http_bytes"), "B", ""},
      {"stats.report_ms", median(report_ms), "ms",
       "box rows + pairwise paired t-tests"},
      {"trace.overhead_frac", median(traced_wall) / untraced - 1, "ratio",
       quartiles(traced_wall, "s traced") + " vs " +
           quartiles(untraced_wall, "s untraced")},
      {"trace.spans", static_cast<double>(span_total), "count", ""},
      {"model.modeled_ms", modeled_ms, "ms",
       "MODELED: counts x unit costs, not measured"},
      {"model.residual_frac", 1 - modeled_ms / body, "ratio",
       "MODELED: share of body_ms outside crypto/tor/sim probes"},
  };
  std::printf("workload %s seed %" PRIu64 " jobs %d: %zu traced iterations, "
              "digest %s (untraced, traced, replay, jobs 1 checked)\n",
              w.name.c_str(), a.seed, w.jobs, untraced_wall.size(),
              hex(digest.value_or(0)).c_str());
  print_result(ledger.failed == 0, ledger.attempted, ledger.failed, metrics);
  return 0;
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "error: %s\nusage: ptperf_perfbench --workload "
               "bulk|browse|tunnel --seed N --seconds S --trace 0|1 "
               "[--size full|tiny]\n",
               msg.c_str());
  std::exit(2);
}

/// Whole decimal number, or exit 2.
std::uint64_t parse_u64(const std::string& flag, const std::string& s) {
  if (s.empty() || s.size() > 19 ||
      !std::all_of(s.begin(), s.end(), [](char c) { return c >= '0' && c <= '9'; }))
    usage_error(flag + " needs a whole number, got '" + s + "'");
  return std::strtoull(s.c_str(), nullptr, 10);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for '" + flag + "'");
    std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      std::uint64_t s = parse_u64(flag, value);
      if (s < 1 || s > 3600) usage_error("--seconds must be 1..3600");
      a.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace must be 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny")
        usage_error("--size must be full or tiny");
      a.tiny = value == "tiny";
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || a.trace < 0)
    usage_error("--workload, --seed, --seconds and --trace are required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = parse_args(argc, argv);
  Workload w;
  try {
    w = make_workload(a.workload, a.tiny);
  } catch (const std::invalid_argument& e) {
    usage_error(e.what());
  }
  return a.trace ? run_traced(w, a) : run_end_to_end(w, a);
}
