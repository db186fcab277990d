// Reproduces Figure 4: fixed first hop (one host = own guard + private
// obfs4 server), middle and exit chosen freely per circuit by the default
// selection algorithm. Expected: vanilla Tor and obfs4 track each other
// site-by-site — middle/exit variety does not separate them, establishing
// that the first hop governs performance (§4.2.1).
#include "pt/fully_encrypted.h"

#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("Figure 4", "fixed guard, variable middle/exit: Tor vs obfs4", args);

  ScenarioConfig cfg;
  cfg.seed = args.seed;
  cfg.tranco_sites = scaled(40, args.scale, 10);
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);

  tor::RelayIndex shared_bridge = scenario.add_bridge(net::Region::kFrankfurt);

  pt::Obfs4Config ocfg;
  ocfg.client_host = scenario.client_host();
  ocfg.bridge = shared_bridge;
  // simlint: allow(transport-bypass) -- ablation pins the PT to a shared guard/bridge host the registry builders don't expose
  auto obfs4 = std::make_shared<pt::Obfs4Transport>(
      scenario.network(), scenario.consensus(), scenario.fork_rng("o4"), ocfg);

  auto make_stack = [&](const std::string& name,
                        bool use_obfs4) {
    auto client = scenario.make_tor_client(scenario.client_host());
    if (use_obfs4) client->set_first_hop_connector(obfs4->connector());
    tor::PathConstraints constraints;
    constraints.entry = shared_bridge;
    auto pool = std::make_shared<CircuitPool>(client, constraints);
    auto socks = std::make_shared<tor::TorSocksServer>(client, "socks-" + name);
    socks->set_circuit_provider(pool->provider());
    socks->start();
    auto fetcher =
        scenario.make_loopback_fetcher(scenario.client_host(), "socks-" + name);
    return std::tuple(client, pool, socks, fetcher);
  };

  auto [tor_client, tor_pool, tor_socks, tor_fetcher] =
      make_stack("tor", false);
  auto [o4_client, o4_pool, o4_socks, o4_fetcher] = make_stack("obfs4", true);

  sim::EventLoop& loop = scenario.loop();
  stats::Table per_site({"site", "tor_s", "obfs4_s"});
  std::vector<double> tor_times, o4_times;

  for (const workload::Website& site : scenario.tranco().sites()) {
    // Fresh circuit per site for both stacks (middle/exit re-picked);
    // pre-built as Tor does, so fetches measure stream time only.
    tor_pool->new_identity();
    o4_pool->new_identity();
    tor_pool->warm(loop);
    o4_pool->warm(loop);
    auto access = [&](workload::Fetcher& fetcher) {
      return loop
          .await<workload::FetchResult>([&](auto done) {
            fetcher.fetch(site.hostname, "/", sim::from_seconds(120), done);
          })
          .elapsed();
    };
    double t_tor = access(*tor_fetcher);
    double t_o4 = access(*o4_fetcher);

    if (t_tor >= 0 && t_o4 >= 0) {
      tor_times.push_back(t_tor);
      o4_times.push_back(t_o4);
      per_site.add_row({site.hostname, util::fmt_double(t_tor, 2),
                        util::fmt_double(t_o4, 2)});
    }
  }

  std::printf("-- Figure 4: per-site access time, fixed guard (s) --\n");
  emit(per_site, args, "fig4_per_site", args.verbose);
  stats::Table boxes(box_header());
  boxes.add_row(box_row("tor", tor_times));
  boxes.add_row(box_row("obfs4", o4_times));
  emit(boxes, args, "fig4_boxes");

  auto r = stats::paired_t_test(tor_times, o4_times);
  std::printf("tor vs obfs4 (expect non-significant): %s\n",
              stats::format_t_test(r).c_str());
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  namespace b = ptperf::bench;
  return b::run(b::parse_args(argc, argv, b::flag::kBasic));
}
