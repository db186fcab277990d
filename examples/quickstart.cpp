// Quickstart: stand up a simulated Tor network, connect through obfs4,
// and fetch one website — the smallest end-to-end use of the library.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "ptperf/campaign.h"

int main() {
  using namespace ptperf;

  // 1. A world: relays, consensus, a web server with the Tranco corpus,
  //    and a client host in London.
  ScenarioConfig config;
  config.seed = 2023;
  config.tranco_sites = 10;
  Scenario scenario(config);

  // 2. A transport: obfs4 with its bridge, wired into a Tor client, a
  //    local SOCKS listener and a curl-style fetcher.
  TransportFactory factory(scenario);
  PtStack obfs4 = factory.create(PtId::kObfs4);

  // 3. Fetch a page through SOCKS -> obfs4 tunnel -> 3-hop circuit.
  const workload::Website& site = scenario.tranco().sites()[0];
  std::printf("fetching http://%s/ (%zu bytes) through %s...\n",
              site.hostname.c_str(), site.default_page_bytes,
              obfs4.name().c_str());

  //    await() runs virtual time until the fetch reports its result.
  auto fetch = [&](PtStack& stack) {
    return scenario.loop().await<workload::FetchResult>([&](auto done) {
      stack.fetcher->fetch(site.hostname, "/", sim::from_seconds(120), done);
    });
  };
  workload::FetchResult r = fetch(obfs4);
  if (r.success) {
    std::printf("done: %zu bytes in %.2fs (TTFB %.2fs)\n", r.received_bytes,
                r.elapsed(), r.ttfb());
  } else {
    std::printf("failed: %s\n", r.error.c_str());
  }

  // Bonus: the same fetch over vanilla Tor for comparison.
  PtStack tor = factory.create_vanilla();
  r = fetch(tor);
  if (r.success)
    std::printf("vanilla Tor for comparison: %.2fs\n", r.elapsed());
  return 0;
}
