// Unit tests for the simulation kernel: deterministic RNG streams and the
// discrete-event loop's ordering guarantees.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/event_loop.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace ptperf::sim {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsolation) {
  // Forking by label yields streams that do not affect each other and are
  // reproducible from the same parent state.
  Rng parent1(7);
  Rng child_a = parent1.fork("a");
  Rng parent2(7);
  Rng child_a2 = parent2.fork("a");
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(child_a.next_u64(), child_a2.next_u64());

  Rng parent3(7);
  Rng child_b = parent3.fork("b");
  EXPECT_NE(child_b.next_u64(), Rng(7).fork("a").next_u64());
}

TEST(Rng, NextBelowRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(1), 0u);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, ParetoTailHeavierThanExponential) {
  Rng rng(23);
  int big = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (rng.pareto(1.0, 1.3) > 10.0) ++big;
  // P(X > 10) = 10^-1.3 ~ 0.05 for pareto; essentially 0 for exp(1).
  EXPECT_GT(big, n / 50);
  EXPECT_LT(big, n / 5);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(29);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (rng.zipf(1000, 1.0) < 10) ++low;
  // Zipf(s=1): P(rank < 10) ~ ln(10)/ln(1000) ~ 1/3.
  EXPECT_GT(low, n / 6);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.zipf(50, 0.8), 50u);
}

TEST(EventLoop, ExecutesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(from_millis(30), [&] { order.push_back(3); });
  loop.schedule(from_millis(10), [&] { order.push_back(1); });
  loop.schedule(from_millis(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().ns, from_millis(30).count());
}

TEST(EventLoop, FifoForSimultaneousEvents) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule(from_millis(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool fired = false;
  EventHandle h = loop.schedule(from_millis(1), [&] { fired = true; });
  h.cancel();
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, NestedScheduling) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.schedule(from_millis(1), recurse);
  };
  loop.schedule(from_millis(1), recurse);
  loop.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now().ns, 5 * from_millis(1).count());
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  for (int i = 1; i <= 10; ++i)
    loop.schedule(from_seconds(i), [&] { ++count; });
  loop.run_until(TimePoint{} + from_seconds(5));
  EXPECT_EQ(count, 5);
  EXPECT_TRUE(loop.pending());
  loop.run();
  EXPECT_EQ(count, 10);
}

TEST(EventLoop, RunUntilDonePredicate) {
  EventLoop loop;
  int count = 0;
  // Self-perpetuating event chain (like an idle-polling transport).
  std::function<void()> tick = [&] {
    ++count;
    loop.schedule(from_millis(10), tick);
  };
  loop.schedule(from_millis(10), tick);
  bool reached = loop.run_until_done([&] { return count >= 42; });
  EXPECT_TRUE(reached);
  EXPECT_EQ(count, 42);
}

TEST(EventLoop, AwaitReturnsReportedValueAtReportingEvent) {
  EventLoop loop;
  int later = 0;
  loop.schedule(from_seconds(5), [&] { ++later; });
  int value = loop.await<int>([&](auto done) {
    loop.schedule(from_seconds(3), [done] { done(42); });
  });
  EXPECT_EQ(value, 42);
  EXPECT_EQ(loop.now().ns, from_seconds(3).count());
  EXPECT_EQ(loop.events_executed(), 1u);
  EXPECT_EQ(later, 0);
  EXPECT_TRUE(loop.pending());
}

TEST(EventLoop, AwaitAcceptsReportInsideStart) {
  EventLoop loop;
  std::string value = loop.await<std::string>(
      [](const std::function<void(std::string)>& done) { done("now"); });
  EXPECT_EQ(value, "now");
  EXPECT_EQ(loop.events_executed(), 0u);
}

TEST(EventLoop, AwaitThrowsWhenQueueDrainsWithoutReport) {
  EventLoop loop;
  int ran = 0;
  loop.schedule(from_millis(1), [&] { ++ran; });
  EXPECT_THROW(loop.await<int>([](auto) {}), std::logic_error);
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(loop.pending());
}

TEST(EventLoop, IdleAdvancesExactlyGapWithOneEvent) {
  EventLoop loop;
  loop.schedule(from_seconds(1), [] {});
  loop.run();
  std::size_t before = loop.events_executed();
  loop.idle(from_seconds(2));
  EXPECT_EQ(loop.now().ns, from_seconds(3).count());
  EXPECT_EQ(loop.events_executed(), before + 1);
  EXPECT_FALSE(loop.pending());

  // Events due inside the gap run; events past it stay queued.
  int inside = 0, past = 0;
  loop.schedule(from_millis(500), [&] { ++inside; });
  loop.schedule(from_seconds(2), [&] { ++past; });
  loop.idle(from_seconds(1));
  EXPECT_EQ(loop.now().ns, from_seconds(4).count());
  EXPECT_EQ(loop.events_executed(), before + 3);
  EXPECT_EQ(inside, 1);
  EXPECT_EQ(past, 0);
  EXPECT_TRUE(loop.pending());
}

TEST(EventLoop, StepSingleEvent) {
  EventLoop loop;
  int count = 0;
  loop.schedule(from_millis(1), [&] { ++count; });
  loop.schedule(from_millis(2), [&] { ++count; });
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(loop.step());
  EXPECT_FALSE(loop.step());
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, NegativeDelayClampsToNow) {
  EventLoop loop;
  loop.schedule(from_seconds(1), [] {});
  loop.run();
  bool fired = false;
  loop.schedule(Duration(-5000), [&] { fired = true; });
  loop.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.now().ns, from_seconds(1).count());
}

TEST(Time, Conversions) {
  EXPECT_EQ(to_seconds(from_seconds(2.5)), 2.5);
  EXPECT_EQ(to_millis(from_millis(125)), 125);
  TimePoint t{};
  t += from_seconds(1);
  EXPECT_EQ(seconds_since_start(t), 1.0);
  EXPECT_EQ(format_duration(from_seconds(2.0)), "2.00s");
  EXPECT_EQ(format_duration(from_millis(1.5)), "1.5ms");
}

}  // namespace
}  // namespace ptperf::sim
