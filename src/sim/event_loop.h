// Discrete-event scheduler. Everything time-dependent in the simulated
// network (link transmissions, handshake timers, rate-limit refills,
// failure hazards) is an event on this queue.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "sim/time.h"

namespace ptperf::trace {
class Recorder;
}  // namespace ptperf::trace

namespace ptperf::sim {

class EventLoop;

/// Handle for cancelling a scheduled event.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired. Safe to call repeatedly and
  /// after the loop finished.
  void cancel();
  bool valid() const { return token_ != nullptr; }

 private:
  friend class EventLoop;
  explicit EventHandle(std::shared_ptr<bool> token) : token_(std::move(token)) {}
  std::shared_ptr<bool> token_;  // *token == true means cancelled
};

class EventLoop {
 public:
  using Callback = std::function<void()>;

  TimePoint now() const { return now_; }

  /// Schedules `fn` to run at now() + delay. Negative delays are clamped
  /// to zero (run "immediately", but still via the queue to preserve
  /// causal ordering).
  EventHandle schedule(Duration delay, Callback fn);
  EventHandle schedule_at(TimePoint when, Callback fn);

  /// Runs until the queue is empty or `until` (if nonzero) is reached.
  /// Returns the number of events executed.
  std::size_t run();
  std::size_t run_until(TimePoint until);

  /// Executes the next event; false if the queue is empty. Lets callers
  /// run until an external condition holds (needed because idle-polling
  /// transports keep the queue non-empty forever).
  bool step();

  /// Steps until `done()` returns true, the queue drains, or `max_events`
  /// is exceeded. Returns whether done() became true.
  bool run_until_done(const std::function<bool()>& done,
                      std::size_t max_events = 500'000'000);

  /// Blocks the caller in virtual time on one asynchronous result: calls
  /// `start(done)`, steps until `done(T)` has run, and returns the value.
  /// `done` may run inside `start`. Throws std::logic_error if the queue
  /// drains first, since the result can then never arrive.
  template <typename T, typename Start>
  T await(Start start) {
    auto result = std::make_shared<std::optional<T>>();
    start([result](T value) { *result = std::move(value); });
    while (!*result) {
      if (!step())
        throw std::logic_error("EventLoop::await: queue drained with no result");
    }
    return std::move(**result);
  }

  /// Lets `gap` of virtual time pass: schedules one event `gap` ahead that
  /// does nothing but end the wait, and steps until it has run, so
  /// everything due before it runs too.
  void idle(Duration gap);

  /// True if events remain.
  bool pending() const { return !queue_.empty(); }

  std::size_t events_executed() const { return executed_; }

  /// The world's flight recorder, or nullptr when tracing is off. The
  /// loop is the one object every time-dependent component already holds,
  /// so it doubles as the recorder's well-known location; the recorder
  /// registers/unregisters itself (trace::Recorder ctor/dtor). Purely an
  /// observer — the loop never calls into it.
  trace::Recorder* recorder() const { return recorder_; }
  void set_recorder(trace::Recorder* r) { recorder_ = r; }

 private:
  struct Event {
    TimePoint when;
    std::uint64_t seq;  // FIFO tiebreak for simultaneous events
    Callback fn;
    std::shared_ptr<bool> cancelled;

    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  trace::Recorder* recorder_ = nullptr;
};

}  // namespace ptperf::sim
