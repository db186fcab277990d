#include "sim/event_loop.h"

#include <limits>
#include <memory>

namespace ptperf::sim {

void EventHandle::cancel() {
  if (token_) *token_ = true;
}

EventHandle EventLoop::schedule(Duration delay, Callback fn) {
  if (delay < Duration::zero()) delay = Duration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle EventLoop::schedule_at(TimePoint when, Callback fn) {
  if (when < now_) when = now_;
  auto token = std::make_shared<bool>(false);
  queue_.push(Event{when, next_seq_++, std::move(fn), token});
  return EventHandle(token);
}

bool EventLoop::step() {
  while (!queue_.empty()) {
    const Event& top = queue_.top();
    Event ev{top.when, top.seq, std::move(const_cast<Event&>(top).fn),
             top.cancelled};
    queue_.pop();
    if (*ev.cancelled) continue;
    now_ = ev.when;
    ev.fn();
    ++executed_;
    return true;
  }
  return false;
}

bool EventLoop::run_until_done(const std::function<bool()>& done,
                               std::size_t max_events) {
  for (std::size_t i = 0; i < max_events; ++i) {
    if (done()) return true;
    if (!step()) return done();
  }
  return done();
}

void EventLoop::idle(Duration gap) {
  await<bool>([&](auto done) { schedule(gap, [done] { done(true); }); });
}

std::size_t EventLoop::run() {
  return run_until(TimePoint{std::numeric_limits<std::int64_t>::max()});
}

std::size_t EventLoop::run_until(TimePoint until) {
  std::size_t count = 0;
  while (!queue_.empty()) {
    const Event& top = queue_.top();
    if (top.when > until) break;
    // Move out before popping; callbacks may schedule more events.
    Event ev{top.when, top.seq, std::move(const_cast<Event&>(top).fn),
             top.cancelled};
    queue_.pop();
    if (*ev.cancelled) continue;
    now_ = ev.when;
    ev.fn();
    ++count;
    ++executed_;
  }
  if (now_ < until && until.ns != std::numeric_limits<std::int64_t>::max())
    now_ = until;
  return count;
}

}  // namespace ptperf::sim
