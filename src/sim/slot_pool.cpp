#include "sim/slot_pool.hpp"
#include "common/analysis.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

AH_HOT_PATH_FILE;

namespace ah::sim {

SlotPool::SlotPool(Simulator& sim, std::string name, Config config)
    : sim_(sim), name_(std::move(name)), config_(config),
      last_account_(sim.now()) {
  assert(config_.slots >= 0);
}

void SlotPool::account_now() {
  const common::SimTime now = sim_.now();
  const std::int64_t elapsed = (now - last_account_).as_micros();
  if (elapsed > 0) {
    busy_integral_ += static_cast<std::int64_t>(in_use_) * elapsed;
    last_account_ = now;
  }
}

bool SlotPool::acquire(Granted&& on_granted) {
  account_now();
  if (in_use_ < config_.slots) {
    ++in_use_;
    peak_in_use_ = std::max(peak_in_use_, in_use_);
    ++granted_;
    on_granted();
    return true;
  }
  if (waiters_.size() >= config_.queue_capacity) {
    ++rejected_;
    return false;
  }
  waiters_.push_back(std::move(on_granted));
  return true;
}

void SlotPool::release() {
  account_now();
  assert(in_use_ > 0);
  --in_use_;
  grant_next();
}

void SlotPool::set_slots(int slots) {
  assert(slots >= 0);
  account_now();
  config_.slots = slots;
  while (in_use_ < config_.slots && !waiters_.empty()) grant_next();
}

std::int64_t SlotPool::busy_integral() const {
  const_cast<SlotPool*>(this)->account_now();
  return busy_integral_;
}

double SlotPool::utilization_since(std::int64_t integral_at_t0,
                                   common::SimTime t0) const {
  const std::int64_t window = (sim_.now() - t0).as_micros();
  if (window <= 0 || config_.slots <= 0) return 0.0;
  return static_cast<double>(busy_integral() - integral_at_t0) /
         (static_cast<double>(config_.slots) * static_cast<double>(window));
}

std::size_t SlotPool::clear_waiters() {
  account_now();
  const std::size_t dropped = waiters_.size();
  rejected_ += dropped;
  waiters_.clear();
  return dropped;
}

void SlotPool::grant_next() {
  if (waiters_.empty() || in_use_ >= config_.slots) return;
  ++in_use_;
  peak_in_use_ = std::max(peak_in_use_, in_use_);
  ++granted_;
  // Deferred so a release() deep in a completion chain cannot reenter the
  // next holder's logic on the same stack.  Scheduling runs nothing, so
  // the waiter moves straight from the line into its queue node.
  sim_.schedule(common::SimTime::zero(), std::move(waiters_.front()));
  waiters_.pop_front();
}

}  // namespace ah::sim
