#include "sim/resource.hpp"
#include "common/analysis.hpp"

#include <cassert>
#include <utility>

AH_HOT_PATH_FILE;

namespace ah::sim {

Resource::Resource(Simulator& sim, std::string name, Config config)
    : sim_(sim), name_(std::move(name)), config_(config),
      last_account_(sim.now()) {
  assert(config_.servers >= 0);
  assert(config_.slowdown > 0.0);
}

void Resource::account_now() {
  const common::SimTime now = sim_.now();
  const std::int64_t elapsed = (now - last_account_).as_micros();
  if (elapsed > 0) {
    busy_integral_ += static_cast<std::int64_t>(busy_) * elapsed;
    queue_integral_ +=
        static_cast<std::int64_t>(queue_.size()) * elapsed;
    last_account_ = now;
  }
}

bool Resource::submit(common::SimTime demand, Completion&& on_complete) {
  return submit_job(demand, {}, std::move(on_complete)) != 0;
}

Resource::JobId Resource::submit_job(common::SimTime demand,
                                     Completion&& on_start,
                                     Completion&& on_complete) {
  account_now();
  const JobId id = next_job_id_++;
  if (busy_ < config_.servers) {
    start_service(demand, std::move(on_start), std::move(on_complete));
    return id;
  }
  if (queue_.size() >= config_.queue_capacity) {
    ++rejected_;
    return 0;
  }
  queue_.push_back(Job{demand, id, std::move(on_start), std::move(on_complete)});
  return id;
}

bool Resource::extend_queued_tail(JobId job, common::SimTime extra) {
  if (job == 0 || queue_.empty() || queue_.back().id != job) return false;
  // A fresh arrival would be rejected right now, so folding more work into
  // the tail would smuggle it past the admission check.
  if (queue_.size() >= config_.queue_capacity) return false;
  queue_.back().demand += extra;
  return true;
}

void Resource::set_servers(int servers) {
  assert(servers >= 0);
  account_now();
  config_.servers = servers;
  start_pending();
}

void Resource::set_slowdown(double slowdown) {
  assert(slowdown > 0.0);
  config_.slowdown = slowdown;
}

std::int64_t Resource::busy_integral() const {
  const_cast<Resource*>(this)->account_now();
  return busy_integral_;
}

double Resource::utilization_since(std::int64_t integral_at_t0,
                                   common::SimTime t0) const {
  const std::int64_t window = (sim_.now() - t0).as_micros();
  if (window <= 0 || config_.servers <= 0) return 0.0;
  const std::int64_t busy_time = busy_integral() - integral_at_t0;
  return static_cast<double>(busy_time) /
         (static_cast<double>(config_.servers) * static_cast<double>(window));
}

std::int64_t Resource::queue_integral() const {
  const_cast<Resource*>(this)->account_now();
  return queue_integral_;
}

std::size_t Resource::clear_queue() {
  account_now();
  const std::size_t dropped = queue_.size();
  rejected_ += dropped;
  queue_.clear();
  return dropped;
}

void Resource::start_pending() {
  while (busy_ < config_.servers && !queue_.empty()) {
    Job job = queue_.take_front();
    start_service(job.demand, std::move(job.on_start),
                  std::move(job.on_complete));
  }
}

void Resource::start_service(common::SimTime demand, Completion&& on_start,
                             Completion&& on_complete) {
  ++busy_;
  const common::SimTime service = demand * config_.slowdown;
  // The start signal fires before the completion event is scheduled, so a
  // start hook observes the queue state of the exact service-start instant
  // and any events it schedules order ahead of this job's completion.
  if (on_start) on_start();
  // Parked only after the start hook ran: a hook that submits to this
  // Resource again may grow in_service_.
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_service_.size());
    in_service_.push_back(std::move(on_complete));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    in_service_[slot] = std::move(on_complete);
  }
  auto finish = [this, slot] { on_service_done(slot); };
  static_assert(EventFn::relocates_trivially<decltype(finish)>(),
                "service-completion closure must move as a buffer copy");
  sim_.schedule(service, std::move(finish));
}

void Resource::on_service_done(std::uint32_t slot) {
  // Taken out before start_pending() can hand the slot to the next job.
  Completion on_complete = std::move(in_service_[slot]);
  free_slots_.push_back(slot);
  account_now();
  --busy_;
  ++completed_;
  start_pending();
  if (on_complete) on_complete();
}

}  // namespace ah::sim
