// Queueing resource: k identical servers in front of a FIFO queue.
//
// This is the primitive from which every hardware and software bottleneck in
// the cluster model is built: CPU cores, disk spindles, NIC links, database
// connection slots, and servlet/AJP thread pools are all Resources with
// different capacities and service demands.  Contention, saturation and the
// latency knees that the Active Harmony tuner exploits all emerge from the
// queueing behaviour here rather than from hand-authored response curves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/analysis.hpp"
#include "common/inline_function.hpp"
#include "common/ring_buffer.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

AH_HOT_PATH_FILE;

namespace ah::sim {

class Resource {
 public:
  /// Callback invoked when a job finishes service.  Capacity 16: hot-path
  /// callers park per-request state in a pooled struct and capture a single
  /// pointer, so a waiting Job stays small (sizeof(Completion) = 32: the
  /// buffer plus the invoke and manager pointers).  While its job is in
  /// service the Completion waits in a per-Resource slot, and the scheduled
  /// completion event captures only [this, slot]: a trivially copyable
  /// 16-byte closure that moves through the event queue as a buffer copy.
  /// Oversized captures (tests) fall back to the heap and still work.
  using Completion = common::InlineFunction<void(), 16>;

  struct Config {
    int servers = 1;
    /// Jobs admitted to the waiting line beyond the ones in service.
    /// Arrivals past this are rejected.  Unlimited by default.
    std::size_t queue_capacity = static_cast<std::size_t>(-1);
    /// Service-time multiplier (>1 = slower).  Lets node speed and software
    /// overheads scale demands without touching every call site.
    double slowdown = 1.0;
  };

  Resource(Simulator& sim, std::string name, Config config);

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Handle for a submitted job; 0 is the "no job / rejected" sentinel.
  /// Monotonic per Resource, never reused.
  using JobId = std::uint64_t;

  /// Submits a job with the given service demand.  Returns false (and drops
  /// the job) when the waiting line is full.  `on_complete` fires when the
  /// job finishes service.
  bool submit(common::SimTime demand, Completion&& on_complete);

  /// Like submit(), but returns the job's id (0 when rejected) and fires
  /// `on_start` at the instant the job enters service — before any of its
  /// service time elapses.  Callers use the start signal to anchor derived
  /// schedules (e.g. the network layer timestamps batched deliveries off
  /// the serialization start).
  JobId submit_job(common::SimTime demand, Completion&& on_start,
                   Completion&& on_complete);

  /// Folds `extra` service demand into job `job` iff it is the tail of the
  /// waiting line (not yet started).  Returns false — and folds nothing —
  /// when the job is unknown, already in service, not the tail, or when a
  /// fresh arrival would have been rejected (waiting line at capacity), so
  /// a successful extend is observationally identical to a back-to-back
  /// submit of a second job: the server stays busy for the summed demand.
  bool extend_queued_tail(JobId job, common::SimTime extra);

  /// Changes the number of servers.  Growth starts queued jobs immediately;
  /// shrink lets in-service jobs finish (capacity drops as they complete).
  void set_servers(int servers);

  /// Changes the service-time multiplier for jobs that start from now on.
  void set_slowdown(double slowdown);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int servers() const { return config_.servers; }
  [[nodiscard]] int busy() const { return busy_; }
  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] double slowdown() const { return config_.slowdown; }

  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }

  /// Integral of busy servers over time (server·µs).  Utilization over a
  /// window [t0, t1] with capacity k is
  ///   (busy_integral(t1) - busy_integral(t0)) / (k * (t1 - t0)).
  [[nodiscard]] std::int64_t busy_integral() const;

  /// Convenience: utilization in [0, 1+] since the given reference point
  /// (pass a snapshot of busy_integral() and the snapshot time).
  [[nodiscard]] double utilization_since(std::int64_t integral_at_t0,
                                         common::SimTime t0) const;

  /// Integral of waiting-line length over time (job·µs), for mean queue
  /// length readings.
  [[nodiscard]] std::int64_t queue_integral() const;

  /// Drops all waiting jobs (in-service jobs finish).  Used when a node is
  /// drained for reconfiguration.  Returns the number of dropped jobs.
  std::size_t clear_queue();

 private:
  struct Job {
    common::SimTime demand = common::SimTime::zero();
    JobId id = 0;
    Completion on_start;
    Completion on_complete;
  };

  /// Folds elapsed time into the busy/queue integrals.
  void account_now();
  /// Starts queued jobs while servers are available.
  void start_pending();
  void start_service(common::SimTime demand, Completion&& on_start,
                     Completion&& on_complete);
  void on_service_done(std::uint32_t slot);

  Simulator& sim_;
  std::string name_;
  Config config_;

  int busy_ = 0;
  common::RingBuffer<Job> queue_;
  JobId next_job_id_ = 1;
  /// Completions of the jobs in service, indexed by the slot their
  /// completion event carries; freed slots are reused LIFO.  Both vectors
  /// grow to the peak in-service count and then stop allocating.
  std::vector<Completion> in_service_;
  std::vector<std::uint32_t> free_slots_;

  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;

  mutable std::int64_t busy_integral_ = 0;
  mutable std::int64_t queue_integral_ = 0;
  mutable common::SimTime last_account_ = common::SimTime::zero();
};

}  // namespace ah::sim
