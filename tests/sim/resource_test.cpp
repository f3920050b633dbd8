#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ah::sim {
namespace {

using common::SimTime;

class ResourceTest : public ::testing::Test {
 protected:
  Simulator sim_;
};

TEST_F(ResourceTest, SingleJobCompletesAfterDemand) {
  Resource r(sim_, "r", {.servers = 1});
  SimTime done_at = SimTime::zero();
  r.submit(SimTime::millis(10), [&] { done_at = sim_.now(); });
  sim_.run();
  EXPECT_EQ(done_at, SimTime::millis(10));
  EXPECT_EQ(r.completed(), 1u);
}

TEST_F(ResourceTest, FifoQueueing) {
  Resource r(sim_, "r", {.servers = 1});
  std::vector<int> order;
  r.submit(SimTime::millis(10), [&] { order.push_back(1); });
  r.submit(SimTime::millis(5), [&] { order.push_back(2); });
  r.submit(SimTime::millis(1), [&] { order.push_back(3); });
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  // Sequential service: 10, then +5, then +1.
  EXPECT_EQ(sim_.now(), SimTime::millis(16));
}

TEST_F(ResourceTest, MultipleServersRunConcurrently) {
  Resource r(sim_, "r", {.servers = 2});
  int completed = 0;
  r.submit(SimTime::millis(10), [&] { ++completed; });
  r.submit(SimTime::millis(10), [&] { ++completed; });
  sim_.run();
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(sim_.now(), SimTime::millis(10));  // parallel, not 20
}

TEST_F(ResourceTest, QueueCapacityRejects) {
  Resource r(sim_, "r", {.servers = 1, .queue_capacity = 1});
  EXPECT_TRUE(r.submit(SimTime::millis(10), {}));   // in service
  EXPECT_TRUE(r.submit(SimTime::millis(10), {}));   // queued
  EXPECT_FALSE(r.submit(SimTime::millis(10), {}));  // rejected
  EXPECT_EQ(r.rejected(), 1u);
  sim_.run();
  EXPECT_EQ(r.completed(), 2u);
}

TEST_F(ResourceTest, SlowdownScalesServiceTime) {
  Resource r(sim_, "r", {.servers = 1, .queue_capacity = 100, .slowdown = 2.0});
  SimTime done_at = SimTime::zero();
  r.submit(SimTime::millis(10), [&] { done_at = sim_.now(); });
  sim_.run();
  EXPECT_EQ(done_at, SimTime::millis(20));
}

TEST_F(ResourceTest, SlowdownChangeAffectsNewJobsOnly) {
  Resource r(sim_, "r", {.servers = 1});
  std::vector<SimTime> done;
  r.submit(SimTime::millis(10), [&] { done.push_back(sim_.now()); });
  r.set_slowdown(3.0);
  r.submit(SimTime::millis(10), [&] { done.push_back(sim_.now()); });
  sim_.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], SimTime::millis(10));  // started before the change
  EXPECT_EQ(done[1], SimTime::millis(40));  // 10 + 10*3
}

TEST_F(ResourceTest, GrowServersStartsQueuedJobs) {
  Resource r(sim_, "r", {.servers = 1});
  int completed = 0;
  r.submit(SimTime::millis(10), [&] { ++completed; });
  r.submit(SimTime::millis(10), [&] { ++completed; });
  r.set_servers(2);  // second job starts immediately
  sim_.run();
  EXPECT_EQ(sim_.now(), SimTime::millis(10));
  EXPECT_EQ(completed, 2);
}

TEST_F(ResourceTest, ShrinkLetsRunningJobsFinish) {
  Resource r(sim_, "r", {.servers = 2});
  int completed = 0;
  r.submit(SimTime::millis(10), [&] { ++completed; });
  r.submit(SimTime::millis(10), [&] { ++completed; });
  r.set_servers(1);
  EXPECT_EQ(r.busy(), 2);  // both still in service
  r.submit(SimTime::millis(10), [&] { ++completed; });
  sim_.run();
  EXPECT_EQ(completed, 3);
  // Third job waits until both finish (t=10), runs on the 1 remaining
  // server until t=20.
  EXPECT_EQ(sim_.now(), SimTime::millis(20));
}

TEST_F(ResourceTest, BusyIntegralTracksUtilization) {
  Resource r(sim_, "r", {.servers = 2});
  r.submit(SimTime::millis(10), {});
  r.submit(SimTime::millis(10), {});
  sim_.run_until(SimTime::millis(20));
  // 2 servers busy for 10ms each = 20'000 server-us.
  EXPECT_EQ(r.busy_integral(), 20000);
}

TEST_F(ResourceTest, UtilizationSinceWindow) {
  Resource r(sim_, "r", {.servers = 1});
  const auto integral0 = r.busy_integral();
  const auto t0 = sim_.now();
  r.submit(SimTime::millis(5), {});
  sim_.run_until(SimTime::millis(10));
  EXPECT_NEAR(r.utilization_since(integral0, t0), 0.5, 1e-9);
}

TEST_F(ResourceTest, UtilizationZeroWindow) {
  Resource r(sim_, "r", {.servers = 1});
  EXPECT_EQ(r.utilization_since(0, sim_.now()), 0.0);
}

TEST_F(ResourceTest, QueueIntegralAccumulates) {
  Resource r(sim_, "r", {.servers = 1});
  r.submit(SimTime::millis(10), {});
  r.submit(SimTime::millis(10), {});  // queued for 10ms
  sim_.run();
  EXPECT_EQ(r.queue_integral(), 10000);
}

TEST_F(ResourceTest, ClearQueueDropsWaiters) {
  Resource r(sim_, "r", {.servers = 1});
  int completed = 0;
  r.submit(SimTime::millis(10), [&] { ++completed; });
  r.submit(SimTime::millis(10), [&] { ++completed; });
  r.submit(SimTime::millis(10), [&] { ++completed; });
  EXPECT_EQ(r.clear_queue(), 2u);
  sim_.run();
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(r.rejected(), 2u);
}

TEST_F(ResourceTest, EmptyCompletionAllowed) {
  Resource r(sim_, "r", {.servers = 1});
  r.submit(SimTime::millis(1), {});
  sim_.run();
  EXPECT_EQ(r.completed(), 1u);
}

TEST_F(ResourceTest, SubmitJobIdsAreMonotoneAndZeroMeansRejected) {
  Resource r(sim_, "r", {.servers = 1, .queue_capacity = 1});
  const Resource::JobId a = r.submit_job(SimTime::millis(1), {}, {});
  const Resource::JobId b = r.submit_job(SimTime::millis(1), {}, {});
  const Resource::JobId c = r.submit_job(SimTime::millis(1), {}, {});
  EXPECT_NE(a, 0u);
  EXPECT_LT(a, b);
  EXPECT_EQ(c, 0u);  // waiting line full: rejected
  EXPECT_EQ(r.rejected(), 1u);
}

TEST_F(ResourceTest, OnStartFiresAtServiceStartInstant) {
  Resource r(sim_, "r", {.servers = 1});
  SimTime first_start = SimTime::millis(-1);
  SimTime second_start = SimTime::millis(-1);
  r.submit_job(SimTime::millis(10), [&] { first_start = sim_.now(); }, {});
  // The idle server starts the job inside submit_job itself.
  EXPECT_EQ(first_start, SimTime::zero());
  r.submit_job(SimTime::millis(5), [&] { second_start = sim_.now(); }, {});
  EXPECT_EQ(second_start, SimTime::millis(-1));  // still queued
  sim_.run();
  EXPECT_EQ(second_start, SimTime::millis(10));
}

TEST_F(ResourceTest, OnStartOrdersAheadOfOwnCompletion) {
  // Events scheduled from the start hook at the job's own completion time
  // are pushed earlier, so they pop first.
  Resource r(sim_, "r", {.servers = 1});
  std::vector<int> order;
  r.submit_job(
      SimTime::millis(10),
      [&] { sim_.schedule(SimTime::millis(10), [&] { order.push_back(1); }); },
      [&] { order.push_back(2); });
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(ResourceTest, ExtendQueuedTailFoldsDemand) {
  Resource r(sim_, "r", {.servers = 1});
  SimTime done_at = SimTime::zero();
  r.submit(SimTime::millis(10), {});  // in service
  const Resource::JobId tail =
      r.submit_job(SimTime::millis(5), {}, [&] { done_at = sim_.now(); });
  EXPECT_TRUE(r.extend_queued_tail(tail, SimTime::millis(3)));
  sim_.run();
  // The merged job serves for the summed demand: 10 + (5 + 3).
  EXPECT_EQ(done_at, SimTime::millis(18));
  EXPECT_EQ(r.completed(), 2u);
}

TEST_F(ResourceTest, ExtendRefusesInServiceNonTailAndSentinel) {
  Resource r(sim_, "r", {.servers = 1, .queue_capacity = 4});
  const Resource::JobId head = r.submit_job(SimTime::millis(10), {}, {});
  EXPECT_FALSE(r.extend_queued_tail(head, SimTime::millis(1)));  // in service
  const Resource::JobId mid = r.submit_job(SimTime::millis(10), {}, {});
  const Resource::JobId tail = r.submit_job(SimTime::millis(10), {}, {});
  EXPECT_FALSE(r.extend_queued_tail(mid, SimTime::millis(1)));  // not the tail
  EXPECT_FALSE(r.extend_queued_tail(0, SimTime::millis(1)));    // sentinel
  EXPECT_TRUE(r.extend_queued_tail(tail, SimTime::millis(1)));
}

TEST_F(ResourceTest, ExtendRefusesWhenQueueAtCapacity) {
  // A fresh arrival would be rejected, so folding into the tail must be
  // refused too — batching cannot smuggle work past admission control.
  Resource r(sim_, "r", {.servers = 1, .queue_capacity = 1});
  r.submit(SimTime::millis(10), {});  // in service
  const Resource::JobId tail = r.submit_job(SimTime::millis(10), {}, {});
  EXPECT_FALSE(r.extend_queued_tail(tail, SimTime::millis(1)));
}

TEST_F(ResourceTest, ZeroDemandJobCompletesImmediately) {
  Resource r(sim_, "r", {.servers = 1});
  bool done = false;
  r.submit(SimTime::zero(), [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim_.now(), SimTime::zero());
}

TEST_F(ResourceTest, StartHookResubmittingKeepsEachCompletion) {
  // The start hook submits to the same Resource while the starting job's
  // completion is not yet parked; the nested job starts at once and takes
  // an in-service slot first.  Each completion must still fire exactly
  // once, for its own job, and freed slots must be reused correctly.
  Resource r(sim_, "r", {.servers = 3});
  std::vector<int> order;
  for (int round = 0; round < 3; ++round) {
    r.submit_job(
        SimTime::millis(10),
        [&] { r.submit(SimTime::millis(5), [&] { order.push_back(2); }); },
        [&] { order.push_back(1); });
    sim_.run();
  }
  EXPECT_EQ(order, (std::vector<int>{2, 1, 2, 1, 2, 1}));
  EXPECT_EQ(r.completed(), 6u);
  EXPECT_EQ(r.busy(), 0);
}

}  // namespace
}  // namespace ah::sim
