#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace ah::sim {
namespace {

using common::SimTime;

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(SimTime::millis(30), [&] { order.push_back(3); });
  q.push(SimTime::millis(10), [&] { order.push_back(1); });
  q.push(SimTime::millis(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.push(SimTime::millis(7), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(SimTime::millis(5), [] {});
  q.push(SimTime::millis(2), [] {});
  EXPECT_EQ(q.next_time(), SimTime::millis(2));
}

TEST(EventQueueTest, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(SimTime::millis(1), [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelTwiceIsNoop) {
  EventQueue q;
  const EventId id = q.push(SimTime::millis(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelFiredEventIsNoop) {
  EventQueue q;
  const EventId id = q.push(SimTime::millis(1), [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelUnknownIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(9999));
  EXPECT_FALSE(q.cancel(0));
}

TEST(EventQueueTest, CancelMiddleEventSkipsIt) {
  EventQueue q;
  std::vector<int> order;
  q.push(SimTime::millis(1), [&] { order.push_back(1); });
  const EventId mid = q.push(SimTime::millis(2), [&] { order.push_back(2); });
  q.push(SimTime::millis(3), [&] { order.push_back(3); });
  q.cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelHeadAdjustsNextTime) {
  EventQueue q;
  const EventId head = q.push(SimTime::millis(1), [] {});
  q.push(SimTime::millis(9), [] {});
  q.cancel(head);
  EXPECT_EQ(q.next_time(), SimTime::millis(9));
}

TEST(EventQueueTest, LiveSizeTracksCancellations) {
  EventQueue q;
  const EventId a = q.push(SimTime::millis(1), [] {});
  q.push(SimTime::millis(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, IdsAreNeverZero) {
  // 0 is the caller-side "no event" sentinel (see UtilizationMonitor).
  EventQueue q;
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(q.push(SimTime::millis(i), [] {}), 0u);
  }
}

TEST(EventQueueTest, StaleIdCannotCancelRecycledSlot) {
  EventQueue q;
  const EventId old_id = q.push(SimTime::millis(1), [] {});
  EXPECT_TRUE(q.cancel(old_id));
  // The slot is recycled, but the generation stamp differs.
  bool fired = false;
  const EventId new_id = q.push(SimTime::millis(2), [&] { fired = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueueTest, FiredIdCannotCancelRecycledSlot) {
  EventQueue q;
  const EventId fired_id = q.push(SimTime::millis(1), [] {});
  q.pop().fn();
  const EventId live_id = q.push(SimTime::millis(2), [] {});
  EXPECT_NE(fired_id, live_id);
  EXPECT_FALSE(q.cancel(fired_id));
  EXPECT_TRUE(q.cancel(live_id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelHeavyStressKeepsOrderAndCounts) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.push(SimTime::micros((i * 7919) % 1000), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    EXPECT_TRUE(q.cancel(ids[i]));
  }
  EXPECT_EQ(q.size(), 500u);
  SimTime last = SimTime::zero();
  std::size_t popped = 0;
  while (!q.empty()) {
    const auto entry = q.pop();
    EXPECT_GE(entry.time, last);
    last = entry.time;
    ++popped;
  }
  EXPECT_EQ(popped, 500u);
}

TEST(EventQueueTest, EqualTimeTiesAcrossBucketBoundaries) {
  // Tie groups pinned where the wheel changes gear: the last one-tick
  // bucket of a level-0 block, the first tick of the next block, level-2
  // and level-3 territory, and both sides of the overflow horizon.  Every
  // group must still pop in push order after the cascades that reach it.
  EventQueue q;
  const std::int64_t times[] = {255,        256,           65'535,
                                65'536,     16'777'216,    (1LL << 32) - 1,
                                (1LL << 32), (1LL << 32) + 7};
  std::vector<std::pair<std::int64_t, int>> order;
  std::vector<std::pair<std::int64_t, int>> expected;
  int seq = 0;
  // Round-robin across the times so each tie group's pushes interleave
  // with every other group's.
  for (int rep = 0; rep < 4; ++rep) {
    for (const std::int64_t t : times) {
      q.push(SimTime::micros(t),
             [&order, t, s = seq] { order.push_back({t, s}); });
      expected.push_back({t, seq});
      ++seq;
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, CancelInOverflowBucket) {
  // 5000 s = 5e9 µs, beyond the wheel's 2^32 µs span: the event sits in
  // the overflow list, where cancellation is lazy (reaped when reached).
  EventQueue q;
  std::vector<int> order;
  q.push(SimTime::seconds(1), [&] { order.push_back(1); });
  const EventId doomed = q.push(SimTime::seconds(5000), [&] { order.push_back(2); });
  q.push(SimTime::seconds(6000), [&] { order.push_back(3); });
  EXPECT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.cancel(doomed));
  EXPECT_FALSE(q.cancel(doomed));
  EXPECT_EQ(q.size(), 2u);         // excluded the moment cancel() returns
  EXPECT_EQ(q.stored_size(), 3u);  // but physically reaped only later
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(q.stored_size(), 0u);
}

TEST(EventQueueTest, SizeStaysExactUnderLazyCancellation) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(q.push(SimTime::micros(1000 + i), [] {}));
  }
  EXPECT_EQ(q.size(), 64u);
  EXPECT_EQ(q.stored_size(), 64u);
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    EXPECT_TRUE(q.cancel(ids[i]));
  }
  // size() is exact immediately; stored_size() still carries the
  // cancelled-but-unreaped debt.
  EXPECT_EQ(q.size(), 32u);
  EXPECT_EQ(q.stored_size(), 64u);
  std::size_t popped = 0;
  while (!q.empty()) {
    q.pop();
    ++popped;
    EXPECT_EQ(q.size(), 32u - popped);
  }
  EXPECT_EQ(popped, 32u);
  EXPECT_EQ(q.stored_size(), 0u);
}

TEST(EventQueueTest, RolloverCascadeStressMatchesReferenceModel) {
  // Randomized interleaving of push/cancel/pop against an exact reference
  // of the old binary heap's order: a set of (time, global push sequence)
  // pairs.  The delta mixture deliberately hits one-tick ties, level
  // boundaries, deep levels and the overflow horizon, and the final drain
  // walks the cursor across several 2^32 µs overflow epochs.
  EventQueue q;
  common::Rng rng(0xc0ffee);
  std::set<std::pair<std::int64_t, int>> ref;
  struct Pushed {
    EventId id;
    std::int64_t time;
    int seq;
  };
  std::vector<Pushed> pushed;
  std::vector<int> popped;
  int seq = 0;
  std::int64_t now = 0;
  for (int round = 0; round < 300; ++round) {
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t r = rng();
      std::int64_t delta = 0;
      switch (r % 5) {
        case 0: delta = static_cast<std::int64_t>((r >> 8) % 4); break;
        case 1: delta = 250 + static_cast<std::int64_t>((r >> 8) % 12); break;
        case 2: delta = static_cast<std::int64_t>((r >> 8) % (1u << 20)); break;
        case 3:
          delta = (1LL << 24) + static_cast<std::int64_t>((r >> 8) % 1024);
          break;
        case 4:
          delta = (1LL << 32) + static_cast<std::int64_t>((r >> 8) % 1000);
          break;
      }
      const std::int64_t t = now + delta;
      const int s = seq++;
      const EventId id =
          q.push(SimTime::micros(t), [&popped, s] { popped.push_back(s); });
      ref.insert({t, s});
      pushed.push_back(Pushed{id, t, s});
    }
    // Cancel a couple of arbitrary earlier pushes; a stale id (already
    // popped or already cancelled) must refuse, a live one must agree
    // with the reference.
    for (int i = 0; i < 2; ++i) {
      const Pushed& victim = pushed[rng() % pushed.size()];
      if (q.cancel(victim.id)) {
        EXPECT_EQ(ref.erase({victim.time, victim.seq}), 1u);
      } else {
        EXPECT_EQ(ref.count({victim.time, victim.seq}), 0u);
      }
    }
    for (int i = 0; i < 6 && !q.empty(); ++i) {
      ASSERT_FALSE(ref.empty());
      const auto expect = *ref.begin();
      ref.erase(ref.begin());
      auto entry = q.pop();
      ASSERT_EQ(entry.time.as_micros(), expect.first);
      entry.fn();
      ASSERT_EQ(popped.back(), expect.second);
      now = expect.first;
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  while (!q.empty()) {
    ASSERT_FALSE(ref.empty());
    const auto expect = *ref.begin();
    ref.erase(ref.begin());
    auto entry = q.pop();
    ASSERT_EQ(entry.time.as_micros(), expect.first);
    entry.fn();
    ASSERT_EQ(popped.back(), expect.second);
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(q.stored_size(), 0u);
}

TEST(EventQueueTest, ManyEventsStressOrder) {
  EventQueue q;
  // Insert times in a scrambled deterministic order.
  for (int i = 0; i < 1000; ++i) {
    const int t = (i * 7919) % 1000;
    q.push(SimTime::micros(t), [] {});
  }
  SimTime last = SimTime::zero();
  while (!q.empty()) {
    const auto entry = q.pop();
    EXPECT_GE(entry.time, last);
    last = entry.time;
  }
}

TEST(EventQueueTest, LoneNodeCascadePlacesNothingAtLevelsOneToThree) {
  // One event at a time, each alone in its bucket at level 1 (300 µs),
  // level 2 (70 ms) and level 3 (20 s) from the cursor.  The lone node
  // jumps straight to the ready list, so no cascade re-places it; a
  // bucket shared by two nodes still cascades level by level.
  EventQueue q;
  std::int64_t now = 0;
  std::uint64_t pushes = 0;
  for (const std::int64_t gap : {300, 70'000, 20'000'000}) {
    now += gap;
    q.push(SimTime::micros(now), [] {});
    ++pushes;
    EXPECT_EQ(q.pop().time.as_micros(), now);
    EXPECT_EQ(q.placements(), pushes) << "gap " << gap;
  }
  q.push(SimTime::micros(now + 301), [] {});
  q.push(SimTime::micros(now + 302), [] {});
  pushes += 2;
  EXPECT_EQ(q.pop().time.as_micros(), now + 301);
  EXPECT_EQ(q.pop().time.as_micros(), now + 302);
  EXPECT_GT(q.placements(), pushes);
}

TEST(EventQueueTest, SparseTimelineMatchesReferenceModel) {
  // A timeline as sparse as one simulated line: spacings from 300 µs to
  // 20 s, so most buckets at levels 1-3 hold a single node when they are
  // reached.  Random cancels, and windows that end early the way
  // Simulator::run_until does (pop_due refuses the next event, leaving the
  // cursor on that event's tick, ahead of `until`); the next window then
  // pushes events between `until` and that tick, i.e. behind the cursor.
  // Every pop must match the (time, push sequence) reference order.
  EventQueue q;
  common::Rng rng(0x5ca77e5);
  std::set<std::pair<std::int64_t, int>> ref;
  struct Pushed {
    EventId id;
    std::int64_t time;
    int seq;
  };
  std::vector<Pushed> pushed;
  std::vector<int> popped;
  int seq = 0;
  const auto push = [&](std::int64_t t) {
    const int s = seq++;
    const EventId id =
        q.push(SimTime::micros(t), [&popped, s] { popped.push_back(s); });
    ref.insert({t, s});
    pushed.push_back(Pushed{id, t, s});
  };
  const auto spacing = [&rng]() -> std::int64_t {
    const std::uint64_t r = rng();
    switch (r % 4) {
      case 0: return 300 + static_cast<std::int64_t>((r >> 8) % 700);
      case 1: return 1'000 + static_cast<std::int64_t>((r >> 8) % 99'000);
      case 2: return 100'000 + static_cast<std::int64_t>((r >> 8) % 3'400'000);
      default:
        return 15'000'000 + static_cast<std::int64_t>((r >> 8) % 5'000'001);
    }
  };
  const auto check_pop = [&](const EventQueue::Entry& entry) {
    ASSERT_FALSE(ref.empty());
    const auto expect = *ref.begin();
    ref.erase(ref.begin());
    ASSERT_EQ(entry.time.as_micros(), expect.first);
    ASSERT_EQ(popped.back(), expect.second);
  };
  std::int64_t now = 0;
  std::size_t behind_cursor = 0;
  for (int round = 0; round < 2000; ++round) {
    const int n = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < n; ++i) push(now + spacing());
    if (rng() % 3 == 0) {
      const Pushed& victim = pushed[rng() % pushed.size()];
      if (q.cancel(victim.id)) {
        EXPECT_EQ(ref.erase({victim.time, victim.seq}), 1u);
      } else {
        EXPECT_EQ(ref.count({victim.time, victim.seq}), 0u);
      }
    }
    const std::int64_t until = now + spacing() / 2;
    EventQueue::Entry entry{};
    while (q.pop_due(SimTime::micros(until), entry)) {
      entry.fn();
      check_pop(entry);
      if (HasFatalFailure()) return;
    }
    ASSERT_TRUE(ref.empty() || ref.begin()->first > until);
    if (!ref.empty() && round % 2 == 0) {
      // Between the early stop and the refused event's tick; a tie with
      // that event must pop after it.
      const std::int64_t next = ref.begin()->first;
      push(until + 1 + static_cast<std::int64_t>(
                           rng() % static_cast<std::uint64_t>(next - until)));
      ++behind_cursor;
    }
    now = until;
    ASSERT_EQ(q.size(), ref.size());
  }
  EXPECT_GT(behind_cursor, 500u);
  while (!q.empty()) {
    auto entry = q.pop();
    entry.fn();
    check_pop(entry);
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(q.stored_size(), 0u);
}

// Deterministic work-count gate (host-independent, like zero_alloc_test):
// wheel placements per push on a fixed seeded schedule shaped like one
// sparse simulated line.  200 browsers alternate a think time of up to
// 7 s with a 12-hop request (50-3000 µs per hop) guarded by a 15 s timeout
// that is cancelled when the request completes.  Every push is placed
// once; a cascade that re-places nodes adds to the count.  The figure is
// exact for the seed, so a change to the wheel's cascade work shows here:
// 134126 placements for 95794 pushes (1.40 per push), where re-placing a
// lone node at every level on its way down took 209758 (2.19 per push).
TEST(EventQueueGate, PlacementsPerPushOnSparseSchedule) {
  struct SparseLine {
    EventQueue q;
    common::Rng rng{0x5ba75e};
    std::vector<EventId> timeouts;
    std::uint64_t pushes = 0;
    std::int64_t now = 0;

    void push_in(std::int64_t delay, EventFn&& fn) {
      q.push(SimTime::micros(now + delay), std::move(fn));
      ++pushes;
    }
    void think(std::size_t browser) {
      push_in(static_cast<std::int64_t>(rng() % 7'000'000),
              [this, browser] { start(browser); });
    }
    void start(std::size_t browser) {
      timeouts[browser] = q.push(SimTime::micros(now + 15'000'000), [] {});
      ++pushes;
      hop(browser, 12);
    }
    void hop(std::size_t browser, int left) {
      if (left == 0) {
        q.cancel(timeouts[browser]);
        think(browser);
        return;
      }
      push_in(50 + static_cast<std::int64_t>(rng() % 2'951),
              [this, browser, left] { hop(browser, left - 1); });
    }
  };
  SparseLine line;
  line.timeouts.assign(200, 0);
  for (std::size_t b = 0; b < line.timeouts.size(); ++b) line.think(b);
  while (!line.q.empty() && line.now < 120'000'000) {
    auto entry = line.q.pop();
    line.now = entry.time.as_micros();
    entry.fn();
  }
  const double per_push = static_cast<double>(line.q.placements()) /
                          static_cast<double>(line.pushes);
  RecordProperty("placements_per_push", std::to_string(per_push));
  EXPECT_EQ(line.pushes, 95'794u);
  EXPECT_EQ(line.q.placements(), 134'126u);
}

}  // namespace
}  // namespace ah::sim
