#include "sim/event_queue.hpp"
#include "common/analysis.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

AH_HOT_PATH_FILE;

namespace ah::sim {

EventId EventQueue::push(common::SimTime time, EventFn&& fn) {
  std::uint32_t n;
  if (!free_slots_.empty()) {
    n = free_slots_.back();
    free_slots_.pop_back();
  } else {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{});
  }
  Node& node = nodes_[n];
  node.time = time;
  node.fn = std::move(fn);
  node.next = kNil;
  node.cancelled = false;
  const EventId id = (static_cast<EventId>(node.generation) << 32) | n;
  ++live_count_;
  ++stored_count_;
  place(n);
  return id;
}

bool EventQueue::cancel(EventId id) {
  // Only events still pending can be cancelled; already-fired or already-
  // cancelled ids are a no-op so callers need not track event lifetimes.
  if (!is_live(id)) return false;
  Node& node = nodes_[slot_of(id)];
  // Generation wrap after 2^32 reuses of one slot is accepted: a caller
  // would need to hold an id across four billion pushes into the same slot
  // to see a false match.
  ++node.generation;  // the id dies now; the slot itself recycles at reap
  node.cancelled = true;
  --live_count_;
  return true;
}

void EventQueue::append(List& list, std::uint32_t n) {
  nodes_[n].next = kNil;
  if (list.tail == kNil) {
    list.head = n;
  } else {
    nodes_[list.tail].next = n;
  }
  list.tail = n;
}

void EventQueue::place(std::uint32_t n) {
  ++placements_;
  const std::uint64_t tick = tick_of(nodes_[n].time);
  if (tick <= cursor_) {
    // At or behind the drain point (same-tick reschedules, or pushes after
    // the cursor peeked ahead of virtual time): joins the ready list.
    ready_insert(n);
    return;
  }
  // The level is the highest digit (base 2^kBucketBits) in which the tick
  // differs from the cursor: all higher digits match, so the bucket is
  // reached before any cascade could disturb it.
  const std::uint64_t diff = tick ^ cursor_;
  const std::size_t level =
      (static_cast<std::size_t>(std::bit_width(diff)) - 1) / kBucketBits;
  if (level >= kLevels) {
    append(overflow_, n);
    return;
  }
  const std::size_t idx = static_cast<std::size_t>(
      (tick >> (level * kBucketBits)) & kIndexMask);
  Wheel& wheel = wheels_[level];
  append(wheel.buckets[idx], n);
  wheel.occupied[idx >> 6] |= std::uint64_t{1} << (idx & 63);
}

void EventQueue::ready_insert(std::uint32_t n) {
  const common::SimTime t = nodes_[n].time;
  if (ready_.tail == kNil || nodes_[ready_.tail].time <= t) {
    append(ready_, n);  // common case: at or after every queued time
    return;
  }
  // Walk to the first strictly-later node (upper bound), so same-time
  // events keep push order.  Rare path: only pushes that land behind an
  // already-loaded ready list get here, and that list spans one tick.
  std::uint32_t prev = kNil;
  std::uint32_t cur = ready_.head;
  while (cur != kNil && nodes_[cur].time <= t) {
    prev = cur;
    cur = nodes_[cur].next;
  }
  assert(cur != kNil);  // the tail is strictly later, so we stop before it
  nodes_[n].next = cur;
  if (prev == kNil) {
    ready_.head = n;
  } else {
    nodes_[prev].next = n;
  }
}

void EventQueue::ensure_ready() {
  for (;;) {
    while (ready_.head != kNil && nodes_[ready_.head].cancelled) {
      // Reap a lazily-cancelled node: release its closure eagerly and
      // return the slot to the free list.
      const std::uint32_t n = ready_.head;
      ready_.head = nodes_[n].next;
      if (ready_.head == kNil) ready_.tail = kNil;
      nodes_[n].fn = EventFn{};
      free_slots_.push_back(n);
      --stored_count_;
    }
    if (ready_.head != kNil) return;
    if (!advance()) return;  // nothing stored; callers' preconditions apply
  }
}

common::SimTime EventQueue::next_time() {
  ensure_ready();
  assert(ready_.head != kNil);
  return nodes_[ready_.head].time;
}

EventQueue::Entry EventQueue::pop() {
  Entry entry{};
  [[maybe_unused]] const bool popped =
      pop_due(common::SimTime::max(), entry);
  assert(popped);
  return entry;
}

bool EventQueue::pop_due(common::SimTime until, Entry& out) {
  if (live_count_ == 0) return false;
  ensure_ready();
  const std::uint32_t n = ready_.head;
  Node& node = nodes_[n];
  if (node.time > until) return false;
  ready_.head = node.next;
  if (ready_.head == kNil) ready_.tail = kNil;
  out.time = node.time;
  out.id = (static_cast<EventId>(node.generation) << 32) | n;
  out.fn = std::move(node.fn);
  ++node.generation;  // retire the id; the slot is free for reuse
  free_slots_.push_back(n);
  --live_count_;
  --stored_count_;
  return true;
}

bool EventQueue::advance() {
  assert(ready_.head == kNil);
  for (;;) {
    // Level 0: the next populated one-tick bucket in the current 256-tick
    // block.  Buckets at or below the cursor's digit are empty (drained or
    // never fillable), so the scan starts one past it.
    if (const int idx = next_occupied(0, (cursor_ & kIndexMask) + 1);
        idx >= 0) {
      const auto b = static_cast<std::size_t>(idx);
      cursor_ = (cursor_ & ~kIndexMask) | static_cast<std::uint64_t>(idx);
      Wheel& wheel = wheels_[0];
      ready_ = wheel.buckets[b];  // whole-list splice: one tick's FIFO run
      wheel.buckets[b] = List{};
      wheel.occupied[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
      return true;
    }
    // Block exhausted: cascade one bucket down from the lowest populated
    // higher level.  Redistributing in stored order into provably-empty
    // child buckets preserves FIFO ties end to end.
    bool cascaded = false;
    for (std::size_t level = 1; level < kLevels; ++level) {
      const std::uint64_t cur =
          (cursor_ >> (level * kBucketBits)) & kIndexMask;
      const int idx = next_occupied(level, cur + 1);
      if (idx < 0) continue;
      const auto b = static_cast<std::size_t>(idx);
      Wheel& wheel = wheels_[level];
      std::uint32_t n = wheel.buckets[b].head;
      const bool lone = n == wheel.buckets[b].tail;
      wheel.buckets[b] = List{};
      wheel.occupied[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
      if (lone) {
        // Every lower level is empty, so a lone node is the earliest one
        // stored: the descent would end with the cursor on its tick and
        // the node alone in the ready list.  Go there directly.
        cursor_ = tick_of(nodes_[n].time);
        append(ready_, n);
        return true;
      }
      const std::uint64_t block_mask = ~std::uint64_t{0}
                                       << ((level + 1) * kBucketBits);
      cursor_ = (cursor_ & block_mask) |
                (static_cast<std::uint64_t>(idx) << (level * kBucketBits));
      while (n != kNil) {
        const std::uint32_t next = nodes_[n].next;
        place(n);
        n = next;
      }
      cascaded = true;
      break;
    }
    if (cascaded) {
      // Nodes whose tick equals the new cursor landed in the ready list
      // and must pop before anything the level-0 scan would find.
      if (ready_.head != kNil) return true;
      continue;
    }
    if (overflow_.head == kNil) return false;
    drain_overflow_epoch();
    if (ready_.head != kNil) return true;
  }
}

void EventQueue::drain_overflow_epoch() {
  constexpr std::size_t kEpochShift = kLevels * kBucketBits;  // 32
  std::uint64_t min_tick = ~std::uint64_t{0};
  for (std::uint32_t n = overflow_.head; n != kNil; n = nodes_[n].next) {
    min_tick = std::min(min_tick, tick_of(nodes_[n].time));
  }
  // Overflow nodes always live in epochs strictly beyond the cursor's, so
  // jumping to the epoch base only moves the cursor forward.
  const std::uint64_t epoch = min_tick >> kEpochShift;
  cursor_ = epoch << kEpochShift;
  // Stable split: the epoch's nodes re-place into the wheels in stored
  // order; later epochs keep their order for the next drain.
  std::uint32_t n = overflow_.head;
  overflow_ = List{};
  while (n != kNil) {
    const std::uint32_t next = nodes_[n].next;
    if (tick_of(nodes_[n].time) >> kEpochShift == epoch) {
      place(n);
    } else {
      append(overflow_, n);
    }
    n = next;
  }
}

int EventQueue::next_occupied(std::size_t level, std::uint64_t from) const {
  if (from >= kBuckets) return -1;
  const auto& occupied = wheels_[level].occupied;
  std::size_t word = static_cast<std::size_t>(from >> 6);
  std::uint64_t bits = occupied[word] & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    if (bits != 0) {
      return static_cast<int>(
          (word << 6) | static_cast<std::size_t>(std::countr_zero(bits)));
    }
    if (++word >= occupied.size()) return -1;
    bits = occupied[word];
  }
}

}  // namespace ah::sim
