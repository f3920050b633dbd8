// Pending-event set for the discrete-event simulator.
//
// A hierarchical calendar queue (timer wheel): four levels of 256 buckets
// whose widths grow by a factor of 256 per level, so one structure spans
// 2^32 µs (~71 minutes) of future time at O(1) amortised push/pop; events
// beyond that horizon wait in an overflow list that is folded back in one
// 2^32 µs epoch at a time.  A cursor tracks the tick (µs) the queue has
// drained up to; the ready list holds the events of the cursor's tick in
// FIFO order.  When it empties, the level-0 occupancy bitmap yields the
// next populated one-tick bucket directly, and when a 256-tick block is
// exhausted a bucket from the lowest-populated higher level cascades down.
// A cascaded bucket that holds a single node (the common case on a sparse
// timeline: about one event per 300 µs per line leaves most buckets with
// one node) skips the descent: every lower level is empty, so that node is
// the earliest one stored, and the cursor jumps straight to its tick with
// the node as the whole ready list — the state the level-by-level descent
// would reach, without re-placing it at each level on the way down.
//
// Storage is a single slab of nodes that doubles as the id slot table;
// buckets, the ready run and the overflow are intrusive singly-linked
// lists threaded through the slab.  Moving an event between levels is a
// pointer splice — the closure payload never moves — and once the slab has
// grown to the peak event population the queue performs no heap
// allocation at all, no matter which buckets future times touch.
//
// Determinism: equal-time events pop in push order.  The wheel preserves
// this without sequence numbers because every list involved is append-only
// in push order — a bucket receives nodes either from `push` (later pushes
// append later) or from a cascade, which distributes a single parent
// bucket's nodes in their stored order into child buckets that are
// provably empty at that moment.  Pop order is therefore byte-identical to
// the previous (time, sequence) binary heap.  Cancellation is lazy:
// cancelled nodes are reaped when their tick is reached, which keeps the
// hot path free of structural repair.
//
// Event ids are generation-stamped slot handles: the low 32 bits index the
// slab, the high 32 bits carry that slot's generation at push time.
// cancel() is then a single array probe (no hash set), and a recycled slot
// can never be confused with the event that used it before — the stale
// id's generation no longer matches.  Closures are stored in a
// small-buffer-optimised InlineFunction, so scheduling a typical
// `[this, ...]` capture performs no heap allocation, and a trivially
// copyable one costs one buffer copy into its node and one out at pop.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/analysis.hpp"
#include "common/inline_function.hpp"
#include "common/units.hpp"

AH_HOT_PATH_FILE;

namespace ah::sim {

using EventId = std::uint64_t;
/// Event closures up to 48 bytes are stored inline (move-only).  SBO is
/// *required*: an oversized capture is a compile error, never a silent
/// per-event heap allocation.
using EventFn =
    common::InlineFunction<void(), 48, common::SboPolicy::kRequired>;

class EventQueue {
 public:
  struct Entry {
    common::SimTime time;
    EventId id;
    EventFn fn;
  };

  /// Inserts an event; returns its id (usable with `cancel`).  Ids are
  /// never zero, so 0 is safe as a caller-side "no event" sentinel.
  EventId push(common::SimTime time, EventFn&& fn);

  /// Marks an event as cancelled.  Returns false when the id is unknown or
  /// already fired (cancelling those is a no-op, not an error).
  bool cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_count_ == 0; }

  /// Time of the earliest live event.  Precondition: !empty().
  [[nodiscard]] common::SimTime next_time();

  /// Removes and returns the earliest live event.  Precondition: !empty().
  Entry pop();

  /// Moves the earliest live event into `out` and returns true when one is
  /// due at or before `until`; otherwise leaves `out` alone and returns
  /// false.  One search per event, where next_time() + pop() take two.
  bool pop_due(common::SimTime until, Entry& out);

  /// Number of live (pending, non-cancelled) events.  Exact under lazy
  /// cancellation: a cancelled-but-unreaped entry is excluded the moment
  /// cancel() returns, so queue-depth introspection never overcounts.
  [[nodiscard]] std::size_t size() const { return live_count_; }
  /// Physical entries still held (live + cancelled-but-unreaped).  The gap
  /// between this and size() is the lazy-cancellation debt.
  [[nodiscard]] std::size_t stored_size() const { return stored_count_; }
  /// Nodes routed to the ready list, a wheel bucket or the overflow since
  /// construction: one per push plus one per node re-placed by a cascade or
  /// an overflow drain.  placements() / pushes is the cascade work per event
  /// (a plain counter, not a registry metric).
  [[nodiscard]] std::uint64_t placements() const { return placements_; }

 private:
  /// 2^kBucketBits buckets per level; level l buckets span 2^(8l) ticks.
  static constexpr std::size_t kBucketBits = 8;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  static constexpr std::size_t kLevels = 4;
  static constexpr std::uint64_t kIndexMask = kBuckets - 1;
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Slab node: event payload + id slot + intrusive list link.  The slab
  /// index is the id's low 32 bits, so one array serves as event storage,
  /// slot table and list arena at once.
  struct Node {
    common::SimTime time;
    EventFn fn;
    std::uint32_t generation = 1;  // bumped on pop/cancel; 0 never occurs
    std::uint32_t next = kNil;
    bool cancelled = false;
  };

  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  struct Wheel {
    std::array<List, kBuckets> buckets;
    /// One bit per bucket; makes "next populated bucket" a word scan.
    std::array<std::uint64_t, kBuckets / 64> occupied{};
  };

  [[nodiscard]] static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  [[nodiscard]] static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  /// Clamps negative times to tick 0; the ready-list insert keeps their
  /// relative order by actual SimTime.
  [[nodiscard]] static std::uint64_t tick_of(common::SimTime time) {
    const std::int64_t us = time.as_micros();
    return us <= 0 ? 0 : static_cast<std::uint64_t>(us);
  }
  /// True when `id` refers to a live (pending, non-cancelled) event.
  [[nodiscard]] bool is_live(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < nodes_.size() &&
           nodes_[slot].generation == generation_of(id);
  }

  void append(List& list, std::uint32_t n);
  /// Routes a node to the ready list, a wheel bucket, or the overflow list
  /// according to its tick's distance from the cursor.
  void place(std::uint32_t n);
  /// Inserts into the ready list keeping (time, push-order) sorted; the
  /// common case (at or after every queued time) is an O(1) append.
  void ready_insert(std::uint32_t n);
  /// Reaps cancelled nodes and reloads the ready list from the wheels
  /// until a live node leads it (or everything stored is exhausted).
  void ensure_ready();
  /// Advances the cursor to the next populated tick and loads it into the
  /// ready list.  Returns false when wheels and overflow are all empty.
  bool advance();
  /// Folds the earliest 2^32 µs epoch of overflow nodes back into the
  /// wheels (in stored order, preserving FIFO ties).
  void drain_overflow_epoch();
  /// Next set bucket index >= `from` at `level`, or -1.
  [[nodiscard]] int next_occupied(std::size_t level, std::uint64_t from) const;

  std::array<Wheel, kLevels> wheels_;
  List overflow_;
  /// Events of the cursor's tick (plus late pushes at or before it), in
  /// pop order.
  List ready_;
  /// The tick the queue has drained up to: every stored node with a
  /// strictly smaller tick has been popped or sits in the ready list.
  std::uint64_t cursor_ = 0;

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;
  std::size_t stored_count_ = 0;
  std::uint64_t placements_ = 0;
};

}  // namespace ah::sim
