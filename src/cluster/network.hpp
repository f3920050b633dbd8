// Inter-node message transfer.
//
// Transfers charge the sender's NIC (serialization) and add a fixed
// propagation latency; the receiver-side cost is folded into the per-request
// CPU demands of the receiving server.  This keeps each message at one
// queueing interaction, which measurement of the real testbed's 100 Mbps
// switched Ethernet justifies: the switch was never the bottleneck, the
// endpoints were.
//
// Destination batching (opt-in): while a message to some node still waits
// at the tail of the sender's NIC queue, further sends to the same
// destination fold their serialization demand into that queued job instead
// of queueing jobs of their own (a fan-out burst costs one NIC queue
// operation instead of N).  When the merged job finally reaches the wire,
// each member's delivery is scheduled at exactly the time the unbatched
// schedule would have produced — serialization start + its prefix of the
// summed demand + its own propagation latency — so observable latencies,
// NIC utilization integrals and rejection behaviour are unchanged.  What
// batching does NOT preserve is the byte-exact pop order of equal-time
// ties: a batched delivery is *pushed* at serialization start rather than
// at its member's completion instant, so an unrelated event scheduled for
// the same microsecond can land on the other side of it.  Replicating the
// unbatched push sequence would need one relay event per member — exactly
// the events batching elides — so tie stability and the saving are
// fundamentally exclusive.  Batching is therefore off by default (golden
// runs stay bit-identical to the unbatched schedule) and enabled
// explicitly (set_destination_batching) for large-scale sweeps where
// event-count, not tie-exactness, is what matters.  The batch window
// closes the moment the job starts serializing (Resource's start signal)
// or anything else joins the NIC queue behind it.
//
// Fault injection: a link fault (set_link_fault) makes matching messages
// eligible for probabilistic drop and/or an added propagation delay —
// modelling a flaky switch port or congested uplink.  The drop decision
// draws from a dedicated RNG that is consulted *only* while a matching
// fault is installed, so runs with no faults consume no randomness here
// and stay byte-identical to the pre-fault build.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/node.hpp"
#include "common/analysis.hpp"
#include "common/object_pool.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

AH_HOT_PATH_FILE;

namespace ah::cluster {

/// Wildcard for link-fault endpoints: matches any node.
inline constexpr NodeId kAnyNode = static_cast<NodeId>(-1);

class Network {
 public:
  explicit Network(sim::Simulator& sim) : sim_(sim), fault_rng_(0x11fec7) {
    AH_ASSERT_POOLED_CALL(Msg);
    AH_ASSERT_POOLED_CALL(Batch);
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Sends `bytes` from `from`; invokes `on_delivered` after NIC
  /// serialization plus propagation latency.  Local (same-node) delivery is
  /// free and immediate, matching loopback behaviour.  Returns false when
  /// an installed link fault dropped the message — `on_delivered` is then
  /// destroyed uninvoked, and the caller's hop timeout (if any) is what
  /// eventually notices the loss, exactly as on a real network.
  bool send(Node& from, Node& to, common::Bytes bytes,
            sim::EventFn&& on_delivered);

  // -- Link faults (driven by sim::FaultInjector) ---------------------------
  /// Degrades the directed link from->to (kAnyNode matches either side):
  /// each matching message is dropped with probability `drop` and any
  /// survivor incurs `extra_delay` on top of propagation latency.
  /// Re-installing an existing pair updates it in place.
  void set_link_fault(NodeId from, NodeId to, double drop,
                      common::SimTime extra_delay);
  /// Restores the directed link from->to.  No-op when not degraded.
  void clear_link_fault(NodeId from, NodeId to);
  [[nodiscard]] bool has_link_faults() const { return !faults_.empty(); }

  /// Enables (or disables) destination batching for subsequent sends.  Off
  /// by default: merged jobs keep delivery times exact but not the
  /// byte-exact tie order of the unbatched event schedule (see file
  /// comment).  Disabling stops new windows from opening; an already-open
  /// window still flushes correctly.
  void set_destination_batching(bool enabled) { batching_ = enabled; }
  [[nodiscard]] bool destination_batching() const { return batching_; }

  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
  [[nodiscard]] common::Bytes bytes_sent() const { return bytes_; }
  /// Merged NIC jobs created by destination batching.
  [[nodiscard]] std::uint64_t batches_coalesced() const {
    return batches_coalesced_;
  }
  /// Messages that rode in a merged NIC job (heads included).
  [[nodiscard]] std::uint64_t messages_batched() const {
    return messages_batched_;
  }

 private:
  struct Batch;

  /// In-flight message state, pooled so the NIC-completion closure captures
  /// a single pointer (the delivery callback itself is a full-width EventFn
  /// that would not fit the NIC Resource's inline Completion buffer).
  struct Msg {
    Network* net = nullptr;
    Node* from = nullptr;
    common::SimTime latency = common::SimTime::zero();
    /// Serialization demand of this message alone (batch prefix seed).
    common::SimTime demand = common::SimTime::zero();
    /// Non-null once a second message coalesced onto this queued job.
    Batch* batch = nullptr;
    sim::EventFn on_delivered;
  };

  /// One coalesced member: its delivery fires at serialization start +
  /// prefix (cumulative demand through this member, scaled by the NIC's
  /// slowdown at start) + its own propagation latency — the exact times
  /// the unbatched schedule would have produced.
  struct Member {
    common::SimTime prefix = common::SimTime::zero();
    common::SimTime latency = common::SimTime::zero();
    sim::EventFn on_delivered;
  };

  /// Pooled per-merged-job state; `members` keeps its capacity across
  /// reuses so steady-state batching performs no heap allocation.
  struct Batch {
    common::SimTime cum = common::SimTime::zero();
    std::vector<Member> members;
  };

  /// The still-extendable tail of one sender's NIC queue, if any.
  struct OpenSlot {
    Msg* msg = nullptr;
    sim::Resource::JobId job = 0;
    NodeId to = 0;
  };

  struct LinkFault {
    NodeId from = kAnyNode;
    NodeId to = kAnyNode;
    double drop = 0.0;
    common::SimTime extra_delay = common::SimTime::zero();
  };

  /// Fires when a message's NIC job starts serializing: closes the batch
  /// window and, for merged jobs, schedules every member's delivery.
  void nic_started(Msg* msg);
  void nic_done(Msg* msg);
  /// First installed fault matching the directed pair, or nullptr.
  [[nodiscard]] const LinkFault* match_fault(NodeId from, NodeId to) const;

  sim::Simulator& sim_;
  common::ObjectPool<Msg> msgs_;
  common::ObjectPool<Batch> batches_;
  /// Per sender node id: the extendable NIC-queue tail, if any.
  std::vector<OpenSlot> open_;
  /// Installed link faults.  Mutated only by (rare) fault events; empty in
  /// steady state, so the per-message check is one branch.
  std::vector<LinkFault> faults_;
  common::Rng fault_rng_;
  bool batching_ = false;
  std::uint64_t messages_ = 0;
  std::uint64_t dropped_ = 0;
  common::Bytes bytes_ = 0;
  std::uint64_t batches_coalesced_ = 0;
  std::uint64_t messages_batched_ = 0;
};

}  // namespace ah::cluster
