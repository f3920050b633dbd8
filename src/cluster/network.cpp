#include "cluster/network.hpp"
#include "common/analysis.hpp"

#include <algorithm>
#include <utility>

AH_HOT_PATH_FILE;

namespace ah::cluster {

namespace {
bool endpoint_matches(NodeId pattern, NodeId id) {
  return pattern == kAnyNode || pattern == id;
}
}  // namespace

bool Network::send(Node& from, Node& to, common::Bytes bytes,
                   sim::EventFn&& on_delivered) {
  ++messages_;
  bytes_ += bytes;
  common::SimTime extra = common::SimTime::zero();
  if (!faults_.empty()) {
    if (const LinkFault* fault = match_fault(from.id(), to.id())) {
      // The drop die is rolled at send time: NIC serialization is still
      // charged (the sender pushed the frame; the network lost it).
      if (fault->drop > 0.0 && fault_rng_.uniform() < fault->drop) {
        ++dropped_;
        on_delivered.reset();
        from.nic().submit(from.nic_time(bytes), {});
        return false;
      }
      extra = fault->extra_delay;
    }
  }
  if (from.id() == to.id()) {
    // Loopback: treat as immediate (scheduled at now, preserving event
    // ordering but costing no NIC time).
    sim_.schedule(common::SimTime::zero(), std::move(on_delivered));
    return true;
  }
  const common::SimTime demand = from.nic_time(bytes);
  const common::SimTime latency = from.hardware().nic_latency + extra;
  if (!batching_) {
    Msg* msg = msgs_.acquire();
    msg->net = this;
    msg->from = &from;
    msg->latency = latency;
    msg->batch = nullptr;
    msg->on_delivered = std::move(on_delivered);
    auto done = [msg] { msg->net->nic_done(msg); };
    static_assert(sim::Resource::Completion::stores_inline<decltype(done)>(),
                  "NIC completion closure must not allocate");
    if (!from.nic().submit(demand, std::move(done))) msgs_.release(msg);
    return true;
  }
  if (open_.size() <= from.id()) open_.resize(from.id() + 1);
  OpenSlot& slot = open_[from.id()];
  if (slot.msg != nullptr && slot.to == to.id() &&
      from.nic().extend_queued_tail(slot.job, demand)) {
    // Coalesce onto the still-queued tail job to this destination.  The
    // extend only succeeds when a fresh submit would also have been
    // admitted, so batching never smuggles work past the NIC's checks.
    Msg* head = slot.msg;
    Batch* batch = head->batch;
    if (batch == nullptr) {
      batch = batches_.acquire();
      batch->members.clear();
      batch->cum = head->demand;
      batch->members.push_back(
          Member{batch->cum, head->latency, std::move(head->on_delivered)});
      head->batch = batch;
      ++batches_coalesced_;
      ++messages_batched_;  // the head now rides the merged job too
    }
    batch->cum += demand;
    batch->members.push_back(Member{batch->cum, latency, std::move(on_delivered)});
    ++messages_batched_;
    return true;
  }
  Msg* msg = msgs_.acquire();
  msg->net = this;
  msg->from = &from;
  msg->latency = latency;
  msg->demand = demand;
  msg->batch = nullptr;
  msg->on_delivered = std::move(on_delivered);
  auto started = [msg] { msg->net->nic_started(msg); };
  auto done = [msg] { msg->net->nic_done(msg); };
  static_assert(sim::Resource::Completion::stores_inline<decltype(started)>(),
                "NIC start closure must not allocate");
  static_assert(sim::Resource::Completion::stores_inline<decltype(done)>(),
                "NIC completion closure must not allocate");
  // Only a job that actually queued can be extended later; when the NIC is
  // idle the job starts inside submit_job and the window never opens.
  const bool will_queue = from.nic().busy() >= from.nic().servers();
  const sim::Resource::JobId job =
      from.nic().submit_job(demand, std::move(started), std::move(done));
  if (job == 0) {
    // Waiting line full: the message is lost at the sender, same as the
    // plain-submit rejection before batching existed.
    msgs_.release(msg);
    return true;
  }
  if (will_queue) {
    slot = OpenSlot{msg, job, to.id()};
  } else {
    slot = OpenSlot{};
  }
  return true;
}

void Network::nic_started(Msg* msg) {
  OpenSlot& slot = open_[msg->from->id()];
  if (slot.msg == msg) slot = OpenSlot{};  // on the wire: window closed
  Batch* batch = msg->batch;
  if (batch == nullptr) return;
  // Replay the unbatched delivery schedule: member i left the NIC at
  // start + prefix_i (scaled by the slowdown the merged job started
  // under) and arrived one propagation latency later.  Members are
  // scheduled in send order, so equal-time deliveries keep their order.
  const double slow = msg->from->nic().slowdown();
  for (Member& member : batch->members) {
    const common::SimTime serial =
        slow == 1.0 ? member.prefix : member.prefix * slow;
    sim_.schedule(serial + member.latency, std::move(member.on_delivered));
  }
}

void Network::set_link_fault(NodeId from, NodeId to, double drop,
                             common::SimTime extra_delay) {
  for (LinkFault& fault : faults_) {
    if (fault.from == from && fault.to == to) {
      fault.drop = drop;
      fault.extra_delay = extra_delay;
      return;
    }
  }
  faults_.push_back(LinkFault{from, to, drop, extra_delay});
}

void Network::clear_link_fault(NodeId from, NodeId to) {
  faults_.erase(std::remove_if(faults_.begin(), faults_.end(),
                               [&](const LinkFault& fault) {
                                 return fault.from == from && fault.to == to;
                               }),
                faults_.end());
}

const Network::LinkFault* Network::match_fault(NodeId from, NodeId to) const {
  for (const LinkFault& fault : faults_) {
    if (endpoint_matches(fault.from, from) && endpoint_matches(fault.to, to)) {
      return &fault;
    }
  }
  return nullptr;
}

void Network::nic_done(Msg* msg) {
  if (Batch* batch = msg->batch) {
    // Deliveries were scheduled at serialization start; the merged job's
    // completion only returns the pooled state.
    batch->members.clear();
    batches_.release(batch);
    msg->batch = nullptr;
    msgs_.release(msg);
    return;
  }
  // Scheduling runs nothing, so the callback moves straight from the
  // pooled message into its queue node before the message is recycled.
  sim_.schedule(msg->latency, std::move(msg->on_delivered));
  msgs_.release(msg);
}

}  // namespace ah::cluster
