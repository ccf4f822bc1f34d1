#include "coll/reduce.hpp"

#include <stdexcept>
#include <utility>

namespace nicbar::coll {

using nic::GmEvent;
using nic::GmEventType;

ReduceMember::ReduceMember(gm::Port& port, std::span<const Endpoint> group, Location location,
                           nic::ReduceOp op, std::size_t dimension)
    : ReduceMember(port, group, find_member(group, port.endpoint(), "reduce group"), location,
                   op, dimension) {}

ReduceMember::ReduceMember(gm::Port& port, std::span<const Endpoint> group,
                           std::size_t my_index, Location location, nic::ReduceOp op,
                           std::size_t dimension)
    : port_(port),
      location_(location),
      op_(op),
      my_index_(check_member(group, my_index, port.endpoint(), "reduce group")),
      gb_(gb_tree(group, my_index_, dimension)) {}

sim::ValueTask<std::int64_t> ReduceMember::allreduce(std::int64_t contribution) {
  if (location_ == Location::kHost) return allreduce_host(contribution);
  return allreduce_nic(contribution);
}

// --- NIC-based ---------------------------------------------------------------------

sim::ValueTask<std::int64_t> ReduceMember::allreduce_nic(std::int64_t contribution) {
  nic::ReduceToken token;
  token.parent = gb_.parent;
  token.children = gb_.children;
  token.op = op_;
  token.contribution = contribution;
  co_await port_.provide_barrier_buffer();
  (void)co_await port_.reduce_send(std::move(token));

  if (!pending_results_.empty()) {
    const std::int64_t r = pending_results_.front();
    pending_results_.erase(pending_results_.begin());
    co_return r;
  }
  for (;;) {
    const GmEvent ev = co_await port_.receive();
    switch (ev.type) {
      case GmEventType::kReduceComplete:
        co_return ev.value;
      case GmEventType::kRecv:
        if (sink_) {
          sink_(ev);
          break;
        }
        co_await port_.provide_receive_buffer(msg_bytes_);
        break;
      default:
        if (sink_) sink_(ev);
        break;
    }
  }
}

// --- Host-based ---------------------------------------------------------------------

sim::Task ReduceMember::ensure_provisioned() {
  if (provisioned_) co_return;
  provisioned_ = true;
  const std::size_t expected = gb_.children.size() + (gb_.is_root() ? 0 : 1);
  for (std::size_t i = 0; i < 2 * expected + 2; ++i) {
    co_await port_.provide_receive_buffer(msg_bytes_);
  }
}

sim::ValueTask<std::int64_t> ReduceMember::wait_value_from(Endpoint peer, std::uint64_t tag) {
  const auto key = std::make_pair(peer, tag);
  auto it = pending_values_.find(key);
  if (it != pending_values_.end() && !it->second.empty()) {
    const std::int64_t v = it->second.front();
    it->second.erase(it->second.begin());
    if (it->second.empty()) pending_values_.erase(it);
    co_return v;
  }
  for (;;) {
    const GmEvent ev = co_await port_.receive();
    switch (ev.type) {
      case GmEventType::kRecv: {
        if (ev.tag != nic::kReduceUpMsgTag && ev.tag != nic::kReduceDownMsgTag) {
          if (sink_) {
            sink_(ev);
          } else {
            co_await port_.provide_receive_buffer(msg_bytes_);
          }
          break;
        }
        co_await port_.provide_receive_buffer(msg_bytes_);
        if (ev.peer == peer && ev.tag == tag) co_return ev.value;
        pending_values_[{ev.peer, ev.tag}].push_back(ev.value);
        break;
      }
      case GmEventType::kReduceComplete:
        pending_results_.push_back(ev.value);
        break;
      default:
        if (sink_) sink_(ev);
        break;
    }
  }
}

sim::ValueTask<std::int64_t> ReduceMember::allreduce_host(std::int64_t contribution) {
  co_await ensure_provisioned();
  std::int64_t acc = contribution;
  // Combine child partials (the value rides in the message's value field).
  for (const Endpoint& child : gb_.children) {
    const std::int64_t v = co_await wait_value_from(child, nic::kReduceUpMsgTag);
    acc = nic::apply_reduce_op(op_, acc, v);
  }
  std::int64_t result = acc;
  if (!gb_.is_root()) {
    co_await port_.send(gb_.parent, msg_bytes_, nic::kReduceUpMsgTag, acc);
    result = co_await wait_value_from(gb_.parent, nic::kReduceDownMsgTag);
  }
  for (const Endpoint& child : gb_.children) {
    co_await port_.send(child, msg_bytes_, nic::kReduceDownMsgTag, result);
  }
  co_return result;
}

}  // namespace nicbar::coll
