#include "net/xswitch.hpp"

#include <utility>

#include "sim/causal.hpp"
#include "sim/check.hpp"

namespace nicbar::net {

void Switch::accept(PacketPtr p) {
  ++accepted_;
  if (p->hop >= p->route.size()) {
    ++misrouted_;  // ran out of route bytes: drop (would be a CRC error on hw)
    return;
  }
  const std::uint8_t port = p->route[p->hop++];
  if (port >= out_.size() || out_[port] == nullptr) {
    ++misrouted_;
    return;
  }
  if (port_down_[port]) {
    ++port_down_drops_;
    return;
  }
  ++forwarded_;
  // The routing pipeline is a constant latency in front of an output link
  // only this switch feeds, so the hop is handed to the wire in closed form:
  // packets reach it in accept order, exactly as from a routing event.
  const sim::SimTime routed = sim_->now() + params_.routing_latency;
  if (causal_ != nullptr) {
    p->causal = causal_->record(sim::causal::Segment::kSwitch, p->dst_node,
                                sim::causal::Unit::sw(static_cast<std::uint32_t>(id_)), "route",
                                sim_->now(), routed, p->causal, 0, p->id);
  }
  out_[port]->transmit_at(std::move(p), routed);
}

void Switch::verify_conservation() const {
  const sim::SimTime now = sim_->now();
  NICBAR_CHECK(accepted_ == forwarded_ + misrouted_ + port_down_drops_, "net.switch", now,
               "switch %d: accepted=%llu != forwarded=%llu + misrouted=%llu + port_down=%llu",
               id_, static_cast<unsigned long long>(accepted_),
               static_cast<unsigned long long>(forwarded_),
               static_cast<unsigned long long>(misrouted_),
               static_cast<unsigned long long>(port_down_drops_));
}

}  // namespace nicbar::net
