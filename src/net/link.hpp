// Directed point-to-point link.
//
// Models one direction of a full-duplex Myrinet cable: packets occupy the
// wire for wire_bytes/bandwidth (serialisation), then arrive after the
// propagation delay. Serialisation is a FIFO BusyServer, so back-to-back
// packets queue — this is where output-port contention at a switch shows up.
//
// Fault injection: a drop probability and/or an arbitrary drop predicate can
// be set per link; dropped packets consume wire time but are not delivered
// (as on real hardware, where a corrupted packet still burned the slot).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/server.hpp"
#include "sim/simulator.hpp"
#include "sim/causal.hpp"

namespace nicbar::net {

struct LinkParams {
  double bandwidth_mbps = 160.0;               // 1.28 Gb/s Myrinet LAN
  sim::Duration propagation = sim::nanoseconds(100);
  std::int64_t header_bytes = 16;              // GM header + CRC
};

class Link {
 public:
  using DeliverFn = std::function<void(PacketPtr)>;
  /// Cross-partition delivery hook: (arrival time, ordering key, delivery
  /// closure) is posted to the PDES channel matrix instead of this lane's
  /// queue. See sim/sync.hpp for the handoff convention.
  using RemotePostFn =
      std::function<void(sim::SimTime, sim::EventKey, sim::EventQueue::Action)>;

  Link(sim::Simulator& sim, LinkParams params, std::string name)
      : sim_(&sim), params_(params), wire_(sim, std::move(name)) {}

  /// Sets the receiver; must be called before any transmit.
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Re-points the link (and its wire server) at the Simulator lane that
  /// owns its transmitting end. Only legal before the simulation runs.
  void rebind_sim(sim::Simulator& sim) {
    sim_ = &sim;
    wire_.rebind_sim(sim);
  }

  [[nodiscard]] sim::Simulator& sim() const { return *sim_; }

  /// Stable fabric-wide id (assigned by Network at construction); the
  /// second word of every delivery's ordering key, so two links finishing
  /// serialisation at the same picosecond still deliver in a fixed order.
  void set_uid(std::uint32_t uid) { uid_ = uid; }
  [[nodiscard]] std::uint32_t uid() const { return uid_; }

  /// Routes deliveries into another partition's lane via `fn` instead of
  /// scheduling locally. Set by Network::apply_partitioning for links whose
  /// receiving end lives in a different partition than the transmitting end.
  void set_remote_post(RemotePostFn fn) { remote_post_ = std::move(fn); }

  /// Queues `p` for transmission. Returns the time serialisation finishes
  /// (the sender's transmit channel frees up); delivery happens one
  /// propagation delay later, by moving `p` on to the receiver. A dropped
  /// packet is freed here.
  sim::SimTime transmit(PacketPtr p) { return transmit_at(std::move(p), sim_->now()); }

  /// transmit() for a packet that reaches the wire at `ready` (>= now): the
  /// whole hop — outage check, loss draws, serialisation, delivery — is
  /// decided now, as if transmit() ran at `ready`. Exact only while the
  /// link's feeder is one FIFO stage (a NIC's SEND engine, a switch's
  /// constant-latency routing pipeline), so transmits still happen in
  /// `ready` order and every draw and delivery key is unchanged.
  sim::SimTime transmit_at(PacketPtr p, sim::SimTime ready);

  /// Fault injection: drop each packet with probability `prob`.
  void set_drop_probability(double prob, std::uint64_t seed = 1) {
    drop_prob_ = prob;
    rng_.reseed(seed);
  }

  /// Fault injection: drop packets for which `pred` returns true (applied
  /// in addition to the probabilistic drop).
  void set_drop_predicate(std::function<bool(const Packet&)> pred) {
    drop_pred_ = std::move(pred);
  }

  /// Fault injection: Gilbert–Elliott bursty loss. Each packet first
  /// advances a good/bad Markov chain, then drops with the current state's
  /// loss rate. Draws come from a dedicated stream so composing burst loss
  /// with uniform loss keeps both reproducible.
  void set_burst_loss(double p_enter_bad, double p_exit_bad, double loss_good, double loss_bad,
                      std::uint64_t seed) {
    burst_enter_ = p_enter_bad;
    burst_exit_ = p_exit_bad;
    burst_loss_good_ = loss_good;
    burst_loss_bad_ = loss_bad;
    burst_bad_ = false;
    burst_rng_.reseed(seed);
  }

  /// Fault injection: flip bits in each packet with probability `prob`. The
  /// packet is still delivered; the receiver's CRC check pays for and
  /// discards it (see Nic::rx_packet).
  void set_corrupt_probability(double prob, std::uint64_t seed) {
    corrupt_prob_ = prob;
    corrupt_rng_.reseed(seed);
  }

  /// Fault injection: unplug (`down`) or replug the cable at `at`. While
  /// down, packets vanish instantly — nothing is serialised, nothing
  /// arrives. Outages are a function of time, not events: transmit_at asks
  /// for the state at the packet's ready time, which is the value of the
  /// last toggle at or before it (same-instant toggles apply in the order
  /// they were set). Set toggles before any transmit they should affect is
  /// decided (a fault plan arms them before the run).
  void set_down_at(sim::SimTime at, bool down);

  [[nodiscard]] bool down_at(sim::SimTime t) const;
  [[nodiscard]] bool is_down() const { return down_at(sim_->now()); }

  /// Total time this link has spent down, up to now (open windows count).
  [[nodiscard]] sim::Duration down_time_total() const;

  [[nodiscard]] sim::Duration wire_time(const Packet& p) const {
    return sim::transfer_time(p.wire_bytes(params_.header_bytes), params_.bandwidth_mbps);
  }

  [[nodiscard]] const LinkParams& params() const { return params_; }
  [[nodiscard]] const sim::BusyServer& wire() const { return wire_; }
  [[nodiscard]] const std::string& name() const { return wire_.name(); }
  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t packets_corrupted() const { return corrupted_; }
  [[nodiscard]] std::uint64_t drops_while_down() const { return down_drops_; }
  [[nodiscard]] std::uint64_t packets_delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t packets_in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t bytes_sent() const { return bytes_sent_; }

  /// Packet conservation: every packet serialised onto the wire is either
  /// delivered, dropped with a recorded cause, or still in flight — and at
  /// quiescence nothing may remain in flight. Corrupted packets count as
  /// delivered (the receiver's CRC check discards them and pays the cost).
  void verify_conservation() const;

  /// Attaches a causal tracer: every delivered packet gains a kWire span
  /// covering serialisation + propagation (so wire time is never mistaken
  /// for RECV-engine queueing). Nullptr detaches (default, zero-cost).
  void set_causal(sim::causal::CausalTracer* causal) { causal_ = causal; }

 private:
  sim::Simulator* sim_;
  LinkParams params_;
  sim::BusyServer wire_;
  DeliverFn deliver_;
  RemotePostFn remote_post_;
  std::uint32_t uid_ = 0;
  std::uint32_t delivery_seq_ = 0;  // per-link, deterministic by transmit order
  double drop_prob_ = 0.0;
  std::function<bool(const Packet&)> drop_pred_;
  sim::Rng rng_{12345};
  // Gilbert–Elliott burst-loss chain (inactive until set_burst_loss).
  double burst_enter_ = 0.0;
  double burst_exit_ = 0.0;
  double burst_loss_good_ = 0.0;
  double burst_loss_bad_ = 1.0;
  bool burst_bad_ = false;
  sim::Rng burst_rng_{12345};
  double corrupt_prob_ = 0.0;
  sim::Rng corrupt_rng_{12345};
  struct DownToggle {
    sim::SimTime at;
    bool down;
  };
  std::vector<DownToggle> down_toggles_;  // sorted by `at`, stable
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t down_drops_ = 0;
  // Transmit-side counters above are touched only by the owning lane; these
  // two are also decremented/incremented by the *delivery* closure, which
  // for a cross-partition link runs on the receiving lane — concurrently
  // with later transmits here. Relaxed atomics suffice: each run's sums are
  // deterministic, and reads happen post-run (after the pool join).
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> in_flight_{0};
  std::int64_t bytes_sent_ = 0;
  sim::causal::CausalTracer* causal_ = nullptr;
};

}  // namespace nicbar::net
