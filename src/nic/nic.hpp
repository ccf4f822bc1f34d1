// The programmable NIC: GM's Myrinet Control Program (MCP) plus our barrier
// firmware extension.
//
// The real MCP is four cooperating state machines — SDMA, SEND, RECV, RDMA —
// time-sliced on the single LANai processor (paper Fig. 4). We model that
// processor as one FIFO CycleServer: every firmware action is a job with a
// cycle cost from NicConfig, so the engines automatically serialise exactly
// as they do on hardware, and NIC processor speed scales all of it together.
//
//   SDMA: notices host send tokens, programs host->NIC DMA over the PCI bus,
//         prepares packets, and (for barrier tokens) runs barrier initiation.
//   SEND: pays per-packet transmit cycles and injects into the fabric.
//   RECV: pays per-packet receive cycles, runs the reliability checks
//         (sequence/ack/nack, go-back-N retransmission), and dispatches.
//   RDMA: programs NIC->host DMA for accepted payloads and completion
//         events, and runs the barrier advance logic of §4.2-4.4.
//
// Barrier state lives in the barrier send token, pointed to by the port
// structure (paper §4.2), so the eight ports can run independent concurrent
// barriers. Unexpected barrier messages are recorded in the per-connection
// one-byte bit array of §4.3.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "net/packet.hpp"
#include "nic/config.hpp"
#include "nic/connection.hpp"
#include "nic/connection_table.hpp"
#include "nic/rma.hpp"
#include "nic/slots.hpp"
#include "nic/tokens.hpp"
#include "sim/causal.hpp"
#include "sim/server.hpp"
#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"
#include "sim/sync.hpp"
#include "sim/telemetry.hpp"

namespace nicbar::nic {

/// The four MCP state machines time-sliced on the LANai processor. Used to
/// attribute processor cycles per engine for the telemetry layer.
enum class McpEngine : std::uint8_t { kSdma = 0, kSend, kRecv, kRdma };

constexpr std::size_t kMcpEngineCount = 4;

[[nodiscard]] const char* to_string(McpEngine e);

/// Per-engine occupancy of the shared LANai processor. Always-on cheap
/// counters (two integer adds per firmware job), like NicStats.
struct EngineStats {
  std::uint64_t jobs[kMcpEngineCount] = {};
  std::int64_t cycles[kMcpEngineCount] = {};

  [[nodiscard]] std::uint64_t jobs_for(McpEngine e) const {
    return jobs[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] std::int64_t cycles_for(McpEngine e) const {
    return cycles[static_cast<std::size_t>(e)];
  }
};

struct NicStats {
  std::uint64_t data_sent = 0;
  std::uint64_t data_received = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t nacks_received = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t out_of_order_dropped = 0;
  std::uint64_t no_token_drops = 0;
  std::uint64_t closed_port_drops = 0;
  std::uint64_t barrier_packets_sent = 0;
  std::uint64_t barrier_packets_received = 0;
  std::uint64_t barriers_started = 0;
  std::uint64_t barriers_completed = 0;
  std::uint64_t reduces_started = 0;
  std::uint64_t reduces_completed = 0;
  std::uint64_t multicasts_sent = 0;
  std::uint64_t unexpected_recorded = 0;
  std::uint64_t bit_collisions = 0;
  std::uint64_t barrier_nacks_sent = 0;
  std::uint64_t barrier_resends = 0;
  std::uint64_t barrier_loopback_msgs = 0;
  std::uint64_t events_delivered = 0;
  // Barrier firmware state transitions (telemetry):
  std::uint64_t barrier_pe_rounds = 0;       // PE: node_index advanced
  std::uint64_t barrier_gathers_sent = 0;    // GB: gather forwarded to parent
  std::uint64_t barrier_bcasts_entered = 0;  // GB: broadcast phase entered
  std::uint64_t barrier_hier_gathers = 0;    // HIER: rep gather satisfied, exchange begun
  // Fault / recovery accounting:
  std::uint64_t crc_drops = 0;            // corrupted packets caught by the CRC check
  std::uint64_t retransmit_timeouts = 0;  // retransmit timer fired (either stream)
  std::uint64_t rto_backoffs = 0;         // adaptive RTO doubled after a timeout
  std::uint64_t rtt_samples = 0;          // RTT measurements fed to the estimator
  std::uint64_t connections_failed = 0;   // peers declared dead (give-up)
  std::uint64_t dead_peer_drops = 0;      // sends discarded: peer already dead
  std::uint64_t nic_crashes = 0;
  std::uint64_t nic_restarts = 0;
  std::uint64_t rx_dropped_crashed = 0;   // packets arriving while the NIC was down
  std::uint64_t tx_dropped_crashed = 0;   // transmissions lost to the crash
  std::uint64_t barriers_cancelled = 0;   // host aborted an in-flight barrier
  // Group lifecycle (slot admission + stale fencing):
  std::uint64_t stale_group_fenced = 0;   // packets fenced: group had no live slot
  // One-sided RMA firmware:
  std::uint64_t rma_ops_posted = 0;       // host posted an RmaToken
  std::uint64_t rma_puts_applied = 0;     // target applied a put
  std::uint64_t rma_gets_served = 0;      // target served a get
  std::uint64_t rma_cas_applied = 0;      // target ran an on-NIC CAS
  std::uint64_t rma_replies = 0;          // initiator absorbed a remote completion
  std::uint64_t rma_parked = 0;           // op arrived before its segment registered
  std::uint64_t rma_rejected = 0;         // op addressed a bad segment/index
};

class Nic {
 public:
  /// `pci` is the node's shared PCI bus (SDMA and RDMA arbitrate for it).
  Nic(sim::Simulator& sim, net::Network& net, NodeId node, NicConfig config,
      sim::BusyServer& pci);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  // --- Host-facing interface (called by the gm layer) ------------------------

  /// Opens a communication endpoint; `events` is the host-side event queue
  /// the NIC will push receive/sent/barrier-complete events into.
  void open_port(PortId port, sim::Mailbox<GmEvent>* events);
  void close_port(PortId port);
  [[nodiscard]] bool is_port_open(PortId port) const;

  /// Queues an ordinary send token (gm_send_with_callback).
  void post_send_token(SendToken token);

  /// Provides a pinned receive buffer (gm_provide_receive_buffer).
  void post_receive_token(PortId port, RecvToken token);

  /// Queues a barrier send token (gm_barrier_send_with_callback).
  void post_barrier_token(BarrierToken token);

  /// Provides a barrier-completion buffer (gm_provide_barrier_buffer).
  void provide_barrier_buffer(PortId port);

  /// Queues a reduction send token (the §8 collectives extension): the NIC
  /// combines child contributions, forwards the partial up the tree, and —
  /// for an allreduce — distributes the root's result back down.
  void post_reduce_token(ReduceToken token);

  /// Queues a NIC-assisted multicast (§7 related work): one host->NIC DMA,
  /// then the NIC replicates the packet to every destination. Throws
  /// std::invalid_argument if the payload exceeds the MTU.
  void post_multicast_token(MulticastToken token);

  // --- One-sided RMA (the rma:: layer, src/rma/) -----------------------------

  /// Queues a one-sided operation (put / get / on-NIC CAS). The op rides the
  /// sequenced connection stream to token.dst and its remote completion
  /// returns on the reverse stream to this port's RmaSink.
  void post_rma_token(RmaToken token);

  /// Registers host memory as RMA segment `segment` of `port`: incoming ops
  /// addressed to (port, segment) are applied to `mem`. Ops that arrived
  /// before registration were parked and are flushed now, in arrival order.
  /// Instantaneous host-side call (the registration word itself is written
  /// during the port-open PCI handshake, like slot_allocate).
  void rma_register(PortId port, std::uint64_t segment, RmaMemory* mem);

  /// Installs the initiator-side completion surface for `port`.
  void set_rma_sink(PortId port, RmaSink* sink);

  // --- Network-facing interface -------------------------------------------------

  /// A packet head has fully arrived from the fabric (RECV engine entry).
  /// The NIC owns the packet from here on.
  void rx_packet(net::PacketPtr p);

  // --- Fault injection ---------------------------------------------------------

  /// The LANai processor halts: packets in either direction are lost and all
  /// retransmit timers die with the firmware. Host token queues survive —
  /// they live in host memory (the same argument §4.2 makes for keeping
  /// barrier state in the host-resident token).
  void crash();

  /// Firmware reboot after a crash: every connection's unacknowledged
  /// packets (both streams) are retransmitted and the timers re-armed.
  void restart();

  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Aborts the port's in-flight barrier (host gave up on it — deadline or
  /// peer death). The parked token is discarded so a later barrier can
  /// start; any stale completion is suppressed by its epoch.
  void cancel_barrier(PortId port);

  // --- Barrier-group slot admission (paper §3: init/cleanup of NIC state) ------

  /// Binds barrier group `group` to a NIC barrier-state slot for `port`.
  /// Instantaneous host-side call (one PCI word write, folded into the
  /// group-create handshake's message costs). Returns false — and counts an
  /// admission rejection — when every slot is in use; the caller is expected
  /// to fall back to a host-driven barrier, not fail.
  bool slot_allocate(std::uint64_t group, PortId port);

  /// Releases the (group, port) binding; packets for this group arriving
  /// afterwards are fenced (counted in stale_group_fenced, never delivered).
  void slot_free(std::uint64_t group, PortId port);

  [[nodiscard]] bool slot_bound(std::uint64_t group, PortId port) const;
  [[nodiscard]] const SlotTable& slots() const { return slots_; }

  /// Test/fault hook: pushes a host event directly into `port`'s queue as if
  /// the RDMA engine had delivered it — for exercising host-side defences
  /// against delayed/stale events (e.g. a completion from an aborted epoch).
  void inject_event(PortId port, GmEvent ev) { push_event(port, std::move(ev)); }

  // --- Introspection ---------------------------------------------------------------

  [[nodiscard]] NodeId node_id() const { return node_; }
  [[nodiscard]] const NicConfig& config() const { return config_; }
  [[nodiscard]] const NicStats& stats() const { return stats_; }
  [[nodiscard]] const EngineStats& engine_stats() const { return engines_; }
  [[nodiscard]] sim::CycleServer& processor() { return proc_; }
  [[nodiscard]] const Connection& connection(NodeId remote) const;
  /// How many peers this NIC has actually contacted — the footprint the
  /// sparse connection table pays for (vs N-1 under a dense table).
  [[nodiscard]] std::size_t connections_allocated() const { return conns_.allocated(); }

  /// Attaches the cluster's telemetry bundle (nullptr detaches). The NIC
  /// caches the causal tracer pointer so every hot-path hook is one branch.
  void set_telemetry(sim::telemetry::Telemetry* telemetry);
  [[nodiscard]] sim::causal::CausalTracer* causal_tracer() const { return causal_; }

  /// True if the port currently has an active (incomplete) barrier.
  [[nodiscard]] bool barrier_active(PortId port) const;

 private:
  struct PortState {
    bool open = false;
    sim::Mailbox<GmEvent>* events = nullptr;
    std::deque<RecvToken> recv_tokens;
    int barrier_buffers = 0;
    std::unique_ptr<BarrierToken> active_barrier;
    /// Most recently completed barrier, kept so §3.2 closed-port NACKs can
    /// still be answered after completion.
    std::unique_ptr<BarrierToken> last_barrier;
    std::unique_ptr<ReduceToken> active_reduce;
    std::unique_ptr<ReduceToken> last_reduce;
    /// Highest barrier epoch completed on this port since it was opened; a
    /// completion at an epoch at or below this violates epoch monotonicity.
    std::int64_t last_completed_epoch = -1;
    /// One-sided RMA: registered segments, completion sink, and ops that
    /// arrived before their segment registered (flushed on rma_register).
    std::map<std::uint64_t, RmaMemory*> rma_segments;
    RmaSink* rma_sink = nullptr;
    std::deque<net::PacketPtr> rma_parked;
  };

  Connection& conn(NodeId remote);
  /// Port state is allocated on first touch: a 4096-node cluster where each
  /// node opens one port pays for one PortState, not max_ports of them.
  PortState& port(PortId p) {
    auto& slot = ports_.at(p);
    if (!slot) slot = std::make_unique<PortState>();
    return *slot;
  }
  /// Const reads of a never-touched port see the default (closed, empty)
  /// state without allocating it.
  const PortState& port(PortId p) const {
    static const PortState kUntouched{};
    const auto& slot = ports_.at(p);
    return slot ? *slot : kUntouched;
  }

  // --- Telemetry helpers -----------------------------------------------------
  /// Charges `cycles` on the shared processor, attributed to `engine`, and
  /// records the job as a span of `seg` named `job` on the engine's unit.
  /// Returns the span id (0 when causal tracing is detached).
  sim::causal::SpanId engine_submit(McpEngine engine, sim::causal::Segment seg, const char* job,
                                    std::int64_t cycles, sim::SmallFn on_done = nullptr,
                                    sim::causal::SpanId parent = 0,
                                    sim::causal::SpanId parent2 = 0);
  /// engine_submit without the span, for a job whose time the caller splits
  /// across spans itself. Returns the job's end.
  sim::SimTime engine_charge(McpEngine engine, std::int64_t cycles, sim::SmallFn on_done);
  /// A firmware job on packet `p`: engine_submit whose span extends the
  /// packet's causal chain, then `next` takes the packet when the job ends.
  void engine_pass(McpEngine engine, sim::causal::Segment seg, const char* job,
                   std::int64_t cycles, net::PacketPtr p, void (Nic::*next)(net::PacketPtr));
  /// Occupies the PCI bus for `service` and records it as a span of `seg`
  /// named `job` on the bus's unit. Returns the span id (0 when detached).
  sim::causal::SpanId pci_submit(sim::causal::Segment seg, const char* job,
                                 sim::Duration service, sim::SmallFn on_done = nullptr,
                                 sim::causal::SpanId parent = 0);
  /// The span pci_submit records, for a transfer of `service` ending at `end`.
  sim::causal::SpanId pci_span(sim::causal::Segment seg, const char* job, sim::SimTime end,
                               sim::Duration service, sim::causal::SpanId parent);
  /// Records a span on `engine`'s unit for work that ended at `end` after
  /// `cycles` of processor time; returns 0 when causal tracing is detached.
  sim::causal::SpanId engine_span(McpEngine engine, sim::causal::Segment seg, const char* label,
                                  sim::SimTime end, std::int64_t cycles,
                                  sim::causal::SpanId parent, sim::causal::SpanId parent2 = 0);
  /// A zero-length span on the NIC's fault track (crash, restart, peer give-up).
  void fault_instant(const char* label);

  // --- SDMA / SEND ------------------------------------------------------------
  void sdma_start(SendToken token);
  void sdma_fragment(SendToken token, std::uint16_t index, std::uint16_t frag_count);
  void enqueue_reliable(net::Packet p, std::function<void()> on_sent);
  /// SEND engine: cycles, then wire/loopback. `send_cycles_override` >= 0
  /// replaces the per-packet SEND charge (multidestination replication pays
  /// the per-copy header-rewrite cost, not a full packet preparation).
  void transmit(net::PacketPtr p, std::int64_t send_cycles_override = -1);
  void loopback(net::PacketPtr p);   // end of a same-NIC SEND job
  void send_control(net::Packet p);  // acks and nacks (unsequenced)

  // --- RECV dispatch -------------------------------------------------------------
  void recv_data(net::PacketPtr p);
  void recv_ack(const net::Packet& p);
  void recv_nack(const net::Packet& p);
  void accept_in_order(net::PacketPtr p);  // passed seq check (data or barrier)

  // --- RDMA ---------------------------------------------------------------------------
  void deliver_to_host(net::PacketPtr p);
  void push_event(PortId port, GmEvent ev);

  // --- Reliability -------------------------------------------------------------------
  void arm_retransmit(NodeId remote);
  void retransmit_all(NodeId remote);
  void send_ack(NodeId remote);
  void send_nack(NodeId remote);
  /// Current timeout for `c`: fixed config value, or the Jacobson/Karels
  /// estimate shifted left by the connection's backoff.
  [[nodiscard]] sim::Duration current_rto(const Connection& c) const;
  /// Feeds one RTT measurement into the estimator (adaptive mode only).
  void sample_rtt(Connection& c, sim::Duration rtt);
  /// Give-up: marks the connection dead, drops its streams, and raises
  /// kPeerDead on every open port.
  void declare_peer_dead(NodeId remote);

  // --- Barrier firmware (nic_barrier.cpp) ------------------------------------------
  void barrier_start(std::unique_ptr<BarrierToken> token);  // SDMA side
  void barrier_rx(net::PacketPtr p);                         // RDMA side
  void barrier_rx_in_order(net::PacketPtr p);                // after stream check
  void barrier_record(const net::Packet& p, bool for_closed_port);
  void barrier_try_advance_pe(PortId local_port);
  void barrier_check_gather(PortId local_port);
  void barrier_hier_check_gather(PortId local_port);
  void barrier_enter_broadcast(PortId local_port);
  /// `mcast_copy`: this packet is a replica in a multidestination fan-out
  /// (the hierarchical release); the SEND engine pays the per-copy
  /// replication cost instead of a full packet preparation.
  void barrier_send(PortId local_port, Endpoint dst, net::PacketType type,
                    std::uint32_t epoch, bool mcast_copy = false);
  /// Firmware cycles to book one in-order barrier arrival (keyed on packet
  /// type, and for a release on the active token's family).
  [[nodiscard]] std::int64_t barrier_rx_cost(const net::Packet& p);
  void barrier_complete(PortId local_port);
  void barrier_closed_port_arrival(const net::Packet& p);
  void barrier_send_nack(const net::Packet& original);
  void barrier_handle_nack(const net::Packet& p);
  void flush_closed_port_records(PortId opened_port);
  // Separate-ack barrier reliability:
  void barrier_enqueue_separate(net::Packet p, std::int64_t tx_cost = -1);
  void barrier_recv_separate(net::PacketPtr p);
  void barrier_recv_barrier_ack(const net::Packet& p);
  void arm_barrier_retransmit(NodeId remote);
  void barrier_retransmit_all(NodeId remote);

  // --- One-sided RMA firmware (nic_rma.cpp) -----------------------------------------
  void rma_rx_in_order(net::PacketPtr p);    // target/initiator, after seq check
  void rma_apply(net::PacketPtr p);          // target: put/get/cas at the firmware
  void rma_reply(const net::Packet& request, std::int64_t value, bool ok);
  void rma_absorb_reply(net::PacketPtr p);   // initiator: notify the sink

  // --- Reduction firmware (nic_reduce.cpp) ------------------------------------------
  void reduce_start(ReduceToken token);
  void reduce_rx_in_order(const net::Packet& p);        // dispatched by barrier_rx paths
  void reduce_check_children(PortId local_port);
  void reduce_send(PortId local_port, Endpoint dst, net::PacketType type,
                   std::uint32_t epoch, std::int64_t value);
  void reduce_complete(PortId local_port, std::int64_t result);
  bool reduce_answer_nack(const net::Packet& p);        // §3.2 resend for reduce types

  sim::Simulator& sim_;
  net::Network& net_;
  NodeId node_;
  NicConfig config_;
  sim::CycleServer proc_;
  sim::BusyServer& pci_;
  std::vector<std::unique_ptr<PortState>> ports_;  // lazy; see port()
  ConnectionTable conns_;
  NicStats stats_;
  SlotTable slots_;
  bool crashed_ = false;
  EngineStats engines_;
  // Causal tracer (null when detached; every hook is one branch).
  sim::causal::CausalTracer* causal_ = nullptr;
};

}  // namespace nicbar::nic
