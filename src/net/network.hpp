// The network fabric: terminals (NIC attachment points), switches, cables,
// and source-route computation.
//
// Construction protocol:
//   1. add_terminal() for every NIC, add_switch() for every switch
//   2. connect_terminal() / connect_switches() to cable everything up
//   3. finalize() — computes shortest source routes for all terminal pairs
//   4. set_deliver() on each terminal, then inject() packets
//
// Every cable is full duplex and is modelled as two directed Links.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/xswitch.hpp"
#include "sim/pdes.hpp"
#include "sim/simulator.hpp"

namespace nicbar::net {

/// Assignment of every fabric element to a PDES partition. Terminals are
/// indexed by NodeId, switches by switch id; values are lane indices.
struct PartitionMap {
  std::vector<int> terminal_partition;
  std::vector<int> switch_partition;
};

class Network {
 public:
  using DeliverFn = std::function<void(PacketPtr)>;

  explicit Network(sim::Simulator& sim, LinkParams link_params = {},
                   SwitchParams switch_params = {})
      : sim_(sim), link_params_(link_params), switch_params_(switch_params) {}

  // --- Construction ----------------------------------------------------------

  NodeId add_terminal();
  int add_switch(std::size_t num_ports);
  void connect_terminal(NodeId terminal, int switch_id, std::size_t port);
  void connect_switches(int switch_a, std::size_t port_a, int switch_b, std::size_t port_b);

  /// Computes all-pairs source routes. Must follow all connect_* calls.
  /// When a route provider is installed (hierarchical fabrics), the O(N²)
  /// all-pairs table is skipped entirely and routes come from the provider.
  void finalize();

  /// Closed-form routing for topologies whose routes are computable from
  /// (src, dst) alone. Returns the switch output-port sequence, terminal
  /// exit port included, as inline Route bytes; empty only for src == dst.
  /// Install before finalize(). Nothing is cached: inject_at writes each
  /// packet's route from the provider, so routing memory is O(1).
  using RouteProviderFn = std::function<Route(NodeId, NodeId)>;
  void set_route_provider(RouteProviderFn fn) { route_provider_ = std::move(fn); }
  [[nodiscard]] bool has_route_provider() const { return static_cast<bool>(route_provider_); }

  // --- Use -------------------------------------------------------------------

  void set_deliver(NodeId terminal, DeliverFn fn);

  /// Injects `p` from its src_node terminal: writes its route for (src,
  /// dst), stamps the id, then moves it onto the terminal's uplink. Returns
  /// the time the sender's transmit channel frees up. Runs on the source
  /// terminal's lane.
  sim::SimTime inject(PacketPtr p);

  /// inject() for a packet its sender hands to the uplink at `ready` (>= the
  /// source lane's now): the NIC's SEND engine, whose FIFO completion time
  /// is known when the job is charged, injects in closed form through
  /// Link::transmit_at instead of from an event at `ready`.
  sim::SimTime inject_at(PacketPtr p, sim::SimTime ready);

  /// The route (switch output ports) from src to dst: the provider's inline
  /// bytes, or a view of the BFS table, whose bytes stay at the same
  /// address for the Network's lifetime. Pure, so any lane may call it.
  [[nodiscard]] Route route(NodeId src, NodeId dst) const;

  /// Number of switch hops between two terminals.
  [[nodiscard]] std::size_t hop_count(NodeId src, NodeId dst) const {
    return route(src, dst).size();
  }

  /// Attaches (or detaches, with nullptr) a causal tracer to every link and
  /// switch in the fabric. Call after the topology is fully built.
  void set_causal(sim::causal::CausalTracer* causal) {
    for (auto& l : links_) l->set_causal(causal);
    for (auto& s : switches_) s->set_causal(causal);
  }

  /// Reserves a fabric-unique packet id for traffic originating at `node`.
  /// NICs stamp ids at the SEND engine (before injection) so loopback
  /// packets and trace flow events share the same id space; inject() only
  /// stamps packets that don't have one yet. Ids are striped per node
  /// (seq * N + node + 1) rather than drawn from a global counter: each
  /// node allocates only from its own stripe, so the id of a packet depends
  /// only on that node's deterministic send order — never on how sends from
  /// different nodes (different PDES lanes) interleave in wall-clock time.
  [[nodiscard]] std::uint64_t allocate_packet_id(NodeId node) {
    return packet_seq_[node]++ * terminals_.size() + node + 1;
  }

  /// Binds every fabric element to its partition's lane and converts every
  /// link whose receiving end lives in a different partition than its
  /// transmitting end into a channel post (Link::set_remote_post). Call
  /// after the topology is fully built. Returns the minimum propagation
  /// delay among cross-partition links — the PDES lookahead — or
  /// Duration{0} when no link crosses a boundary.
  sim::Duration apply_partitioning(sim::pdes::PartitionedSimulator& pdes,
                                   const PartitionMap& map);

  // --- Introspection / fault injection ----------------------------------------

  [[nodiscard]] std::size_t terminal_count() const { return terminals_.size(); }
  [[nodiscard]] std::size_t switch_count() const { return switches_.size(); }
  [[nodiscard]] const LinkParams& link_params() const { return link_params_; }

  /// The directed link a terminal transmits on / receives from.
  [[nodiscard]] Link& uplink(NodeId terminal) { return *terminals_.at(terminal).up; }
  [[nodiscard]] Link& downlink(NodeId terminal) { return *terminals_.at(terminal).down; }

  [[nodiscard]] Switch& switch_at(int id) { return *switches_.at(static_cast<std::size_t>(id)); }

  /// Applies `fn` to every directed link in the fabric.
  void for_each_link(const std::function<void(Link&)>& fn) {
    for (auto& l : links_) fn(*l);
  }

  [[nodiscard]] std::uint64_t packets_injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  struct Terminal {
    Link* up = nullptr;    // terminal -> first switch
    Link* down = nullptr;  // last switch -> terminal
    int attached_switch = -1;
    std::size_t attached_port = 0;
    DeliverFn deliver;
  };

  /// One end of a directed link: a terminal (NodeId) or a switch (id).
  struct LinkEnd {
    bool is_switch = false;
    std::int64_t id = 0;
    [[nodiscard]] int partition(const PartitionMap& map) const {
      return is_switch ? map.switch_partition.at(static_cast<std::size_t>(id))
                       : map.terminal_partition.at(static_cast<std::size_t>(id));
    }
  };

  Link* new_link(std::string name, LinkEnd tail, LinkEnd head);

  sim::Simulator& sim_;
  LinkParams link_params_;
  SwitchParams switch_params_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Terminal> terminals_;
  // routes_[src * terminals + dst]; empty when a route provider is installed.
  std::vector<std::vector<std::uint8_t>> routes_;
  RouteProviderFn route_provider_;
  bool finalized_ = false;
  std::atomic<std::uint64_t> injected_{0};  // bumped by every lane's sends
  std::vector<std::uint64_t> packet_seq_;   // per-node id stripes (one writer each)
  std::vector<LinkEnd> link_tail_;          // per link, transmitting element
  std::vector<LinkEnd> link_head_;          // per link, receiving element

  // Switch-level adjacency: for each switch, (port -> peer switch) entries.
  struct SwitchEdge {
    int to_switch;
    std::uint8_t out_port;
  };
  std::vector<std::vector<SwitchEdge>> switch_adj_;
};

}  // namespace nicbar::net
