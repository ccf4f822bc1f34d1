// Collective members view their caller's roster instead of copying it
// (DESIGN §16). These tests pin what the view must keep: a peer death
// anywhere in the group aborts the member, even for a node its own schedule
// never addresses, while a death outside the group is ignored; and a
// temporary roster is a compile error, not a dangling view.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <type_traits>
#include <vector>

#include "coll/barrier.hpp"
#include "coll/group.hpp"
#include "host/cluster.hpp"
#include "rma/barrier.hpp"

namespace nicbar {
namespace {

using coll::BarrierMember;
using coll::BarrierSpec;
using coll::BarrierStatus;
using coll::GroupMember;
using nic::BarrierAlgorithm;
using nic::Endpoint;

// A member built from a temporary roster would outlive it.
static_assert(std::is_constructible_v<BarrierMember, gm::Port&, std::vector<Endpoint>&,
                                      BarrierSpec>);
static_assert(!std::is_constructible_v<BarrierMember, gm::Port&, std::vector<Endpoint>&&,
                                       BarrierSpec>);
static_assert(!std::is_constructible_v<BarrierMember, gm::Port&, std::vector<Endpoint>,
                                       BarrierSpec>);
static_assert(std::is_constructible_v<GroupMember, gm::Port&, std::vector<Endpoint>&,
                                      coll::GroupConfig>);
static_assert(!std::is_constructible_v<GroupMember, gm::Port&, std::vector<Endpoint>&&,
                                       coll::GroupConfig>);
static_assert(!std::is_constructible_v<rma::DisseminationBarrier, rma::Domain&, rma::Segment&,
                                       std::vector<Endpoint>&&, std::size_t>);
static_assert(!std::is_constructible_v<rma::TreePutBarrier, rma::Domain&, rma::Segment&,
                                       std::vector<Endpoint>&&, std::size_t, std::size_t>);

// Eight group nodes in a permuted order out of ten cluster nodes (8 and 9
// are not members), two ports per node: every NIC hosts two members, the
// port-2 ones in kNodeOrder and then the port-3 ones in kNodeOrder rotated
// by one, so the two members on one NIC have different schedules.
constexpr std::size_t kClusterNodes = 10;
const std::vector<net::NodeId> kNodeOrder = {5, 2, 7, 0, 3, 6, 1, 4};
constexpr net::NodeId kNonMember = 9;

host::ClusterParams cluster_params() {
  host::ClusterParams cp;
  cp.nodes = kClusterNodes;
  return cp;
}

std::vector<Endpoint> two_port_roster() {
  std::vector<Endpoint> group;
  const std::size_t n = kNodeOrder.size();
  for (std::size_t i = 0; i < n; ++i) group.push_back(Endpoint{kNodeOrder[i], 2});
  for (std::size_t i = 0; i < n; ++i) group.push_back(Endpoint{kNodeOrder[(i + 1) % n], 3});
  return group;
}

/// Every node the member's schedule addresses, plus its own.
std::set<net::NodeId> schedule_nodes(const BarrierMember& m, const std::vector<Endpoint>& group) {
  std::set<net::NodeId> nodes{group[m.my_index()].node};
  for (const Endpoint& e : m.pe_peers()) nodes.insert(e.node);
  for (const coll::GbTreeSlice* s : {&m.gb_slice(), &m.hier_intra_slice()}) {
    if (!s->is_root()) nodes.insert(s->parent.node);
    for (const Endpoint& e : s->children) nodes.insert(e.node);
  }
  for (const Endpoint& e : m.hier_rep_peers()) nodes.insert(e.node);
  const std::size_t block = m.spec().hier_block;
  if (m.spec().hierarchical && block > 0) {
    // Block mates: the release source and the release fan-out.
    const std::size_t lo = m.my_index() / block * block;
    for (std::size_t i = lo; i < std::min(lo + block, group.size()); ++i) {
      nodes.insert(group[i].node);
    }
  }
  return nodes;
}

/// A group node the member's schedule never addresses.
std::optional<net::NodeId> outside_schedule(const BarrierMember& m,
                                            const std::vector<Endpoint>& group) {
  const std::set<net::NodeId> sched = schedule_nodes(m, group);
  for (const Endpoint& e : group) {
    if (!sched.contains(e.node)) return e.node;
  }
  return std::nullopt;
}

BarrierSpec nic_pe() { return BarrierSpec{}; }
BarrierSpec nic_gb() {
  return BarrierSpec{.algorithm = BarrierAlgorithm::kGatherBroadcast, .gb_dimension = 2};
}
BarrierSpec host_pe() { return BarrierSpec{.location = coll::Location::kHost}; }
BarrierSpec hier() { return BarrierSpec{.hierarchical = true, .hier_block = 4}; }

TEST(RosterView, PeerDeathOutsideTheScheduleStillAborts) {
  for (const BarrierSpec& spec : {nic_pe(), nic_gb(), host_pe(), hier()}) {
    host::Cluster cluster(cluster_params());
    const std::vector<Endpoint> group = two_port_roster();
    std::vector<std::unique_ptr<gm::Port>> ports;
    std::vector<std::unique_ptr<BarrierMember>> members;
    for (const Endpoint& e : group) {
      ports.push_back(cluster.open_port(e.node, e.port));
      members.push_back(std::make_unique<BarrierMember>(*ports.back(), group, spec));
    }
    std::size_t checked = 0;
    for (const auto& m : members) {
      const std::optional<net::NodeId> far = outside_schedule(*m, group);
      if (!far.has_value()) continue;
      m->note_peer_dead(kNonMember);
      EXPECT_FALSE(m->peer_failed()) << "a node outside the group must be ignored";
      m->note_peer_dead(*far);
      EXPECT_TRUE(m->peer_failed()) << "member " << m->my_index() << ", dead node " << *far;
      ++checked;
    }
    EXPECT_GE(checked, group.size() / 2) << "too few members have an unaddressed group node";

    // A poisoned member returns kPeerDead at once, without touching the wire.
    ASSERT_TRUE(members[1]->peer_failed());
    std::optional<BarrierStatus> st;
    cluster.sim().spawn([](BarrierMember& m, std::optional<BarrierStatus>* out) -> sim::Task {
      *out = co_await m.run();
    }(*members[1], &st));
    cluster.sim().run();
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(*st, BarrierStatus::kPeerDead);
  }
}

/// Runs barriers on every member until one fails or `until` passes.
sim::Task barrier_loop(sim::Simulator& sim, BarrierMember& m, sim::SimTime until,
                       BarrierStatus* out) {
  while (sim.now() < until) {
    const BarrierStatus st = co_await m.run();
    *out = st;
    if (st != BarrierStatus::kOk) co_return;
  }
}

TEST(RosterView, PeerDeadEventForAnUnaddressedGroupNodeAborts) {
  // Node `dead`'s NIC crashes. On node `n` the port-3 member exchanges with
  // it, so n's NIC gives up on the connection and raises kPeerDead on every
  // open port, including the port-2 member whose schedule never addresses
  // `dead`. That member must abort with kPeerDead, not wait for its
  // deadline: the group cannot complete without `dead`.
  const std::vector<Endpoint> group = two_port_roster();
  host::Cluster probe(cluster_params());
  std::size_t victim = group.size();
  net::NodeId dead = 0;
  {
    std::vector<std::unique_ptr<gm::Port>> ports;
    for (const Endpoint& e : group) ports.push_back(probe.open_port(e.node, e.port));
    for (std::size_t a = 0; a < kNodeOrder.size() && victim == group.size(); ++a) {
      const auto b = static_cast<std::size_t>(
          std::find(group.begin(), group.end(), Endpoint{group[a].node, 3}) - group.begin());
      const BarrierMember ma(*ports[a], group, nic_pe());
      const BarrierMember mb(*ports[b], group, nic_pe());
      const std::set<net::NodeId> own = schedule_nodes(ma, group);
      for (const Endpoint& e : mb.pe_peers()) {
        if (!own.contains(e.node)) {
          victim = a;
          dead = e.node;
          break;
        }
      }
    }
  }
  ASSERT_LT(victim, group.size()) << "no co-located member addresses a node the other does not";

  host::ClusterParams cp = cluster_params();
  cp.nic.barrier_reliability = nic::BarrierReliability::kSharedStream;
  cp.nic.max_retransmissions = 4;
  cp.faults.nic_crashes.push_back({dead, sim::SimTime{0} + sim::microseconds(150.0)});
  host::Cluster cluster(cp);
  BarrierSpec spec = nic_pe();
  spec.deadline = sim::milliseconds(30.0);
  std::vector<std::unique_ptr<gm::Port>> ports;
  std::vector<std::unique_ptr<BarrierMember>> members;
  std::vector<BarrierStatus> last(group.size(), BarrierStatus::kOk);
  const sim::SimTime until = sim::SimTime{0} + sim::seconds(1.0);
  for (std::size_t i = 0; i < group.size(); ++i) {
    ports.push_back(cluster.open_port(group[i].node, group[i].port));
    members.push_back(std::make_unique<BarrierMember>(*ports.back(), group, spec));
    cluster.sim().spawn(barrier_loop(cluster.sim(), *members[i], until, &last[i]));
  }
  cluster.sim().run(until);
  EXPECT_GT(cluster.nic(group[victim].node).stats().connections_failed, 0u);
  EXPECT_EQ(last[victim], BarrierStatus::kPeerDead)
      << "member " << victim << " on node " << group[victim].node << ", dead node " << dead;
}

TEST(RosterView, PeerDeadEventForANonMemberIsIgnored) {
  // Node 0's NIC also carries reliable data to node 9, which is not in the
  // group and crashes. Its kPeerDead reaches node 0's barrier members, who
  // must ignore it and keep completing barriers.
  const std::vector<Endpoint> group = two_port_roster();
  host::ClusterParams cp = cluster_params();
  cp.nic.barrier_reliability = nic::BarrierReliability::kSharedStream;
  cp.nic.max_retransmissions = 4;
  cp.faults.nic_crashes.push_back({kNonMember, sim::SimTime{0} + sim::microseconds(1.0)});
  host::Cluster cluster(cp);
  std::vector<std::unique_ptr<gm::Port>> ports;
  std::vector<std::unique_ptr<BarrierMember>> members;
  std::vector<BarrierStatus> last(group.size(), BarrierStatus::kDeadline);
  const sim::SimTime until = sim::SimTime{0} + sim::milliseconds(100.0);
  for (std::size_t i = 0; i < group.size(); ++i) {
    ports.push_back(cluster.open_port(group[i].node, group[i].port));
    members.push_back(std::make_unique<BarrierMember>(*ports.back(), group, nic_pe()));
    cluster.sim().spawn(barrier_loop(cluster.sim(), *members[i], until, &last[i]));
  }
  std::unique_ptr<gm::Port> data = cluster.open_port(0, 4);
  cluster.sim().spawn([](gm::Port& p) -> sim::Task {
    co_await p.send(Endpoint{kNonMember, 2}, 64);
  }(*data));
  cluster.sim().run(until + sim::milliseconds(10.0));
  EXPECT_EQ(cluster.nic(0).stats().connections_failed, 1u);
  for (std::size_t i = 0; i < group.size(); ++i) {
    EXPECT_EQ(last[i], BarrierStatus::kOk) << "member " << i;
    EXPECT_FALSE(members[i]->peer_failed()) << "member " << i;
  }
}

TEST(RosterView, GroupMemberAbortsOnAnUnaddressedGroupNodeOnly) {
  const std::vector<Endpoint> group = two_port_roster();
  host::Cluster cluster(cluster_params());
  std::vector<std::unique_ptr<gm::Port>> ports;
  std::vector<std::unique_ptr<GroupMember>> members;
  coll::GroupConfig cfg{.id = 7, .deadline = sim::milliseconds(5.0)};
  for (const Endpoint& e : group) {
    ports.push_back(cluster.open_port(e.node, e.port));
    members.push_back(std::make_unique<GroupMember>(*ports.back(), group, cfg));
  }
  // Member 1's PE schedule over 16 entries addresses indices 0, 3, 5 and 9.
  const std::set<net::NodeId> addressed = {group[0].node, group[1].node, group[3].node,
                                           group[5].node, group[9].node};
  net::NodeId far = net::kInvalidNode;
  for (const Endpoint& e : group) {
    if (!addressed.contains(e.node)) far = e.node;
  }
  ASSERT_NE(far, net::kInvalidNode);

  std::vector<BarrierStatus> create(group.size()), first(group.size()), second(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    cluster.sim().spawn([](sim::Simulator& sim, GroupMember& m, std::size_t me, net::NodeId dead,
                           BarrierStatus* c, BarrierStatus* a, BarrierStatus* b) -> sim::Task {
      *c = co_await m.run_create();
      if (me == 1) m.note_peer_dead(kNonMember);
      *a = co_await m.run_barrier();
      // Let every member finish the first barrier before the poison.
      co_await sim.delay(sim::microseconds(500.0));
      if (me == 1) m.note_peer_dead(dead);
      *b = co_await m.run_barrier();
    }(cluster.sim(), *members[i], i, far, &create[i], &first[i], &second[i]));
  }
  cluster.sim().run();
  for (std::size_t i = 0; i < group.size(); ++i) {
    EXPECT_EQ(create[i], BarrierStatus::kOk) << "member " << i;
    EXPECT_EQ(first[i], BarrierStatus::kOk) << "member " << i;
  }
  EXPECT_EQ(second[1], BarrierStatus::kPeerDead);
  EXPECT_EQ(members[1]->state(), coll::GroupState::kFailed);
}

TEST(RosterView, UnreliableBarrierTrafficNeverAllocatesSentLists) {
  // Unreliable-mode barrier packets bypass both reliability streams, so
  // their connections never allocate retransmission storage; the shared
  // and separate-ack modes allocate exactly the list they use.
  using nic::BarrierReliability;
  for (BarrierReliability mode :
       {BarrierReliability::kUnreliable, BarrierReliability::kSharedStream,
        BarrierReliability::kSeparateAcks}) {
    host::ClusterParams cp;
    cp.nodes = 8;
    cp.nic.barrier_reliability = mode;
    host::Cluster cluster(cp);
    std::vector<Endpoint> group;
    for (net::NodeId i = 0; i < 8; ++i) group.push_back(Endpoint{i, 2});
    std::vector<std::unique_ptr<gm::Port>> ports;
    std::vector<std::unique_ptr<BarrierMember>> members;
    std::vector<BarrierStatus> last(group.size(), BarrierStatus::kDeadline);
    const sim::SimTime until = sim::SimTime{0} + sim::microseconds(500.0);
    for (std::size_t i = 0; i < group.size(); ++i) {
      ports.push_back(cluster.open_port(group[i].node, 2));
      members.push_back(std::make_unique<BarrierMember>(*ports.back(), group, nic_pe()));
      cluster.sim().spawn(barrier_loop(cluster.sim(), *members[i], until, &last[i]));
    }
    cluster.sim().run();
    std::size_t connections = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
      EXPECT_EQ(last[i], BarrierStatus::kOk);
      const nic::Nic& nic = cluster.nic(group[i].node);
      for (const Endpoint& peer : members[i]->pe_peers()) {
        const nic::Connection& c = nic.connection(peer.node);
        EXPECT_EQ(c.sent_list.allocated(), mode == BarrierReliability::kSharedStream);
        EXPECT_EQ(c.barrier_sent_list.allocated(), mode == BarrierReliability::kSeparateAcks);
        ++connections;
      }
    }
    EXPECT_EQ(connections, 8u * 3u);
  }
}

}  // namespace
}  // namespace nicbar
