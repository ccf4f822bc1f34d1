// Packet ownership on every path where a packet dies before it is consumed.
//
// A packet in flight is one net::PacketPtr moved from hop to hop; whoever
// drops it frees it. Each case drives one drop path and then checks the
// fabric's packet conservation (every serialised packet delivered, dropped
// with a cause, or in flight). Under the ASan/LSan build the same cases prove
// that no dropped packet leaks and none is touched after it was freed: built
// with AddressSanitizer, the packet arena mallocs every block on its own and
// poisons the blocks on its free lists.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "host/cluster.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"

namespace nicbar {
namespace {

using net::Network;
using net::NodeId;
using net::Packet;
using net::PacketPtr;

PacketPtr packet_between(NodeId src, NodeId dst) {
  Packet p;
  p.src_node = src;
  p.dst_node = dst;
  p.payload_bytes = 8;
  return net::make_packet(p);
}

void expect_conserved(Network& net) {
  net.for_each_link([](net::Link& l) { EXPECT_NO_THROW(l.verify_conservation()) << l.name(); });
  for (std::size_t s = 0; s < net.switch_count(); ++s) {
    EXPECT_NO_THROW(net.switch_at(static_cast<int>(s)).verify_conservation()) << "switch " << s;
  }
}

// --- Fabric drop paths -----------------------------------------------------------

struct Fabric2 {
  sim::Simulator sim;
  Network net{sim};
  int delivered = 0;
  Fabric2() {
    net::build_single_switch(net, 2);
    net.set_deliver(1, [this](PacketPtr) { ++delivered; });
  }
};

TEST(PacketLifetimeTest, LinkDownFreesThePacketAtTheSender) {
  Fabric2 f;
  f.net.uplink(0).set_down_at(f.sim.now(), true);
  for (int i = 0; i < 5; ++i) f.net.inject(packet_between(0, 1));
  f.sim.run();
  EXPECT_EQ(f.delivered, 0);
  EXPECT_EQ(f.net.uplink(0).drops_while_down(), 5u);
  expect_conserved(f.net);
}

TEST(PacketLifetimeTest, BernoulliLossFreesDroppedPackets) {
  Fabric2 f;
  f.net.uplink(0).set_drop_probability(0.5, 11);
  for (int i = 0; i < 64; ++i) f.net.inject(packet_between(0, 1));
  f.sim.run();
  const net::Link& up = f.net.uplink(0);
  EXPECT_GT(up.packets_dropped(), 0u);
  EXPECT_GT(f.delivered, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(f.delivered) + up.packets_dropped(), 64u);
  expect_conserved(f.net);
}

TEST(PacketLifetimeTest, SwitchMisrouteFreesThePacket) {
  Fabric2 f;
  // No route bytes at all, then a route byte naming a port the switch lacks.
  static constexpr std::uint8_t kNoSuchPort[] = {7};
  f.net.uplink(0).transmit(packet_between(0, 1));
  PacketPtr bad = packet_between(0, 1);
  bad->route = net::Route::view(kNoSuchPort);
  f.net.uplink(0).transmit(std::move(bad));
  f.sim.run();
  EXPECT_EQ(f.delivered, 0);
  EXPECT_EQ(f.net.switch_at(0).packets_misrouted(), 2u);
  expect_conserved(f.net);
}

TEST(PacketLifetimeTest, SwitchPortDownFreesThePacket) {
  Fabric2 f;
  f.net.switch_at(0).set_port_down(1, true);  // the port node 1 hangs off
  for (int i = 0; i < 3; ++i) f.net.inject(packet_between(0, 1));
  f.sim.run();
  EXPECT_EQ(f.delivered, 0);
  EXPECT_EQ(f.net.switch_at(0).packets_dropped_port_down(), 3u);
  expect_conserved(f.net);
}

// --- NIC drop paths --------------------------------------------------------------

host::ClusterParams two_nodes() {
  host::ClusterParams p;
  p.nodes = 2;
  return p;
}

/// Posts `n` small reliable sends from `src` to port 2 of `dst`.
void send(host::Cluster& c, NodeId src, NodeId dst, int n) {
  for (int i = 0; i < n; ++i) {
    nic::SendToken t;
    t.src_port = 2;
    t.dst = nic::Endpoint{dst, 2};
    t.bytes = 8;
    c.nic(src).post_send_token(std::move(t));
  }
}

TEST(PacketLifetimeTest, CrashedNicDropsOnTransmit) {
  host::Cluster c(two_nodes());
  c.nic(0).crash();
  send(c, 0, 1, 3);
  c.run_all();
  EXPECT_EQ(c.nic(0).stats().tx_dropped_crashed, 3u);
  EXPECT_EQ(c.network().packets_injected(), 0u);
  expect_conserved(c.network());
}

TEST(PacketLifetimeTest, CrashedNicDropsOnReceive) {
  host::Cluster c(two_nodes());
  c.nic(1).crash();
  send(c, 0, 1, 2);
  c.run_all();  // node 0 retransmits until it gives node 1 up
  EXPECT_GT(c.nic(1).stats().rx_dropped_crashed, 0u);
  EXPECT_EQ(c.nic(0).stats().connections_failed, 1u);
  expect_conserved(c.network());
}

TEST(PacketLifetimeTest, CrcDropFreesThePacketAfterTheReceiveJob) {
  host::Cluster c(two_nodes());
  c.network().uplink(0).set_corrupt_probability(1.0, 5);
  send(c, 0, 1, 2);
  c.run_all();
  EXPECT_GT(c.nic(1).stats().crc_drops, 0u);
  EXPECT_EQ(c.nic(1).stats().crc_drops, c.network().uplink(0).packets_corrupted());
  expect_conserved(c.network());
}

TEST(PacketLifetimeTest, DeadPeerDropFreesThePacket) {
  host::Cluster c(two_nodes());
  c.nic(1).crash();
  send(c, 0, 1, 1);
  c.run_all();
  ASSERT_EQ(c.nic(0).stats().connections_failed, 1u);  // node 0 gave node 1 up
  c.nic(1).restart();
  send(c, 1, 0, 2);  // node 0 discards everything from the dead peer
  c.run_all();
  EXPECT_GT(c.nic(0).stats().dead_peer_drops, 0u);
  expect_conserved(c.network());
}

// --- Teardown with packets in flight ------------------------------------------------

std::uint64_t packets_in_fabric(Network& net) {
  std::uint64_t n = 0;
  // A packet in a switch's routing latency is already on its output link.
  net.for_each_link([&n](net::Link& l) { n += l.packets_in_flight(); });
  return n;
}

/// Runs in 1 us steps until packets are on the wires
/// (bounded); returns how many.
std::uint64_t run_until_in_flight(host::Cluster& c) {
  for (std::int64_t us = 1; us <= 1000; ++us) {
    c.run_all(sim::SimTime{us * 1'000'000});
    if (const std::uint64_t n = packets_in_fabric(c.network()); n > 0) return n;
  }
  return 0;
}

TEST(PacketLifetimeTest, ClusterDestroyedWithPacketsInFlight) {
  // Stop the run while packets sit on wires, in switch pipelines and in
  // engine queues; destroying the cluster must free every one of them.
  auto c = std::make_unique<host::Cluster>(two_nodes());
  send(*c, 0, 1, 16);
  send(*c, 1, 0, 16);
  EXPECT_GT(run_until_in_flight(*c), 0u);
  c.reset();
}

TEST(PacketLifetimeTest, PartitionedClusterDestroyedWithPacketsInFlight) {
  // Same on a partitioned fabric: packets queued in cross-lane channels and
  // allocated by worker threads are freed by the destroying thread.
  host::ClusterParams p;
  p.nodes = 16;
  p.topology = host::Topology::kFatTree;
  p.fabric_radix = 4;
  p.pdes_partitions = 4;
  p.pdes_workers = 4;
  auto c = std::make_unique<host::Cluster>(p);
  ASSERT_NE(c->pdes(), nullptr);
  for (NodeId n = 0; n < 16; ++n) send(*c, n, static_cast<NodeId>(15 - n), 4);
  EXPECT_GT(run_until_in_flight(*c), 0u);
  c.reset();
}

}  // namespace
}  // namespace nicbar
