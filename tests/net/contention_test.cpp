// Fabric contention behaviour: output-port serialization, trunk bottlenecks,
// and barrier traffic over multi-switch topologies.
#include <gtest/gtest.h>

#include <vector>

#include "coll/runner.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"

namespace nicbar {
namespace {

using net::NodeId;
using net::Packet;
using net::PacketPtr;
using sim::SimTime;
using sim::Simulator;

TEST(ContentionTest, ManyToOneSerializesOnDownlink) {
  Simulator sim;
  net::LinkParams lp;
  lp.bandwidth_mbps = 160.0;
  lp.propagation = sim::Duration{0};
  lp.header_bytes = 0;
  net::SwitchParams sp;
  sp.routing_latency = sim::Duration{0};
  net::Network net(sim, lp, sp);
  net::build_single_switch(net, 9);

  std::vector<SimTime> arrivals;
  net.set_deliver(8, [&](PacketPtr) { arrivals.push_back(sim.now()); });
  for (NodeId i = 0; i < 8; ++i) {
    Packet p;
    p.src_node = i;
    p.dst_node = 8;
    p.payload_bytes = 1600;  // 10us of wire each
    net.inject(net::make_packet(p));
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), 8u);
  // The switch->terminal link is the bottleneck: arrivals are spaced by a
  // full wire time (1601 bytes with the route byte).
  const double gap_us = sim::transfer_time(1601, 160.0).us();
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_NEAR((arrivals[i] - arrivals[i - 1]).us(), gap_us, 0.1) << i;
  }
}

TEST(ContentionTest, DisjointPairsDoNotInterfere) {
  Simulator sim;
  net::Network net(sim);
  net::build_single_switch(net, 8);
  std::vector<SimTime> arrivals(8);
  for (NodeId i = 4; i < 8; ++i) {
    net.set_deliver(i, [&, i](PacketPtr) { arrivals[i] = sim.now(); });
  }
  // 0->4, 1->5, 2->6, 3->7 simultaneously: a crossbar carries all four at
  // full rate; every arrival lands at the same instant.
  for (NodeId i = 0; i < 4; ++i) {
    Packet p;
    p.src_node = i;
    p.dst_node = static_cast<NodeId>(i + 4);
    p.payload_bytes = 1024;
    net.inject(net::make_packet(p));
  }
  sim.run();
  for (NodeId i = 5; i < 8; ++i) EXPECT_EQ(arrivals[i].ps(), arrivals[4].ps());
}

TEST(ContentionTest, ChainTrunkIsSharedBottleneck) {
  Simulator sim;
  net::LinkParams lp;
  lp.propagation = sim::Duration{0};
  lp.header_bytes = 0;
  net::SwitchParams sp;
  sp.routing_latency = sim::Duration{0};
  net::Network net(sim, lp, sp);
  net::build_switch_chain(net, 8, 4);  // two switches, trunk between them

  std::vector<SimTime> arrivals;
  for (NodeId d = 4; d < 8; ++d) {
    net.set_deliver(d, [&](PacketPtr) { arrivals.push_back(sim.now()); });
  }
  // All four left-side nodes send across the trunk to distinct right-side
  // nodes: despite distinct destinations, the trunk serializes them.
  for (NodeId i = 0; i < 4; ++i) {
    Packet p;
    p.src_node = i;
    p.dst_node = static_cast<NodeId>(i + 4);
    p.payload_bytes = 1600;
    net.inject(net::make_packet(p));
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), 4u);
  const double span = (arrivals.back() - arrivals.front()).us();
  // Spread over ~3 extra wire times, not simultaneous.
  EXPECT_GT(span, 2.5 * sim::transfer_time(1602, 160.0).us());
}

class BarrierOverTopology : public ::testing::TestWithParam<host::Topology> {};

TEST_P(BarrierOverTopology, NicPeBarrierCompletesEverywhere) {
  coll::ExperimentParams p;
  p.nodes = 16;
  p.reps = 10;
  p.spec.location = coll::Location::kNic;
  p.spec.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
  p.cluster.topology = GetParam();
  p.cluster.chain_per_switch = 4;
  p.cluster.tree_radix = 8;
  p.max_start_skew = sim::microseconds(100.0);
  const coll::ExperimentResult r = coll::run_barrier_experiment(p);
  EXPECT_EQ(r.barriers_completed, 16u * 10u);
  EXPECT_EQ(r.bit_collisions, 0u);
}

TEST_P(BarrierOverTopology, HostGbBarrierCompletesEverywhere) {
  coll::ExperimentParams p;
  p.nodes = 16;
  p.reps = 5;
  p.spec.location = coll::Location::kHost;
  p.spec.algorithm = nic::BarrierAlgorithm::kGatherBroadcast;
  p.spec.gb_dimension = 3;
  p.cluster.topology = GetParam();
  p.cluster.chain_per_switch = 4;
  p.cluster.tree_radix = 8;
  const coll::ExperimentResult r = coll::run_barrier_experiment(p);
  EXPECT_EQ(r.retransmissions, 0u);
  EXPECT_GT(r.mean_us, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Topologies, BarrierOverTopology,
                         ::testing::Values(host::Topology::kSingleSwitch,
                                           host::Topology::kSwitchChain,
                                           host::Topology::kSwitchTree),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case host::Topology::kSingleSwitch: return "SingleSwitch";
                             case host::Topology::kSwitchChain: return "Chain";
                             case host::Topology::kSwitchTree: return "Tree";
                             default: break;
                           }
                           return "?";
                         });

TEST(ContentionTest, MultiHopBarrierSlowerThanSingleSwitch) {
  auto mean_for = [](host::Topology t) {
    coll::ExperimentParams p;
    p.nodes = 16;
    p.reps = 30;
    p.spec.location = coll::Location::kNic;
    p.spec.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
    p.cluster.topology = t;
    p.cluster.chain_per_switch = 4;
    return coll::run_barrier_experiment(p).mean_us;
  };
  EXPECT_LT(mean_for(host::Topology::kSingleSwitch), mean_for(host::Topology::kSwitchChain));
}

}  // namespace
}  // namespace nicbar
