#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"

namespace nicbar::net {
namespace {

using sim::Simulator;

void expect_all_pairs_reachable(Simulator& sim, Network& net) {
  const auto n = static_cast<NodeId>(net.terminal_count());
  std::vector<std::vector<int>> got(n, std::vector<int>(n, 0));
  for (NodeId t = 0; t < n; ++t) {
    net.set_deliver(t, [&, t](PacketPtr p) { ++got[p->src_node][t]; });
  }
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      Packet p;
      p.src_node = a;
      p.dst_node = b;
      p.payload_bytes = 4;
      net.inject(make_packet(p));
    }
  }
  sim.run();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      EXPECT_EQ(got[a][b], 1) << "pair " << a << "->" << b;
    }
  }
}

TEST(TopologyTest, SingleSwitchSizes) {
  for (std::size_t nodes : {2u, 4u, 8u, 16u}) {
    Simulator sim;
    Network net(sim);
    build_single_switch(net, nodes);
    EXPECT_EQ(net.terminal_count(), nodes);
    EXPECT_EQ(net.switch_count(), 1u);
    expect_all_pairs_reachable(sim, net);
  }
}

TEST(TopologyTest, SwitchChainReachability) {
  Simulator sim;
  Network net(sim);
  build_switch_chain(net, 12, 4);
  EXPECT_EQ(net.switch_count(), 3u);
  expect_all_pairs_reachable(sim, net);
}

TEST(TopologyTest, SwitchChainHopCountsGrowWithDistance) {
  Simulator sim;
  Network net(sim);
  build_switch_chain(net, 12, 4);
  // Terminals 0 and 1 share a switch (1 hop); 0 and 11 cross all three.
  EXPECT_EQ(net.hop_count(0, 1), 1u);
  EXPECT_EQ(net.hop_count(0, 11), 3u);
}

TEST(TopologyTest, SwitchTreeSmall) {
  Simulator sim;
  Network net(sim);
  build_switch_tree(net, 16, 8);
  expect_all_pairs_reachable(sim, net);
}

TEST(TopologyTest, SwitchTreeLarge) {
  Simulator sim;
  Network net(sim);
  build_switch_tree(net, 128, 16);
  EXPECT_EQ(net.terminal_count(), 128u);
  // Spot-check reachability on a few pairs (all-pairs is O(n^2) packets).
  int delivered = 0;
  for (NodeId t = 0; t < 128; ++t) net.set_deliver(t, [&](PacketPtr) { ++delivered; });
  const NodeId pairs[][2] = {{0, 127}, {0, 1}, {63, 64}, {127, 0}, {17, 91}};
  for (auto& pr : pairs) {
    Packet p;
    p.src_node = pr[0];
    p.dst_node = pr[1];
    net.inject(make_packet(p));
  }
  sim.run();
  EXPECT_EQ(delivered, 5);
}

TEST(TopologyTest, TreeRejectsBadRadix) {
  Simulator sim;
  Network net(sim);
  EXPECT_THROW(build_switch_tree(net, 8, 1), std::invalid_argument);
}

TEST(TopologyTest, ChainRejectsZeroPerSwitch) {
  Simulator sim;
  Network net(sim);
  EXPECT_THROW(build_switch_chain(net, 8, 0), std::invalid_argument);
}

TEST(TopologyTest, TreeHopCountReflectsDepth) {
  Simulator sim;
  Network net(sim);
  build_switch_tree(net, 32, 8);
  // Terminals on the same leaf: 1 hop. Terminals under different leaves: more.
  EXPECT_EQ(net.hop_count(0, 1), 1u);
  EXPECT_GT(net.hop_count(0, 31), 1u);
}

}  // namespace
}  // namespace nicbar::net
