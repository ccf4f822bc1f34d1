// §3.3/§4.4: barrier reliability modes, ordering guarantees, loss recovery.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coll/barrier.hpp"
#include "host/cluster.hpp"

namespace nicbar {
namespace {

using namespace sim::literals;
using coll::BarrierMember;
using nic::BarrierAlgorithm;
using nic::BarrierReliability;

host::ClusterParams params_with(BarrierReliability mode, std::size_t nodes = 4) {
  host::ClusterParams cp;
  cp.nodes = nodes;
  cp.nic.barrier_reliability = mode;
  cp.nic.retransmit_timeout = sim::microseconds(300.0);
  return cp;
}

coll::BarrierSpec nic_pe() {
  coll::BarrierSpec s;
  s.location = coll::Location::kNic;
  s.algorithm = BarrierAlgorithm::kPairwiseExchange;
  return s;
}

int run_barriers(host::Cluster& cluster, int reps, std::size_t nodes,
                 sim::Duration horizon = sim::milliseconds(500.0)) {
  std::vector<gm::Endpoint> group;
  for (std::size_t i = 0; i < nodes; ++i) {
    group.push_back(gm::Endpoint{static_cast<net::NodeId>(i), 2});
  }
  std::vector<std::unique_ptr<gm::Port>> ports;
  std::vector<std::unique_ptr<BarrierMember>> members;
  int completed = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    ports.push_back(cluster.open_port(static_cast<net::NodeId>(i), 2));
    members.push_back(std::make_unique<BarrierMember>(*ports.back(), group, nic_pe()));
    cluster.sim().spawn([](BarrierMember& m, int r, int* done) -> sim::Task {
      for (int k = 0; k < r; ++k) co_await m.run();
      ++*done;
    }(*members.back(), reps, &completed));
  }
  cluster.sim().run(sim::SimTime{0} + horizon);
  return completed;
}

class ReliabilityModes : public ::testing::TestWithParam<BarrierReliability> {};

TEST_P(ReliabilityModes, LosslessFabricCompletes) {
  host::Cluster cluster(params_with(GetParam()));
  EXPECT_EQ(run_barriers(cluster, 20, 4), 4);
}

TEST_P(ReliabilityModes, StaggeredStartsComplete) {
  host::Cluster cluster(params_with(GetParam(), 8));
  std::vector<gm::Endpoint> group;
  for (net::NodeId i = 0; i < 8; ++i) group.push_back(gm::Endpoint{i, 2});
  std::vector<std::unique_ptr<gm::Port>> ports;
  std::vector<std::unique_ptr<BarrierMember>> members;
  int done = 0;
  for (net::NodeId i = 0; i < 8; ++i) {
    ports.push_back(cluster.open_port(i, 2));
    members.push_back(std::make_unique<BarrierMember>(*ports.back(), group, nic_pe()));
    cluster.sim().spawn([](sim::Simulator& sim, BarrierMember& m, sim::Duration d,
                           int* counter) -> sim::Task {
      co_await sim.delay(d);
      for (int k = 0; k < 5; ++k) co_await m.run();
      ++*counter;
    }(cluster.sim(), *members.back(), sim::microseconds(61.0 * i), &done));
  }
  cluster.sim().run();
  EXPECT_EQ(done, 8);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ReliabilityModes,
                         ::testing::Values(BarrierReliability::kUnreliable,
                                           BarrierReliability::kSharedStream,
                                           BarrierReliability::kSeparateAcks),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case BarrierReliability::kUnreliable: return "Unreliable";
                             case BarrierReliability::kSharedStream: return "SharedStream";
                             case BarrierReliability::kSeparateAcks: return "SeparateAcks";
                           }
                           return "?";
                         });

TEST(BarrierLossTest, UnreliableModeHangsOnLostBarrierPacket) {
  host::Cluster cluster(params_with(BarrierReliability::kUnreliable, 2));
  // Drop exactly the first barrier payload on node 0's uplink.
  bool dropped = false;
  cluster.network().uplink(0).set_drop_predicate([&dropped](const net::Packet& p) {
    if (!dropped && net::is_barrier_payload(p.type)) {
      dropped = true;
      return true;
    }
    return false;
  });
  // Node 0's message to node 1 is lost and never resent: node 1 hangs
  // forever (§3.3: "a lost barrier message could hang processes
  // indefinitely"). Node 0 still received node 1's message and completes.
  EXPECT_EQ(run_barriers(cluster, 1, 2, sim::milliseconds(100.0)), 1);
}

TEST(BarrierLossTest, SharedStreamRecoversLostBarrierPacket) {
  host::Cluster cluster(params_with(BarrierReliability::kSharedStream, 2));
  bool dropped = false;
  cluster.network().uplink(0).set_drop_predicate([&dropped](const net::Packet& p) {
    if (!dropped && net::is_barrier_payload(p.type)) {
      dropped = true;
      return true;
    }
    return false;
  });
  EXPECT_EQ(run_barriers(cluster, 5, 2), 2);
  EXPECT_GT(cluster.nic(0).stats().retransmissions, 0u);
}

TEST(BarrierLossTest, SeparateAcksRecoversLostBarrierPacket) {
  host::Cluster cluster(params_with(BarrierReliability::kSeparateAcks, 2));
  bool dropped = false;
  cluster.network().uplink(0).set_drop_predicate([&dropped](const net::Packet& p) {
    if (!dropped && net::is_barrier_payload(p.type)) {
      dropped = true;
      return true;
    }
    return false;
  });
  EXPECT_EQ(run_barriers(cluster, 5, 2), 2);
  EXPECT_GT(cluster.nic(0).stats().retransmissions, 0u);
}

TEST(BarrierLossTest, SeparateAcksSurvivesSustainedLoss) {
  host::Cluster cluster(params_with(BarrierReliability::kSeparateAcks, 4));
  std::uint64_t seed = 11;
  cluster.network().for_each_link([&](net::Link& l) {
    l.set_drop_probability(0.05, seed++);
  });
  EXPECT_EQ(run_barriers(cluster, 10, 4, sim::seconds(2.0)), 4);
}

TEST(BarrierLossTest, SharedStreamSurvivesSustainedLoss) {
  host::Cluster cluster(params_with(BarrierReliability::kSharedStream, 4));
  std::uint64_t seed = 13;
  cluster.network().for_each_link([&](net::Link& l) {
    l.set_drop_probability(0.05, seed++);
  });
  EXPECT_EQ(run_barriers(cluster, 10, 4, sim::seconds(2.0)), 4);
}

TEST(BarrierOrderingTest, SharedStreamPreservesDataBarrierOrder) {
  // §3.3: with the shared stream, a data message sent *before* the barrier
  // is received before the barrier completes at the receiver.
  host::Cluster cluster(params_with(BarrierReliability::kSharedStream, 2));
  auto p0 = cluster.open_port(0, 2);
  auto p1 = cluster.open_port(1, 2);
  std::vector<gm::Endpoint> group{{0, 2}, {1, 2}};

  std::vector<std::string> order;
  // Node 0: send a data message, then immediately enter the barrier.
  cluster.sim().spawn([](gm::Port& port, std::vector<gm::Endpoint> g) -> sim::Task {
    co_await port.send(gm::Endpoint{1, 2}, 64, 42);
    BarrierMember m(port, g, coll::BarrierSpec{coll::Location::kNic,
                                               BarrierAlgorithm::kPairwiseExchange, 2});
    co_await m.run();
  }(*p0, group));
  // Node 1: enter the barrier, then receive; the data event must already be
  // queued before the completion event.
  cluster.sim().spawn([](gm::Port& port, std::vector<gm::Endpoint> /*group*/,
                         std::vector<std::string>* log) -> sim::Task {
    co_await port.provide_receive_buffer(64);
    nic::BarrierToken tok;
    tok.algorithm = BarrierAlgorithm::kPairwiseExchange;
    tok.peers = {gm::Endpoint{0, 2}};
    co_await port.provide_barrier_buffer();
    (void)co_await port.barrier_send(std::move(tok));
    for (int i = 0; i < 2; ++i) {
      const gm::GmEvent ev = co_await port.receive();
      log->push_back(ev.type == gm::GmEventType::kRecv ? "data" : "barrier");
    }
  }(*p1, group, &order));
  cluster.sim().run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "data");
  EXPECT_EQ(order[1], "barrier");
}

TEST(BarrierOrderingTest, UnreliableModeCanReorderAroundData) {
  // Without the shared stream, a *large* data message sent before the
  // barrier can be overtaken: the barrier message needs no DMA and no ack
  // handshake, so the completion event can beat the data event.
  host::Cluster cluster(params_with(BarrierReliability::kUnreliable, 2));
  auto p0 = cluster.open_port(0, 2);
  auto p1 = cluster.open_port(1, 2);
  std::vector<gm::Endpoint> group{{0, 2}, {1, 2}};

  std::vector<std::string> order;
  cluster.sim().spawn([](gm::Port& port, std::vector<gm::Endpoint> g) -> sim::Task {
    co_await port.send(gm::Endpoint{1, 2}, 64 * 1024, 42);  // big: slow DMA
    BarrierMember m(port, g, coll::BarrierSpec{coll::Location::kNic,
                                               BarrierAlgorithm::kPairwiseExchange, 2});
    co_await m.run();
  }(*p0, group));
  cluster.sim().spawn([](gm::Port& port, std::vector<gm::Endpoint> /*group*/,
                         std::vector<std::string>* log) -> sim::Task {
    co_await port.provide_receive_buffer(64 * 1024);
    nic::BarrierToken tok;
    tok.algorithm = BarrierAlgorithm::kPairwiseExchange;
    tok.peers = {gm::Endpoint{0, 2}};
    co_await port.provide_barrier_buffer();
    (void)co_await port.barrier_send(std::move(tok));
    for (int i = 0; i < 2; ++i) {
      const gm::GmEvent ev = co_await port.receive();
      log->push_back(ev.type == gm::GmEventType::kRecv ? "data" : "barrier");
    }
  }(*p1, group, &order));
  cluster.sim().run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "barrier");  // overtook the large data message
  EXPECT_EQ(order[1], "data");
}

TEST(BarrierLossTest, AckLossIsToleratedBySeparateAcks) {
  host::Cluster cluster(params_with(BarrierReliability::kSeparateAcks, 2));
  cluster.network().uplink(1).set_drop_predicate(
      [](const net::Packet& p) { return p.type == net::PacketType::kBarrierAck; });
  // Barrier acks from node 1 all vanish; node 0's barrier packets are
  // retransmitted until... acks never arrive, but duplicates are dropped by
  // the barrier seq check and the barrier itself still completes.
  EXPECT_EQ(run_barriers(cluster, 3, 2, sim::seconds(1.0)), 2);
  EXPECT_GT(cluster.nic(1).stats().duplicates_dropped, 0u);
}

}  // namespace
}  // namespace nicbar
