// MCP engine mechanics: DMA/PCI arbitration, processor serialization,
// cost scaling with message size and clock, and the NIC counters.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "host/cluster.hpp"

namespace nicbar {
namespace {

using namespace sim::literals;
using gm::GmEvent;
using nic::GmEventType;

host::ClusterParams two_nodes(nic::NicConfig cfg = nic::lanai43()) {
  host::ClusterParams p;
  p.nodes = 2;
  p.nic = std::move(cfg);
  return p;
}

double one_way_us(host::ClusterParams p, std::int64_t bytes) {
  host::Cluster cluster(p);
  auto src = cluster.open_port(0, 2);
  auto dst = cluster.open_port(1, 2);
  sim::SimTime arrived{};
  cluster.sim().spawn([](gm::Port& port, std::int64_t b, sim::SimTime* out,
                         sim::Simulator& sim) -> sim::Task {
    co_await port.provide_receive_buffer(b);
    (void)co_await port.receive();
    *out = sim.now();
  }(*dst, bytes, &arrived, cluster.sim()));
  cluster.sim().spawn([](gm::Port& port, std::int64_t b) -> sim::Task {
    co_await port.send(gm::Endpoint{1, 2}, b);
  }(*src, bytes));
  cluster.sim().run();
  return arrived.us();
}

TEST(McpEngineTest, LatencyGrowsWithMessageSize) {
  const double small = one_way_us(two_nodes(), 8);
  const double medium = one_way_us(two_nodes(), 4 * 1024);
  const double large = one_way_us(two_nodes(), 64 * 1024);
  EXPECT_LT(small, medium);
  EXPECT_LT(medium, large);
  // 64KB is segmented into 16 MTU fragments whose PCI crossings (132 MB/s,
  // ~497us total each way) pipeline with the wire (~410us): the slowest
  // stage dominates, several hundred us beyond the small message.
  EXPECT_GT(large - small, 400.0);
}

TEST(McpEngineTest, DoubleClockHalvesOnlyNicShare) {
  const double slow = one_way_us(two_nodes(nic::lanai43()), 8);
  nic::NicConfig fast = nic::lanai43();
  fast.clock_mhz = 66.0;  // keep 4.3's PCI so only the processor speeds up
  const double quick = one_way_us(two_nodes(fast), 8);
  EXPECT_LT(quick, slow);
  EXPECT_GT(quick, slow / 2.0);  // host/wire/PCI share does not halve
}

TEST(McpEngineTest, PciBusSharedBetweenSdmaAndRdma) {
  // Node 0 simultaneously sends (SDMA uses PCI) and receives (RDMA uses
  // PCI). Both crossings serialize on the one bus; the PCI busy-time equals
  // the sum of the transfers.
  host::Cluster cluster(two_nodes());
  auto p0 = cluster.open_port(0, 2);
  auto p1 = cluster.open_port(1, 2);
  cluster.sim().spawn([](gm::Port& port) -> sim::Task {
    co_await port.provide_receive_buffer(32 * 1024);
    co_await port.send(gm::Endpoint{1, 2}, 32 * 1024);
    (void)co_await port.receive();
  }(*p0));
  cluster.sim().spawn([](gm::Port& port) -> sim::Task {
    co_await port.provide_receive_buffer(32 * 1024);
    co_await port.send(gm::Endpoint{0, 2}, 32 * 1024);
    (void)co_await port.receive();
  }(*p1));
  cluster.sim().run();
  const sim::BusyServer& pci = cluster.node(0).pci;
  // 32KB segments into 8 MTU fragments: 8 SDMA + 8 RDMA crossings share
  // the one bus; total transfer time is the same 2 x 32KB plus setups.
  EXPECT_EQ(pci.jobs(), 16u);
  EXPECT_NEAR(pci.busy_total().us(), 2 * 32768.0 / 132.0 + 16 * 0.3, 6.0);
}

TEST(McpEngineTest, NicProcessorSerializesAllEngines) {
  // Many concurrent receives on one NIC: the processor's busy time must
  // be close to jobs x per-job cost, and utilization is meaningful.
  host::ClusterParams p;
  p.nodes = 5;
  host::Cluster cluster(p);
  std::vector<std::unique_ptr<gm::Port>> ports;
  auto sink = cluster.open_port(0, 2);
  cluster.sim().spawn([](gm::Port& port) -> sim::Task {
    for (int i = 0; i < 40; ++i) co_await port.provide_receive_buffer(64);
    for (int i = 0; i < 40; ++i) (void)co_await port.receive();
  }(*sink));
  for (net::NodeId i = 1; i < 5; ++i) {
    ports.push_back(cluster.open_port(i, 2));
    cluster.sim().spawn([](gm::Port& port) -> sim::Task {
      for (int k = 0; k < 10; ++k) co_await port.send(gm::Endpoint{0, 2}, 64);
    }(*ports.back()));
  }
  cluster.sim().run();
  const sim::BusyServer& proc = cluster.nic(0).processor().stats();
  // 40 receives (480cy) + 40 acks sent (30cy) + 40 RDMA setups (170cy) at
  // 33MHz is ~824us of processor time, plus queue delays.
  EXPECT_GT(proc.busy_total().us(), 700.0);
  EXPECT_GT(proc.queue_delay_total().us(), 0.0);
}

TEST(McpEngineTest, CountersBalanceAcrossANicPair) {
  host::Cluster cluster(two_nodes());
  auto p0 = cluster.open_port(0, 2);
  auto p1 = cluster.open_port(1, 2);
  cluster.sim().spawn([](gm::Port& port) -> sim::Task {
    for (int i = 0; i < 25; ++i) co_await port.provide_receive_buffer(64);
    for (int i = 0; i < 25; ++i) (void)co_await port.receive();
  }(*p1));
  cluster.sim().spawn([](gm::Port& port) -> sim::Task {
    for (int i = 0; i < 25; ++i) co_await port.send(gm::Endpoint{1, 2}, 64);
  }(*p0));
  cluster.sim().run();
  const nic::NicStats& s0 = cluster.nic(0).stats();
  const nic::NicStats& s1 = cluster.nic(1).stats();
  EXPECT_EQ(s0.data_sent, 25u);
  EXPECT_EQ(s1.data_received, 25u);
  EXPECT_EQ(s1.acks_sent, 25u);
  EXPECT_EQ(s0.acks_received, 25u);
  EXPECT_EQ(s1.events_delivered, 25u);
  EXPECT_EQ(s0.retransmissions, 0u);
  EXPECT_EQ(s0.nacks_received, 0u);
}

TEST(McpEngineTest, SentCallbackFiresOnAck) {
  host::Cluster cluster(two_nodes());
  auto p1 = cluster.open_port(1, 2);
  cluster.sim().spawn([](gm::Port& port) -> sim::Task {
    co_await port.provide_receive_buffer(64);
    (void)co_await port.receive();
  }(*p1));
  // Drive the NIC directly to exercise the send-token completion callback.
  bool sent = false;
  sim::SimTime sent_at{};
  nic::SendToken tok;
  tok.src_port = 2;
  tok.dst = gm::Endpoint{1, 2};
  tok.bytes = 64;
  sim::Simulator& sim = cluster.sim();
  tok.on_sent = [&sent, &sent_at, &sim] {
    sent = true;
    sent_at = sim.now();
  };
  sim::Mailbox<GmEvent> events(cluster.sim());
  cluster.nic(0).open_port(2, &events);
  cluster.nic(0).post_send_token(std::move(tok));
  cluster.sim().run();
  EXPECT_TRUE(sent);
  // Token return needs the round trip: data there, ack back.
  EXPECT_GT(sent_at.us(), 20.0);
}

TEST(McpEngineTest, RetransmissionTimerRecoversAckLossEventually) {
  host::ClusterParams p = two_nodes();
  p.nic.retransmit_timeout = 200_us;
  host::Cluster cluster(p);
  // Kill the first ack only: sender retires the token after one timeout.
  int acks_seen = 0;
  cluster.network().uplink(1).set_drop_predicate([&acks_seen](const net::Packet& pk) {
    if (pk.type == net::PacketType::kAck) {
      ++acks_seen;
      return acks_seen == 1;
    }
    return false;
  });
  auto p0 = cluster.open_port(0, 2);
  auto p1 = cluster.open_port(1, 2);
  std::vector<GmEvent> got;
  cluster.sim().spawn([](gm::Port& port, std::vector<GmEvent>* out) -> sim::Task {
    co_await port.provide_receive_buffer(64);
    out->push_back(co_await port.receive());
  }(*p1, &got));
  cluster.sim().spawn([](gm::Port& port) -> sim::Task {
    co_await port.send(gm::Endpoint{1, 2}, 64);
  }(*p0));
  cluster.sim().run(sim::SimTime{0} + 10_ms);
  EXPECT_EQ(got.size(), 1u);
  EXPECT_GT(cluster.nic(0).stats().retransmissions, 0u);
  EXPECT_GT(cluster.nic(1).stats().duplicates_dropped, 0u);
}

TEST(McpEngineTest, DroppedDataPacketIsRetransmitted) {
  host::ClusterParams p = two_nodes();
  p.nic.retransmit_timeout = 200_us;
  host::Cluster cluster(p);
  // Lose the first data packet only: the go-back-N timer resends it once.
  bool dropped = false;
  cluster.network().uplink(0).set_drop_predicate([&dropped](const net::Packet& pk) {
    if (!dropped && pk.type == net::PacketType::kData) {
      dropped = true;
      return true;
    }
    return false;
  });
  auto p0 = cluster.open_port(0, 2);
  auto p1 = cluster.open_port(1, 2);
  std::vector<GmEvent> got;
  cluster.sim().spawn([](gm::Port& port, std::vector<GmEvent>* out) -> sim::Task {
    co_await port.provide_receive_buffer(64);
    out->push_back(co_await port.receive());
  }(*p1, &got));
  cluster.sim().spawn([](gm::Port& port) -> sim::Task {
    co_await port.send(gm::Endpoint{1, 2}, 64);
  }(*p0));
  cluster.sim().run(sim::SimTime{0} + 10_ms);
  EXPECT_TRUE(dropped);
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(cluster.nic(0).stats().retransmissions, 1u);
  EXPECT_EQ(cluster.nic(1).stats().duplicates_dropped, 0u);
}

TEST(McpEngineTest, MaxRetransmissionsGivesUp) {
  host::ClusterParams p = two_nodes();
  p.nic.retransmit_timeout = 100_us;
  p.nic.max_retransmissions = 3;
  host::Cluster cluster(p);
  // Node 1 is unreachable: everything on node 0's uplink vanishes.
  cluster.network().uplink(0).set_drop_probability(1.0, 5);
  auto p0 = cluster.open_port(0, 2);
  auto p1 = cluster.open_port(1, 2);
  cluster.sim().spawn([](gm::Port& port) -> sim::Task {
    co_await port.send(gm::Endpoint{1, 2}, 64);
  }(*p0));
  cluster.sim().run(sim::SimTime{0} + 50_ms);
  // 3 retries then give up — not an infinite storm.
  EXPECT_EQ(cluster.nic(0).stats().retransmissions, 3u);
}

}  // namespace
}  // namespace nicbar
