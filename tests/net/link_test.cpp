#include "net/link.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace nicbar::net {
namespace {

using namespace nicbar::sim::literals;
using sim::SimTime;
using sim::Simulator;

PacketPtr small_packet(std::int64_t payload = 8) {
  Packet p;
  p.type = PacketType::kData;
  p.src_node = 0;
  p.dst_node = 1;
  p.payload_bytes = payload;
  return make_packet(p);
}

TEST(LinkTest, DeliversAfterWireAndPropagation) {
  Simulator sim;
  LinkParams lp;
  lp.bandwidth_mbps = 160.0;
  lp.propagation = sim::nanoseconds(100);
  lp.header_bytes = 16;
  Link link(sim, lp, "l");
  std::vector<SimTime> arrivals;
  link.set_deliver([&](PacketPtr) { arrivals.push_back(sim.now()); });

  link.transmit(small_packet(8));  // wire bytes: 16 + 0 route + 8 = 24
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  // 24B @160MB/s = 150ns, +100ns propagation = 250ns.
  EXPECT_EQ(arrivals[0].ps(), 250'000);
}

TEST(LinkTest, BackToBackPacketsSerialize) {
  Simulator sim;
  LinkParams lp;
  lp.bandwidth_mbps = 160.0;
  lp.propagation = sim::Duration{0};
  lp.header_bytes = 0;
  Link link(sim, lp, "l");
  std::vector<SimTime> arrivals;
  link.set_deliver([&](PacketPtr) { arrivals.push_back(sim.now()); });

  link.transmit(small_packet(160));  // 1us of wire each
  link.transmit(small_packet(160));
  link.transmit(small_packet(160));
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0].ps(), (1_us).ps());
  EXPECT_EQ(arrivals[1].ps(), (2_us).ps());
  EXPECT_EQ(arrivals[2].ps(), (3_us).ps());
}

TEST(LinkTest, RouteBytesCountOnTheWire) {
  Simulator sim;
  LinkParams lp;
  lp.bandwidth_mbps = 160.0;
  lp.propagation = sim::Duration{0};
  lp.header_bytes = 16;
  Link link(sim, lp, "l");
  static constexpr std::uint8_t kRoute[] = {1, 2, 3};  // 3 route bytes
  PacketPtr p = small_packet(0);
  p->route = net::Route::view(kRoute);
  EXPECT_EQ(link.wire_time(*p).ps(), sim::transfer_time(19, 160.0).ps());
}

TEST(LinkTest, DropProbabilityOneKillsEverything) {
  Simulator sim;
  Link link(sim, LinkParams{}, "l");
  int delivered = 0;
  link.set_deliver([&](PacketPtr) { ++delivered; });
  link.set_drop_probability(1.0, 7);
  for (int i = 0; i < 10; ++i) link.transmit(small_packet());
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.packets_dropped(), 10u);
  EXPECT_EQ(link.packets_sent(), 10u);
}

TEST(LinkTest, DropPredicateSelective) {
  Simulator sim;
  Link link(sim, LinkParams{}, "l");
  std::vector<PacketType> delivered;
  link.set_deliver([&](PacketPtr p) { delivered.push_back(p->type); });
  link.set_drop_predicate([](const Packet& p) { return p.type == PacketType::kAck; });

  PacketPtr ack = small_packet();
  ack->type = PacketType::kAck;
  link.transmit(small_packet());
  link.transmit(std::move(ack));
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], PacketType::kData);
  EXPECT_EQ(link.packets_dropped(), 1u);
}

TEST(LinkTest, DroppedPacketStillBurnsWireTime) {
  Simulator sim;
  LinkParams lp;
  lp.bandwidth_mbps = 160.0;
  lp.propagation = sim::Duration{0};
  lp.header_bytes = 0;
  Link link(sim, lp, "l");
  std::vector<SimTime> arrivals;
  link.set_deliver([&](PacketPtr) { arrivals.push_back(sim.now()); });
  link.set_drop_predicate([](const Packet& p) { return p.tag == 1; });

  PacketPtr doomed = small_packet(160);
  doomed->tag = 1;
  link.transmit(std::move(doomed));     // burns 1us
  link.transmit(small_packet(160));     // queues behind it
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].ps(), (2_us).ps());
}

TEST(PacketTest, TypePredicates) {
  EXPECT_TRUE(is_barrier_payload(PacketType::kBarrierPe));
  EXPECT_TRUE(is_barrier_payload(PacketType::kBarrierGather));
  EXPECT_TRUE(is_barrier_payload(PacketType::kBarrierBcast));
  EXPECT_FALSE(is_barrier_payload(PacketType::kData));
  EXPECT_FALSE(is_barrier_payload(PacketType::kBarrierAck));
  EXPECT_TRUE(is_control(PacketType::kAck));
  EXPECT_TRUE(is_control(PacketType::kNack));
  EXPECT_TRUE(is_control(PacketType::kBarrierNack));
  EXPECT_FALSE(is_control(PacketType::kData));
}

}  // namespace
}  // namespace nicbar::net
