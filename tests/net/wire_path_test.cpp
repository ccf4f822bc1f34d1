// Event budget of the wire path.
//
// A packet's SEND completion and each switch's routing latency are
// closed-form FIFO stages: the SEND engine hands the packet to its uplink
// (Network::inject_at) when the job is charged, and a switch hands it to
// the output link (Link::transmit_at) when it accepts the head. Neither
// stage has an event of its own any more. These pins count what that
// removed against the engine that still had both events:
//
//   events = events_with_stage_events − (link packets − packets)
//                                     − non-loopback packets sent
//
// (one routing event per switch hop, one SEND-completion event per packet
// that entered the fabric), and they pin the absolute counts, so an event
// that creeps back into the wire path fails here before it shows in a
// profile.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "coll/barrier.hpp"
#include "coll/sweep.hpp"
#include "host/cluster.hpp"
#include "wl/driver.hpp"

namespace nicbar {
namespace {

struct WireCounts {
  std::uint64_t events = 0;
  std::uint64_t link_packets = 0;  // serialised onto some wire, every hop counted
  std::uint64_t packets = 0;       // entered the fabric (non-loopback sends)
  std::int64_t total_ps = 0;       // latest member end
};

WireCounts run_job(const host::ClusterParams& cp, const coll::BarrierSpec& spec, int reps) {
  host::Cluster cluster(cp);
  wl::JobPlan job;
  for (std::size_t i = 0; i < cp.nodes; ++i) {
    job.members.push_back(nic::Endpoint{static_cast<net::NodeId>(i), 2});
    job.start_offsets.push_back(sim::Duration{0});
  }
  job.barrier = spec;
  job.iterations = reps;
  const std::vector<wl::MemberOutcome> out = wl::run_barrier_job(cluster, job, true);

  WireCounts c;
  for (const wl::MemberOutcome& m : out) {
    EXPECT_TRUE(m.finished);
    if (m.end.ps() > c.total_ps) c.total_ps = m.end.ps();
  }
  c.events = cluster.pdes() != nullptr ? cluster.pdes()->stats().events
                                       : cluster.sim().events_executed();
  c.packets = cluster.network().packets_injected();
  cluster.network().for_each_link([&c](net::Link& l) { c.link_packets += l.packets_sent(); });
  return c;
}

/// Counts measured on the engine that still scheduled the SEND-completion
/// and switch-routing events (same model, same timeline).
struct Pinned {
  std::uint64_t events_with_stage_events;
  std::uint64_t events;
  std::uint64_t link_packets;
  std::uint64_t packets;
  std::int64_t total_ps;
};

void expect_budget(const WireCounts& c, const Pinned& pin) {
  EXPECT_EQ(c.total_ps, pin.total_ps);
  EXPECT_EQ(c.link_packets, pin.link_packets);
  EXPECT_EQ(c.packets, pin.packets);
  EXPECT_EQ(c.events,
            pin.events_with_stage_events - (c.link_packets - c.packets) - c.packets);
  EXPECT_EQ(c.events, pin.events);
}

TEST(WirePathTest, NicPe16OnOneSwitch) {
  host::ClusterParams cp;
  cp.nodes = 16;
  const WireCounts c = run_job(
      cp, coll::spec(coll::Location::kNic, nic::BarrierAlgorithm::kPairwiseExchange), 20);
  expect_budget(c, Pinned{9936, 7376, 2560, 1280, 2020030120});
}

host::ClusterParams hier256() {
  host::ClusterParams cp;
  cp.nodes = 256;
  cp.topology = host::Topology::kFatTree;
  cp.fabric_radix = 18;
  cp.fabric_oversub = 8;
  return cp;
}

coll::BarrierSpec hier_spec() {
  coll::BarrierSpec spec =
      coll::spec(coll::Location::kNic, nic::BarrierAlgorithm::kGatherBroadcast, 3);
  spec.hierarchical = true;
  spec.hier_block = 16;  // one block per leaf (h = 16 at radix 18, 8:1)
  return spec;
}

const Pinned kHier256{26816, 20736, 6080, 2720, 1304480957};

TEST(WirePathTest, Hier256OnFatTree) { expect_budget(run_job(hier256(), hier_spec(), 5), kHier256); }

TEST(WirePathTest, Hier256OnFourLanesKeepsTheBudget) {
  // Partitioned: a packet bound across lanes is posted to the channel when
  // its SEND job or switch hop is decided, before it reaches the wire. The
  // lanes run the same events as the serial engine, no more.
  host::ClusterParams cp = hier256();
  cp.pdes_partitions = 4;
  cp.pdes_workers = 4;
  expect_budget(run_job(cp, hier_spec(), 5), kHier256);
}

}  // namespace
}  // namespace nicbar
