// Link outages are a function of time.
//
// A packet's hop is decided before it reaches the wire: the SEND engine
// hands it to the uplink when the job is charged, a switch hands it to the
// output link when it accepts the head. Whether the cable is unplugged must
// therefore be asked at the packet's ready time (Link::down_at), not at the
// moment the hop is decided. Each case below opens an outage strictly
// inside a SEND job on node 1 (uplink t1->sw0) or inside a switch's routing
// latency for a packet bound to node 5 (downlink sw0->t5), or lets two
// windows overlap or touch at a packet's ready instant. The goldens are the
// outcomes of the engine that still ran one event per SEND completion, per
// routing hop and per outage toggle: total simulated time, packets lost to
// the outage, and retransmissions. Deciding the outage at submission
// instead of at the ready time moves many of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "coll/sweep.hpp"
#include "host/cluster.hpp"
#include "sim/causal.hpp"
#include "sim/telemetry.hpp"
#include "wl/driver.hpp"

namespace nicbar {
namespace {

using sim::SimTime;
using sim::microseconds;

constexpr std::size_t kNodes = 8;
constexpr int kReps = 30;

host::ClusterParams params() {
  host::ClusterParams cp;
  cp.nodes = kNodes;
  cp.nic.barrier_reliability = nic::BarrierReliability::kSharedStream;
  return cp;
}

struct Outcome {
  std::int64_t total_ps = 0;
  std::uint64_t down_drops = 0;
  std::uint64_t retransmissions = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome run(host::Cluster& cluster) {
  wl::JobPlan job;
  for (std::size_t i = 0; i < kNodes; ++i) {
    job.members.push_back(nic::Endpoint{static_cast<net::NodeId>(i), 2});
    job.start_offsets.push_back(sim::Duration{0});
  }
  job.barrier = coll::spec(coll::Location::kNic, nic::BarrierAlgorithm::kPairwiseExchange);
  job.iterations = kReps;
  Outcome o;
  for (const wl::MemberOutcome& m : wl::run_barrier_job(cluster, job, true)) {
    EXPECT_TRUE(m.finished && !m.failed);
    if (m.end.ps() > o.total_ps) o.total_ps = m.end.ps();
  }
  cluster.network().for_each_link([&o](net::Link& l) { o.down_drops += l.drops_while_down(); });
  for (std::size_t i = 0; i < kNodes; ++i) {
    o.retransmissions += cluster.nic(static_cast<net::NodeId>(i)).stats().retransmissions;
  }
  return o;
}

/// One job whose outage window opens strictly inside it: [start, end].
struct Job {
  SimTime start;
  SimTime end;  // the packet's ready time on the next wire
};

/// The fault-free run's SEND jobs on node 1 and routing hops toward node 5,
/// read from the causal record.
void probe(std::vector<Job>& sends, std::vector<Job>& routes) {
  sim::telemetry::Telemetry telemetry;
  sim::causal::CausalTracer& causal = telemetry.enable_causal();
  host::ClusterParams cp = params();
  cp.telemetry = &telemetry;
  host::Cluster cluster(cp);
  (void)run(cluster);
  for (sim::causal::SpanId id = 1; id <= causal.span_count(); ++id) {
    const sim::causal::Span& s = *causal.span(id);
    if (s.seg == sim::causal::Segment::kSend && s.unit.kind == sim::causal::Unit::Kind::kEngine &&
        s.node == 1) {
      sends.push_back(Job{s.start, s.end});
    }
    if (s.seg == sim::causal::Segment::kSwitch && s.node == 5) routes.push_back(Job{s.start, s.end});
  }
}

struct Window {
  std::int64_t from_ns;  // relative to the case's anchor
  std::int64_t until_ns;
};

struct Shape {
  const char* name;
  bool at_ready;  // anchor at the job's end (the ready instant) or mid-job
  std::vector<Window> windows;  // in plan order
};

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> kShapes = {
      {"opens-mid-job", false, {{0, 3000}}},
      // The later window's end replugs the cable inside the longer one.
      {"overlapping", false, {{0, 6000}, {1000, 2000}}},
      // Touching at the ready instant: same-instant toggles apply in plan
      // order, so the packet meets a down link in the first case and an up
      // link in the second.
      {"touch-replug-then-unplug", true, {{-2000, 0}, {0, 2000}}},
      {"touch-unplug-then-replug", true, {{0, 2000}, {-2000, 0}}},
      {"opens-at-ready", true, {{0, 2000}}},
      {"closes-at-ready", true, {{-2000, 0}}},
  };
  return kShapes;
}

struct Golden {
  const char* link;
  std::size_t job;  // index into that link's probed jobs
  const char* shape;
  std::int64_t anchor_ps;
  Outcome outcome;
};

// Measured on the engine with one event per SEND completion, routing hop and
// outage toggle (same model, same fault-free timeline).
const Golden kGoldens[] = {
    {"t1->sw0", 45, "opens-mid-job", 675096499, {2678397360, 1, 0}},
    {"t1->sw0", 45, "overlapping", 675096499, {2678397360, 1, 0}},
    {"t1->sw0", 45, "touch-replug-then-unplug", 675551044, {2678397360, 1, 0}},
    {"t1->sw0", 45, "touch-unplug-then-replug", 675551044, {2678397360, 0, 0}},
    {"t1->sw0", 45, "opens-at-ready", 675551044, {2678397360, 1, 0}},
    {"t1->sw0", 45, "closes-at-ready", 675551044, {2678397360, 0, 0}},
    {"t1->sw0", 90, "opens-mid-job", 1349983527, {3550268835, 1, 2}},
    {"t1->sw0", 90, "overlapping", 1349983527, {3550268835, 1, 2}},
    {"t1->sw0", 90, "touch-replug-then-unplug", 1350892618, {3550268835, 1, 2}},
    {"t1->sw0", 90, "touch-unplug-then-replug", 1350892618, {2678397360, 0, 0}},
    {"t1->sw0", 90, "opens-at-ready", 1350892618, {3550268835, 1, 2}},
    {"t1->sw0", 90, "closes-at-ready", 1350892618, {2678397360, 0, 0}},
    {"t1->sw0", 135, "opens-mid-job", 2014295179, {2678397360, 1, 0}},
    {"t1->sw0", 135, "overlapping", 2014295179, {2678397360, 1, 0}},
    {"t1->sw0", 135, "touch-replug-then-unplug", 2014749724, {2678397360, 1, 0}},
    {"t1->sw0", 135, "touch-unplug-then-replug", 2014749724, {2678397360, 0, 0}},
    {"t1->sw0", 135, "opens-at-ready", 2014749724, {2678397360, 1, 0}},
    {"t1->sw0", 135, "closes-at-ready", 2014749724, {2678397360, 0, 0}},
    {"sw0->t5", 45, "opens-mid-job", 675907294, {2678397360, 1, 0}},
    {"sw0->t5", 45, "overlapping", 675907294, {2678397360, 1, 0}},
    {"sw0->t5", 45, "touch-replug-then-unplug", 676057294, {2678397360, 1, 0}},
    {"sw0->t5", 45, "touch-unplug-then-replug", 676057294, {2678397360, 0, 0}},
    {"sw0->t5", 45, "opens-at-ready", 676057294, {2678397360, 1, 0}},
    {"sw0->t5", 45, "closes-at-ready", 676057294, {2678397360, 0, 0}},
    {"sw0->t5", 90, "opens-mid-job", 1351298868, {3550268835, 1, 2}},
    {"sw0->t5", 90, "overlapping", 1351298868, {3550268835, 1, 2}},
    {"sw0->t5", 90, "touch-replug-then-unplug", 1351448868, {3550268835, 1, 2}},
    {"sw0->t5", 90, "touch-unplug-then-replug", 1351448868, {2678397360, 0, 0}},
    {"sw0->t5", 90, "opens-at-ready", 1351448868, {3550268835, 1, 2}},
    {"sw0->t5", 90, "closes-at-ready", 1351448868, {2678397360, 0, 0}},
    {"sw0->t5", 135, "opens-mid-job", 2015105974, {2678397360, 1, 0}},
    {"sw0->t5", 135, "overlapping", 2015105974, {2678397360, 1, 0}},
    {"sw0->t5", 135, "touch-replug-then-unplug", 2015255974, {2678397360, 1, 0}},
    {"sw0->t5", 135, "touch-unplug-then-replug", 2015255974, {2678397360, 0, 0}},
    {"sw0->t5", 135, "opens-at-ready", 2015255974, {2678397360, 1, 0}},
    {"sw0->t5", 135, "closes-at-ready", 2015255974, {2678397360, 0, 0}},
};

TEST(FaultTimingTest, OutagesAreDecidedAtTheReadyTime) {
  std::vector<Job> sends, routes;
  probe(sends, routes);
  ASSERT_GE(sends.size(), 60u);
  ASSERT_GE(routes.size(), 20u);

  struct Target {
    const char* link;
    const std::vector<Job>* jobs;
  };
  const Target targets[] = {{"t1->sw0", &sends}, {"sw0->t5", &routes}};
  std::string rows;
  std::size_t i = 0;
  bool all_match = true;
  for (const Target& t : targets) {
    const std::size_t n = t.jobs->size();
    for (const std::size_t job : {n / 4, n / 2, 3 * n / 4}) {
      const Job& j = (*t.jobs)[job];
      ASSERT_LT(j.start, j.end);
      for (const Shape& shape : shapes()) {
        const SimTime anchor =
            shape.at_ready ? j.end : j.start + sim::Duration{(j.end - j.start).ps() / 2};
        host::ClusterParams cp = params();
        for (const Window& w : shape.windows) {
          cp.faults.link_down.push_back({t.link, anchor + sim::nanoseconds(w.from_ns),
                                         anchor + sim::nanoseconds(w.until_ns)});
        }
        host::Cluster cluster(cp);
        const Outcome got = run(cluster);
        char row[256];
        std::snprintf(row, sizeof row, "    {\"%s\", %zu, \"%s\", %lld, {%lld, %llu, %llu}},\n",
                      t.link, job, shape.name, static_cast<long long>(anchor.ps()),
                      static_cast<long long>(got.total_ps),
                      static_cast<unsigned long long>(got.down_drops),
                      static_cast<unsigned long long>(got.retransmissions));
        rows += row;
        const bool match = i < std::size(kGoldens) &&
                           std::strcmp(kGoldens[i].link, t.link) == 0 &&
                           kGoldens[i].job == job &&
                           std::strcmp(kGoldens[i].shape, shape.name) == 0 &&
                           kGoldens[i].anchor_ps == anchor.ps() && kGoldens[i].outcome == got;
        EXPECT_TRUE(match) << "case " << i << ": " << row;
        all_match = all_match && match;
        ++i;
      }
    }
  }
  EXPECT_EQ(i, std::size(kGoldens));
  if (!all_match) ADD_FAILURE() << "rows measured now:\n" << rows;
}

TEST(FaultTimingTest, SweepLosesPacketsOnBothLinks) {
  // The sweep is only meaningful if the outages actually bite: at least one
  // case per link must lose packets to its window.
  std::uint64_t uplink_drops = 0, downlink_drops = 0;
  for (const Golden& g : kGoldens) {
    (std::strcmp(g.link, "t1->sw0") == 0 ? uplink_drops : downlink_drops) +=
        g.outcome.down_drops;
  }
  EXPECT_GT(uplink_drops, 0u);
  EXPECT_GT(downlink_drops, 0u);
}

// --- Link::down_at semantics ------------------------------------------------------

TEST(FaultTimingTest, DownAtIsTheLastToggleAtOrBeforeTheInstant) {
  sim::Simulator sim;
  net::Link link(sim, net::LinkParams{}, "l");
  const SimTime t0{0};
  link.set_down_at(t0 + microseconds(10), true);
  link.set_down_at(t0 + microseconds(30), false);
  link.set_down_at(t0 + microseconds(20), true);  // inside the first window: no-op
  link.set_down_at(t0 + microseconds(25), false);  // replugs the first window early
  EXPECT_FALSE(link.down_at(t0 + microseconds(9)));
  EXPECT_TRUE(link.down_at(t0 + microseconds(10)));
  EXPECT_TRUE(link.down_at(t0 + microseconds(24)));
  EXPECT_FALSE(link.down_at(t0 + microseconds(25)));
  EXPECT_FALSE(link.down_at(t0 + microseconds(40)));
}

TEST(FaultTimingTest, SameInstantTogglesApplyInTheOrderTheyWereSet) {
  sim::Simulator sim;
  net::Link a(sim, net::LinkParams{}, "a");
  net::Link b(sim, net::LinkParams{}, "b");
  const SimTime t{microseconds(5).ps()};
  a.set_down_at(t, false);
  a.set_down_at(t, true);
  b.set_down_at(t, true);
  b.set_down_at(t, false);
  EXPECT_TRUE(a.down_at(t));
  EXPECT_FALSE(b.down_at(t));
}

TEST(FaultTimingTest, DownTimeCountsOnlyTheElapsedOutage) {
  sim::Simulator sim;
  net::Link link(sim, net::LinkParams{}, "l");
  const SimTime t0{0};
  link.set_down_at(t0 + microseconds(10), true);
  link.set_down_at(t0 + microseconds(20), false);
  link.set_down_at(t0 + microseconds(30), true);
  sim.schedule_at(t0 + microseconds(35), [] {});
  sim.run();
  // 10 us closed window + 5 us of the open one, up to now.
  EXPECT_EQ(link.down_time_total(), microseconds(15));
  EXPECT_TRUE(link.is_down());
}

}  // namespace
}  // namespace nicbar
