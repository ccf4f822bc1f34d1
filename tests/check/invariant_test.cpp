// The invariant-checker leg of sim::check: violations throw with full trace
// context, the runtime toggle suppresses them, and an intentionally-injected
// violation (the BarrierSafetyMonitor test hook) is detected end to end. The
// monitor's watermark fast path is checked against a reference full scan,
// and one monitor is shared by members on concurrent PDES lanes.
#include "sim/check.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coll/barrier.hpp"
#include "gm/port.hpp"
#include "host/cluster.hpp"
#include "sim/random.hpp"
#include "sim/server.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace nicbar::sim::check {
namespace {

TEST(InvariantTest, ViolationCarriesStructuredTraceContext) {
  try {
    fail("net.link", SimTime{42'000'000}, "sent == delivered", format("link '%s': off by %d",
                                                                      "t0->sw0", 3));
    FAIL() << "fail() must throw";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.subsystem(), "net.link");
    EXPECT_EQ(v.when(), SimTime{42'000'000});
    EXPECT_EQ(v.condition(), "sent == delivered");
    EXPECT_EQ(v.detail(), "link 't0->sw0': off by 3");
    const std::string what = v.what();
    EXPECT_NE(what.find("net.link"), std::string::npos);
    EXPECT_NE(what.find("sent == delivered"), std::string::npos);
    EXPECT_NE(what.find("off by 3"), std::string::npos);
  }
}

TEST(InvariantTest, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.schedule_at(SimTime{1'000'000}, [] {});
  sim.run();
  try {
    sim.schedule_at(SimTime{500'000}, [] {});
    FAIL() << "scheduling into the past must violate the queue invariant";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.subsystem(), "sim.queue");
    EXPECT_EQ(v.when(), SimTime{1'000'000});
  }
  EXPECT_THROW(sim.schedule_in(Duration{-1}, [] {}), InvariantViolation);
}

TEST(InvariantTest, NegativeServiceTimeOnABusyServerThrows) {
  Simulator sim;
  BusyServer server(sim, "pci0");
  try {
    server.submit(Duration{-5});
    FAIL() << "negative service time must violate the server invariant";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.subsystem(), "sim.server");
    EXPECT_NE(v.detail().find("pci0"), std::string::npos);
    EXPECT_NE(v.detail().find("-5"), std::string::npos);
  }
}

TEST(InvariantTest, DisabledSuppressesChecksAndRestores) {
  Simulator sim;
  sim.schedule_at(SimTime{1'000'000}, [] {});
  sim.run();
  ASSERT_TRUE(enabled());
  {
    Disabled off;
    EXPECT_FALSE(enabled());
    EXPECT_NO_THROW(sim.schedule_at(SimTime{500'000}, [] {}));
  }
  EXPECT_TRUE(enabled());
  EXPECT_THROW(sim.schedule_at(SimTime{200'000}, [] {}), InvariantViolation);
}

TEST(InvariantTest, BarrierSafetyMonitorAcceptsALegalSequence) {
  BarrierSafetyMonitor mon(3);
  for (int k = 0; k < 5; ++k) {
    for (std::size_t m = 0; m < 3; ++m) mon.arrive(m, SimTime{k * 100});
    for (std::size_t m = 0; m < 3; ++m) mon.complete(m, SimTime{k * 100 + 50});
  }
  EXPECT_EQ(mon.barriers_checked(), 5u);
  EXPECT_EQ(mon.completions(2), 5u);
}

TEST(InvariantTest, InjectedCompletionBeforeArrivalIsDetectedWithContext) {
  // The intentional-violation hook: member 0 "completes" barrier 1 while
  // member 2 has never arrived. The violation must name the guilty barrier
  // and members, not just say "failed".
  BarrierSafetyMonitor mon(3);
  mon.arrive(0, SimTime{10});
  mon.arrive(1, SimTime{12});
  try {
    mon.complete(0, SimTime{99});
    FAIL() << "completion before every arrival must violate barrier safety";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.subsystem(), "coll.barrier-safety");
    EXPECT_EQ(v.when(), SimTime{99});
    EXPECT_NE(v.detail().find("member 0"), std::string::npos);
    EXPECT_NE(v.detail().find("member 2"), std::string::npos);
  }
}

TEST(InvariantTest, BarrierSafetyMonitorTracksEpochsIndependently) {
  // Member 1 may run one barrier ahead in arrivals (pipelining), but a
  // completion for epoch 2 needs *everyone's* second arrival.
  BarrierSafetyMonitor mon(2);
  mon.arrive(0, SimTime{1});
  mon.arrive(1, SimTime{1});
  mon.complete(0, SimTime{2});
  mon.complete(1, SimTime{2});
  mon.arrive(1, SimTime{3});  // member 1 enters barrier 2 early
  EXPECT_THROW(mon.complete(1, SimTime{4}), InvariantViolation);
  mon.arrive(0, SimTime{5});
  EXPECT_NO_THROW(mon.complete(1, SimTime{6}));
}

// --- The watermark against a reference full scan ------------------------------

/// The specification the monitor must meet: every completion scans every
/// member, exactly as the monitor did before it kept a watermark.
class ReferenceMonitor {
 public:
  explicit ReferenceMonitor(std::size_t members) : arrivals_(members, 0), completions_(members, 0) {}

  void arrive(std::size_t m) { ++arrivals_[m]; }

  /// The detail() of the violation a full scan raises, or "" when it passes
  /// (a failed completion is not recorded, as in the monitor).
  std::string complete(std::size_t m) {
    const std::uint64_t k = completions_[m] + 1;
    if (enabled()) {
      for (std::size_t j = 0; j < arrivals_.size(); ++j) {
        if (arrivals_[j] < k) {
          return format("member %zu observed completion of barrier %llu before member %zu "
                        "arrived (arrivals=%llu)",
                        m, static_cast<unsigned long long>(k), j,
                        static_cast<unsigned long long>(arrivals_[j]));
        }
      }
    }
    completions_[m] = k;
    if (k > checked_) checked_ = k;
    return {};
  }

  [[nodiscard]] std::uint64_t arrivals(std::size_t m) const { return arrivals_[m]; }
  [[nodiscard]] std::uint64_t completions(std::size_t m) const { return completions_[m]; }
  [[nodiscard]] std::uint64_t barriers_checked() const { return checked_; }
  /// Whether member m's next completion would pass the scan.
  [[nodiscard]] bool completion_is_safe(std::size_t m) const {
    for (std::uint64_t a : arrivals_) {
      if (a < completions_[m] + 1) return false;
    }
    return true;
  }

 private:
  std::vector<std::uint64_t> arrivals_;
  std::vector<std::uint64_t> completions_;
  std::uint64_t checked_ = 0;
};

struct DiffTally {
  std::uint64_t completions = 0;
  std::uint64_t violations = 0;
  std::uint64_t unchecked_early = 0;  // unsafe completions accepted while disabled
};

/// Feeds one random arrive/complete sequence to the monitor and the
/// reference and requires identical outcomes, op by op. `early` is the
/// chance that a member attempts a completion its barrier does not yet
/// allow (0 gives a legal sequence). Some stretches run with checks
/// disabled, in which members run ahead of the group unchecked.
DiffTally run_differential(std::size_t n, std::uint64_t seed, double early, int ops) {
  BarrierSafetyMonitor mon(n);
  ReferenceMonitor ref(n);
  sim::Rng rng(seed);
  std::unique_ptr<Disabled> off;
  DiffTally tally;
  for (int op = 0; op < ops; ++op) {
    if (rng.chance(0.002)) {
      if (off) {
        off.reset();
      } else {
        off = std::make_unique<Disabled>();
      }
    }
    const std::size_t m = rng.below(static_cast<std::uint32_t>(n));
    const SimTime when{op};
    if (ref.arrivals(m) <= ref.completions(m)) {
      // Waiting at no barrier: enter the next one.
      mon.arrive(m, when);
      ref.arrive(m);
      continue;
    }
    const bool safe = ref.completion_is_safe(m);
    if (!safe && !rng.chance(early)) continue;  // wait for the group
    if (!safe && off) ++tally.unchecked_early;
    const std::string expected = ref.complete(m);
    std::string got;
    try {
      mon.complete(m, when);
    } catch (const InvariantViolation& v) {
      got = v.detail();
      EXPECT_EQ(v.subsystem(), "coll.barrier-safety");
      EXPECT_EQ(v.when(), when);
      if (got.empty()) got = "(empty detail)";
    }
    if (got != expected) {
      ADD_FAILURE() << "n=" << n << " seed=" << seed << " op=" << op << " member=" << m
                    << "\n  monitor:   " << got << "\n  reference: " << expected;
      return tally;
    }
    ++tally.completions;
    if (!expected.empty()) ++tally.violations;
  }
  off.reset();
  for (std::size_t m = 0; m < n; ++m) {
    EXPECT_EQ(mon.arrivals(m), ref.arrivals(m)) << "member " << m;
    EXPECT_EQ(mon.completions(m), ref.completions(m)) << "member " << m;
  }
  EXPECT_EQ(mon.barriers_checked(), ref.barriers_checked());
  return tally;
}

TEST(InvariantTest, MonitorWatermarkMatchesAFullScanOnRandomSequences) {
  for (const std::size_t n : {1u, 2u, 3u, 17u, 4096u}) {
    // Enough ops for several barriers at every size.
    const int ops = static_cast<int>(n * 12 + 2000);
    for (std::uint64_t seed = 1; seed <= (n >= 4096 ? 2u : 8u); ++seed) {
      const DiffTally legal = run_differential(n, seed, 0.0, ops);
      EXPECT_EQ(legal.violations, 0u) << "n=" << n << " seed=" << seed;
      EXPECT_GT(legal.completions, 0u) << "n=" << n << " seed=" << seed;
      const DiffTally illegal = run_differential(n, seed + 1000, 0.05, ops);
      if (HasFailure()) return;
      if (n > 1) {
        EXPECT_GT(illegal.violations + illegal.unchecked_early, 0u)
            << "n=" << n << " seed=" << seed << ": the illegal sequence never ran early";
      }
    }
  }
}

TEST(InvariantTest, MonitorStaysStrictAfterADisabledStretchRanAhead) {
  // Member 0 completes three barriers unchecked while nobody else arrives;
  // the watermark must not take those completions as proof of safety.
  BarrierSafetyMonitor mon(3);
  {
    Disabled off;
    mon.arrive(0, SimTime{1});
    for (int k = 0; k < 3; ++k) mon.complete(0, SimTime{2});
  }
  EXPECT_EQ(mon.completions(0), 3u);
  mon.arrive(1, SimTime{3});
  mon.arrive(2, SimTime{3});
  mon.complete(1, SimTime{4});  // barrier 1: everyone arrived
  mon.arrive(1, SimTime{5});    // member 1 alone enters barrier 2
  try {
    mon.complete(1, SimTime{6});
    FAIL() << "barrier 2 completed before members 0 and 2 arrived";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.detail(),
              "member 1 observed completion of barrier 2 before member 0 arrived (arrivals=1)");
  }
  EXPECT_THROW(mon.complete(0, SimTime{7}), InvariantViolation);  // barrier 4
}

// --- One monitor across PDES lanes ---------------------------------------------

sim::Task checked_member(sim::Simulator& sim, coll::BarrierMember& member, int reps,
                         BarrierSafetyMonitor& mon, std::size_t index, int* ok) {
  for (int r = 0; r < reps; ++r) {
    mon.arrive(index, sim.now());
    if (co_await member.run() != coll::BarrierStatus::kOk) co_return;
    mon.complete(index, sim.now());
    ++*ok;
  }
}

TEST(InvariantTest, OneMonitorWatchesHierMembersOnFourPdesLanes) {
  // 256 nodes on the radix-16 fat-tree, 4 partitions on 4 worker threads:
  // members on different lanes arrive and complete concurrently on one
  // monitor (relaxed atomics, watermark raised from any lane).
  constexpr std::size_t kNodes = 256;
  constexpr int kReps = 4;
  host::ClusterParams cp;
  cp.nodes = kNodes;
  cp.topology = host::Topology::kFatTree;
  cp.fabric_radix = 16;
  cp.pdes_partitions = 4;
  cp.pdes_workers = 4;
  host::Cluster cluster(cp);
  ASSERT_NE(cluster.pdes(), nullptr);
  ASSERT_NE(cluster.fabric(), nullptr);

  coll::BarrierSpec spec;
  spec.hierarchical = true;
  spec.hier_block = cluster.fabric()->hosts_per_leaf;
  std::vector<coll::Endpoint> group;
  for (std::size_t i = 0; i < kNodes; ++i) {
    group.push_back(coll::Endpoint{static_cast<net::NodeId>(i), 2});
  }
  std::vector<std::unique_ptr<gm::Port>> ports;
  std::vector<std::unique_ptr<coll::BarrierMember>> members;
  for (std::size_t i = 0; i < kNodes; ++i) {
    ports.push_back(cluster.open_port(static_cast<net::NodeId>(i), 2));
    members.push_back(std::make_unique<coll::BarrierMember>(*ports.back(), group, spec));
  }
  BarrierSafetyMonitor mon(kNodes);
  std::vector<int> ok(kNodes, 0);
  for (std::size_t i = 0; i < kNodes; ++i) {
    sim::Simulator& lane = cluster.sim_for(static_cast<net::NodeId>(i));
    lane.spawn(checked_member(lane, *members[i], kReps, mon, i, &ok[i]));
  }
  cluster.run_all();

  EXPECT_EQ(mon.barriers_checked(), static_cast<std::uint64_t>(kReps));
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(ok[i], kReps) << "member " << i;
    EXPECT_EQ(mon.arrivals(i), static_cast<std::uint64_t>(kReps)) << "member " << i;
    EXPECT_EQ(mon.completions(i), static_cast<std::uint64_t>(kReps)) << "member " << i;
  }
}

}  // namespace
}  // namespace nicbar::sim::check
