// Integration tests for all four barrier variants (host/NIC x PE/GB):
// correctness of the synchronization semantics, repetition, concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "coll/runner.hpp"
#include "host/cluster.hpp"

namespace nicbar {
namespace {

using namespace sim::literals;
using coll::BarrierMember;
using coll::BarrierSpec;
using coll::Location;
using nic::BarrierAlgorithm;

struct Fixture {
  explicit Fixture(std::size_t n, host::ClusterParams cp = {}) {
    cp.nodes = n;
    cluster = std::make_unique<host::Cluster>(cp);
    for (std::size_t i = 0; i < n; ++i) {
      group.push_back(gm::Endpoint{static_cast<net::NodeId>(i), 2});
    }
    for (std::size_t i = 0; i < n; ++i) {
      ports.push_back(cluster->open_port(static_cast<net::NodeId>(i), 2));
    }
  }
  std::unique_ptr<host::Cluster> cluster;
  std::vector<gm::Endpoint> group;
  std::vector<std::unique_ptr<gm::Port>> ports;
};

// Each member records completion times; a correct barrier requires every
// member's exit time >= every member's entry time.
sim::Task barrier_once(sim::Simulator& sim, BarrierMember& m, sim::Duration entry_delay,
                       sim::SimTime* entered, sim::SimTime* exited) {
  co_await sim.delay(entry_delay);
  *entered = sim.now();
  co_await m.run();
  *exited = sim.now();
}

void check_barrier_semantics(std::size_t n, BarrierSpec spec,
                             std::vector<sim::Duration> delays,
                             host::ClusterParams cp = {}) {
  Fixture f(n, cp);
  std::vector<std::unique_ptr<BarrierMember>> members;
  std::vector<sim::SimTime> entered(n), exited(n);
  for (std::size_t i = 0; i < n; ++i) {
    members.push_back(std::make_unique<BarrierMember>(*f.ports[i], f.group, spec));
    f.cluster->sim().spawn(barrier_once(f.cluster->sim(), *members[i], delays[i],
                                        &entered[i], &exited[i]));
  }
  f.cluster->sim().run();
  const sim::SimTime last_entry = *std::max_element(entered.begin(), entered.end());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(exited[i].ps(), last_entry.ps())
        << "member " << i << " exited before member(s) entered";
    EXPECT_GT(exited[i].ps(), 0) << "member " << i << " never completed";
  }
}

std::vector<sim::Duration> no_delays(std::size_t n) { return std::vector<sim::Duration>(n); }

std::vector<sim::Duration> staggered(std::size_t n) {
  std::vector<sim::Duration> d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = sim::microseconds(37.0 * static_cast<double>(i));
  return d;
}

BarrierSpec spec(Location loc, BarrierAlgorithm alg, std::size_t dim = 2) {
  BarrierSpec s;
  s.location = loc;
  s.algorithm = alg;
  s.gb_dimension = dim;
  return s;
}

class BarrierVariants
    : public ::testing::TestWithParam<std::tuple<Location, BarrierAlgorithm, std::size_t>> {};

TEST_P(BarrierVariants, SynchronizesSimultaneousEntry) {
  auto [loc, alg, n] = GetParam();
  check_barrier_semantics(n, spec(loc, alg), no_delays(n));
}

TEST_P(BarrierVariants, SynchronizesStaggeredEntry) {
  auto [loc, alg, n] = GetParam();
  check_barrier_semantics(n, spec(loc, alg), staggered(n));
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, BarrierVariants,
    ::testing::Combine(::testing::Values(Location::kHost, Location::kNic),
                       ::testing::Values(BarrierAlgorithm::kPairwiseExchange,
                                         BarrierAlgorithm::kGatherBroadcast),
                       ::testing::Values(std::size_t{2}, std::size_t{4}, std::size_t{8},
                                         std::size_t{16})),
    [](const auto& param_info) {
      std::string name = std::get<0>(param_info.param) == Location::kHost ? "Host" : "Nic";
      name += std::get<1>(param_info.param) == BarrierAlgorithm::kPairwiseExchange ? "PE" : "GB";
      name += std::to_string(std::get<2>(param_info.param));
      return name;
    });

// Non-power-of-two groups (extension: MPICH-style extra folding).
class NonPow2Barrier
    : public ::testing::TestWithParam<std::tuple<Location, std::size_t>> {};

TEST_P(NonPow2Barrier, PairwiseExchangeSynchronizes) {
  auto [loc, n] = GetParam();
  check_barrier_semantics(n, spec(loc, BarrierAlgorithm::kPairwiseExchange), staggered(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, NonPow2Barrier,
                         ::testing::Combine(::testing::Values(Location::kHost, Location::kNic),
                                            ::testing::Values(std::size_t{3}, std::size_t{5},
                                                              std::size_t{6}, std::size_t{7},
                                                              std::size_t{11}, std::size_t{13})),
                         [](const auto& param_info) {
                           return std::string(std::get<0>(param_info.param) == Location::kHost
                                                  ? "Host"
                                                  : "Nic") +
                                  std::to_string(std::get<1>(param_info.param));
                         });

// GB with all dimensions for a fixed size.
class GbDimensions : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GbDimensions, NicGbSynchronizesAtEveryDimension) {
  const std::size_t dim = GetParam();
  check_barrier_semantics(8, spec(Location::kNic, BarrierAlgorithm::kGatherBroadcast, dim),
                          staggered(8));
}

TEST_P(GbDimensions, HostGbSynchronizesAtEveryDimension) {
  const std::size_t dim = GetParam();
  check_barrier_semantics(8, spec(Location::kHost, BarrierAlgorithm::kGatherBroadcast, dim),
                          staggered(8));
}

INSTANTIATE_TEST_SUITE_P(Dims, GbDimensions,
                         ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3},
                                           std::size_t{4}, std::size_t{5}, std::size_t{6},
                                           std::size_t{7}));

TEST(BarrierRepetitionTest, ManyConsecutiveBarriersNicPe) {
  coll::ExperimentParams p;
  p.nodes = 8;
  p.reps = 50;
  p.spec = spec(Location::kNic, BarrierAlgorithm::kPairwiseExchange);
  const coll::ExperimentResult r = coll::run_barrier_experiment(p);
  EXPECT_EQ(r.barriers_completed, 8u * 50u);
  EXPECT_GT(r.mean_us, 0.0);
}

TEST(BarrierRepetitionTest, ManyConsecutiveBarriersHostGb) {
  coll::ExperimentParams p;
  p.nodes = 8;
  p.reps = 25;
  p.spec = spec(Location::kHost, BarrierAlgorithm::kGatherBroadcast, 3);
  const coll::ExperimentResult r = coll::run_barrier_experiment(p);
  EXPECT_GT(r.mean_us, 0.0);
  EXPECT_EQ(r.retransmissions, 0u);
}

TEST(BarrierRepetitionTest, SkewedStartsStillSynchronize) {
  coll::ExperimentParams p;
  p.nodes = 16;
  p.reps = 20;
  p.spec = spec(Location::kNic, BarrierAlgorithm::kPairwiseExchange);
  p.max_start_skew = 500_us;
  const coll::ExperimentResult r = coll::run_barrier_experiment(p);
  EXPECT_EQ(r.barriers_completed, 16u * 20u);
  // Staggered starts produce unexpected (early) barrier messages (§3.1).
  EXPECT_GT(r.unexpected_recorded, 0u);
  EXPECT_EQ(r.bit_collisions, 0u);  // §3.1 invariant: at most one per endpoint
}

TEST(ConcurrentBarriersTest, DisjointGroupsOnSharedNics) {
  // Two disjoint 4-node barriers share the same 4 NICs via different ports
  // (§3.4: multiple concurrent barriers on one NIC).
  host::ClusterParams cp;
  cp.nodes = 4;
  host::Cluster cluster(cp);
  std::vector<gm::Endpoint> g1, g2;
  std::vector<std::unique_ptr<gm::Port>> ports;
  for (net::NodeId i = 0; i < 4; ++i) {
    g1.push_back(gm::Endpoint{i, 2});
    g2.push_back(gm::Endpoint{i, 3});
  }
  std::vector<std::unique_ptr<BarrierMember>> members;
  int done = 0;
  for (net::NodeId i = 0; i < 4; ++i) {
    ports.push_back(cluster.open_port(i, 2));
    members.push_back(std::make_unique<BarrierMember>(
        *ports.back(), g1, spec(Location::kNic, BarrierAlgorithm::kPairwiseExchange)));
    ports.push_back(cluster.open_port(i, 3));
    members.push_back(std::make_unique<BarrierMember>(
        *ports.back(), g2, spec(Location::kNic, BarrierAlgorithm::kGatherBroadcast)));
  }
  for (auto& m : members) {
    cluster.sim().spawn([](BarrierMember& mem, int* counter) -> sim::Task {
      for (int r = 0; r < 10; ++r) co_await mem.run();
      ++*counter;
    }(*m, &done));
  }
  cluster.sim().run();
  EXPECT_EQ(done, 8);
  for (net::NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.nic(i).stats().barriers_completed, 20u);  // 10 per port
  }
}

TEST(BarrierLatencyShapeTest, NicPeBeatsHostPe) {
  for (std::size_t n : {4u, 8u, 16u}) {
    coll::ExperimentParams p;
    p.nodes = n;
    p.reps = 30;
    p.spec = spec(Location::kNic, BarrierAlgorithm::kPairwiseExchange);
    const double nic_us = coll::run_barrier_experiment(p).mean_us;
    p.spec = spec(Location::kHost, BarrierAlgorithm::kPairwiseExchange);
    const double host_us = coll::run_barrier_experiment(p).mean_us;
    EXPECT_LT(nic_us, host_us) << "n=" << n;
  }
}

TEST(BarrierLatencyShapeTest, FasterNicRaisesImprovement) {
  auto improvement = [](const nic::NicConfig& nc) {
    coll::ExperimentParams p;
    p.nodes = 8;
    p.reps = 30;
    p.cluster.nic = nc;
    p.spec = spec(Location::kNic, BarrierAlgorithm::kPairwiseExchange);
    const double nic_us = coll::run_barrier_experiment(p).mean_us;
    p.spec = spec(Location::kHost, BarrierAlgorithm::kPairwiseExchange);
    const double host_us = coll::run_barrier_experiment(p).mean_us;
    return host_us / nic_us;
  };
  EXPECT_GT(improvement(nic::lanai72()), improvement(nic::lanai43()));
}

}  // namespace
}  // namespace nicbar
