// Property sweep: the barrier-semantics invariant (nobody exits before
// everybody entered) must hold for EVERY combination of location, algorithm,
// group size, reliability mode, and entry skew — plus run-to-run determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "coll/runner.hpp"
#include "host/cluster.hpp"

namespace nicbar {
namespace {

using coll::BarrierMember;
using coll::BarrierSpec;
using coll::Location;
using nic::BarrierAlgorithm;
using nic::BarrierReliability;

using Combo = std::tuple<Location, BarrierAlgorithm, std::size_t, BarrierReliability>;

class BarrierProperty : public ::testing::TestWithParam<Combo> {};

TEST_P(BarrierProperty, NoEarlyExitUnderSkew) {
  const Location loc = std::get<0>(GetParam());
  const BarrierAlgorithm alg = std::get<1>(GetParam());
  const std::size_t n = std::get<2>(GetParam());
  const BarrierReliability rel = std::get<3>(GetParam());

  host::ClusterParams cp;
  cp.nodes = n;
  cp.nic.barrier_reliability = rel;
  host::Cluster cluster(cp);
  std::vector<gm::Endpoint> group;
  for (std::size_t i = 0; i < n; ++i) {
    group.push_back(gm::Endpoint{static_cast<net::NodeId>(i), 2});
  }
  BarrierSpec spec;
  spec.location = loc;
  spec.algorithm = alg;
  spec.gb_dimension = 3;

  std::vector<std::unique_ptr<gm::Port>> ports;
  std::vector<std::unique_ptr<BarrierMember>> members;
  std::vector<sim::SimTime> entered(n), exited(n);
  sim::Rng rng(1234 + n);
  for (std::size_t i = 0; i < n; ++i) {
    ports.push_back(cluster.open_port(static_cast<net::NodeId>(i), 2));
    members.push_back(std::make_unique<BarrierMember>(*ports.back(), group, spec));
    const sim::Duration skew = sim::microseconds(rng.uniform(0.0, 400.0));
    cluster.sim().spawn([](sim::Simulator& sim, BarrierMember& m, sim::Duration d,
                           sim::SimTime* in, sim::SimTime* out) -> sim::Task {
      co_await sim.delay(d);
      *in = sim.now();
      for (int r = 0; r < 3; ++r) co_await m.run();  // three consecutive barriers
      *out = sim.now();
    }(cluster.sim(), *members.back(), skew, &entered[i], &exited[i]));
  }
  cluster.sim().run();

  const sim::SimTime last_entry = *std::max_element(entered.begin(), entered.end());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_GT(exited[i].ps(), 0) << "member " << i << " never finished";
    EXPECT_GE(exited[i].ps(), last_entry.ps()) << "member " << i << " left early";
  }
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  std::string s = std::get<0>(info.param) == Location::kHost ? "Host" : "Nic";
  s += std::get<1>(info.param) == BarrierAlgorithm::kPairwiseExchange ? "PE" : "GB";
  s += std::to_string(std::get<2>(info.param));
  switch (std::get<3>(info.param)) {
    case BarrierReliability::kUnreliable: s += "Unrel"; break;
    case BarrierReliability::kSharedStream: s += "Shared"; break;
    case BarrierReliability::kSeparateAcks: s += "SepAck"; break;
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BarrierProperty,
    ::testing::Combine(::testing::Values(Location::kHost, Location::kNic),
                       ::testing::Values(BarrierAlgorithm::kPairwiseExchange,
                                         BarrierAlgorithm::kGatherBroadcast),
                       ::testing::Values(std::size_t{2}, std::size_t{3}, std::size_t{8},
                                         std::size_t{13}, std::size_t{16}),
                       ::testing::Values(BarrierReliability::kUnreliable,
                                         BarrierReliability::kSharedStream,
                                         BarrierReliability::kSeparateAcks)),
    combo_name);

// --- Determinism across the whole matrix ---------------------------------------

class BarrierDeterminism
    : public ::testing::TestWithParam<std::tuple<Location, BarrierAlgorithm>> {};

TEST_P(BarrierDeterminism, IdenticalRunsProduceIdenticalLatencies) {
  coll::ExperimentParams p;
  p.nodes = 8;
  p.reps = 20;
  p.spec.location = std::get<0>(GetParam());
  p.spec.algorithm = std::get<1>(GetParam());
  p.max_start_skew = sim::microseconds(200.0);
  p.seed = 77;
  const coll::ExperimentResult a = coll::run_barrier_experiment(p);
  const coll::ExperimentResult b = coll::run_barrier_experiment(p);
  EXPECT_EQ(a.total_us, b.total_us);
  EXPECT_EQ(a.barrier_packets_sent, b.barrier_packets_sent);
  EXPECT_EQ(a.unexpected_recorded, b.unexpected_recorded);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BarrierDeterminism,
    ::testing::Combine(::testing::Values(Location::kHost, Location::kNic),
                       ::testing::Values(BarrierAlgorithm::kPairwiseExchange,
                                         BarrierAlgorithm::kGatherBroadcast)),
    [](const auto& param_info) {
      std::string s = std::get<0>(param_info.param) == Location::kHost ? "Host" : "Nic";
      s += std::get<1>(param_info.param) == BarrierAlgorithm::kPairwiseExchange ? "PE" : "GB";
      return s;
    });

// --- Latency-ordering properties -------------------------------------------------

TEST(BarrierOrderProperty, LatencyMonotoneInGroupSize) {
  for (Location loc : {Location::kHost, Location::kNic}) {
    double prev = 0.0;
    for (std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
      coll::ExperimentParams p;
      p.nodes = n;
      p.reps = 30;
      p.spec.location = loc;
      p.spec.algorithm = BarrierAlgorithm::kPairwiseExchange;
      const double us = coll::run_barrier_experiment(p).mean_us;
      EXPECT_GT(us, prev) << "n=" << n;
      prev = us;
    }
  }
}

TEST(BarrierOrderProperty, ImprovementMonotoneInGroupSize) {
  double prev = 0.0;
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u}) {
    coll::ExperimentParams p;
    p.nodes = n;
    p.reps = 30;
    p.spec.algorithm = BarrierAlgorithm::kPairwiseExchange;
    p.spec.location = Location::kHost;
    const double host_us = coll::run_barrier_experiment(p).mean_us;
    p.spec.location = Location::kNic;
    const double nic_us = coll::run_barrier_experiment(p).mean_us;
    const double f = host_us / nic_us;
    EXPECT_GT(f, prev) << "n=" << n;
    prev = f;
  }
}

}  // namespace
}  // namespace nicbar
