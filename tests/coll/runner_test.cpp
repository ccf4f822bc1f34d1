// The experiment runner: determinism, measurement sanity, dimension sweep.
#include "coll/runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace nicbar::coll {
namespace {

ExperimentParams pe_params(std::size_t nodes, int reps = 50) {
  ExperimentParams p;
  p.nodes = nodes;
  p.reps = reps;
  p.spec.location = Location::kNic;
  p.spec.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
  return p;
}

TEST(RunnerTest, DeterministicAcrossRuns) {
  // The whole point of a simulation substrate: identical inputs give
  // bit-identical outputs.
  const ExperimentResult a = run_barrier_experiment(pe_params(8));
  const ExperimentResult b = run_barrier_experiment(pe_params(8));
  EXPECT_EQ(a.mean_us, b.mean_us);
  EXPECT_EQ(a.total_us, b.total_us);
  EXPECT_EQ(a.barrier_packets_sent, b.barrier_packets_sent);
}

TEST(RunnerTest, SkewIsDeterministicPerSeed) {
  ExperimentParams p = pe_params(8);
  p.max_start_skew = sim::microseconds(300.0);
  p.seed = 42;
  const double a = run_barrier_experiment(p).mean_us;
  const double b = run_barrier_experiment(p).mean_us;
  EXPECT_EQ(a, b);
  p.seed = 43;
  const double c = run_barrier_experiment(p).mean_us;
  EXPECT_NE(a, c);
}

TEST(RunnerTest, MeanScalesWithLog2Nodes) {
  const double t2 = run_barrier_experiment(pe_params(2)).mean_us;
  const double t4 = run_barrier_experiment(pe_params(4)).mean_us;
  const double t16 = run_barrier_experiment(pe_params(16)).mean_us;
  // Each doubling adds roughly one fixed round (Eq. 2).
  const double round = t4 - t2;
  EXPECT_GT(round, 0);
  EXPECT_NEAR(t16, t2 + 3 * round, 0.2 * t16);
}

TEST(RunnerTest, AllBarriersAccountedFor) {
  const ExperimentResult r = run_barrier_experiment(pe_params(4, 25));
  EXPECT_EQ(r.barriers_completed, 4u * 25u);
  EXPECT_EQ(r.reps, 25);
  EXPECT_EQ(r.nodes, 4u);
  // 4-node PE: 2 packets per node per barrier.
  EXPECT_EQ(r.barrier_packets_sent, 4u * 25u * 2u);
}

TEST(RunnerTest, MoreRepsDontChangeTheMeanMuch) {
  const double short_run = run_barrier_experiment(pe_params(8, 20)).mean_us;
  const double long_run = run_barrier_experiment(pe_params(8, 200)).mean_us;
  EXPECT_NEAR(short_run, long_run, 0.05 * long_run);
}

TEST(RunnerTest, BestGbDimensionIsValidAndMinimal) {
  ExperimentParams p = pe_params(8, 40);
  p.spec.algorithm = nic::BarrierAlgorithm::kGatherBroadcast;
  const auto [dim, best_us] = best_gb_dimension(p);
  EXPECT_GE(dim, 1u);
  EXPECT_LT(dim, 8u);
  // Verify the reported minimum really is the minimum of the sweep.
  for (std::size_t d = 1; d < 8; ++d) {
    p.spec.gb_dimension = d;
    EXPECT_GE(run_barrier_experiment(p).mean_us, best_us - 1e-9) << "dim " << d;
  }
}

TEST(RunnerTest, BestGbDimensionRejectsPe) {
  ExperimentParams p = pe_params(8);
  EXPECT_THROW((void)best_gb_dimension(p), std::invalid_argument);
}

TEST(RunnerTest, RejectsZeroNodes) {
  ExperimentParams p = pe_params(0);
  EXPECT_THROW((void)run_barrier_experiment(p), std::invalid_argument);
}

TEST(RunnerTest, SingleNodeBarrierIsTrivial) {
  const ExperimentResult r = run_barrier_experiment(pe_params(1, 10));
  EXPECT_EQ(r.barriers_completed, 10u);
  EXPECT_EQ(r.barrier_packets_sent, 0u);  // nobody to talk to
  EXPECT_GT(r.mean_us, 0.0);              // still pays initiation + completion
}

TEST(RunnerTest, StatsAggregateAcrossNics) {
  ExperimentParams p = pe_params(16, 10);
  p.max_start_skew = sim::microseconds(400.0);
  const ExperimentResult r = run_barrier_experiment(p);
  EXPECT_GT(r.unexpected_recorded, 0u);
  EXPECT_EQ(r.bit_collisions, 0u);
  EXPECT_EQ(r.retransmissions, 0u);  // lossless fabric
}


// --- Exact output goldens ------------------------------------------------------
//
// Three runs that exercise what the experiment adds around the member loop:
// start-skew draws in member order with a non-identity node_order, the
// fabric-derived hier block on a partitioned cluster, and stop-on-failure
// when a deadline aborts members on a lossy fabric. Every value is exact, so
// a reordered skew draw, a member placed on the wrong node, or a different
// failure stop moves at least one of them.

ExperimentParams golden_gb_skewed() {
  ExperimentParams p = pe_params(16, 20);
  p.spec.algorithm = nic::BarrierAlgorithm::kGatherBroadcast;
  p.spec.gb_dimension = 3;
  p.max_start_skew = sim::microseconds(50.0);
  p.seed = 5;
  p.node_order = {5, 12, 0, 9, 14, 3, 7, 1, 10, 15, 2, 8, 13, 6, 11, 4};
  return p;
}

ExperimentParams golden_hier_pdes(unsigned workers) {
  ExperimentParams p = pe_params(256, 4);
  p.spec.gb_dimension = 3;
  p.spec.hierarchical = true;  // hier_block 0: derived from the fabric (16 per leaf)
  p.cluster.topology = host::Topology::kFatTree;
  p.cluster.fabric_radix = 18;
  p.cluster.fabric_oversub = 8;
  p.max_start_skew = sim::microseconds(50.0);
  p.seed = 3;
  p.cluster.pdes_partitions = 4;
  p.cluster.pdes_workers = workers;
  return p;
}

ExperimentParams golden_lossy_deadline() {
  ExperimentParams p = pe_params(8, 30);
  p.spec.deadline = sim::microseconds(300.0);
  p.cluster.nic.barrier_reliability = nic::BarrierReliability::kSharedStream;
  p.cluster.faults.loss.push_back({"", 0.05});
  return p;
}

struct Golden {
  std::int64_t total_ps;
  std::uint64_t barriers_completed;
  std::uint64_t retransmissions;
  std::uint64_t link_packets_dropped;
  std::uint64_t barrier_failures;
  std::vector<std::int64_t> member_ends;
};

void expect_golden(const ExperimentParams& p, const Golden& g, const std::string& what) {
  const ExperimentResult r = run_barrier_experiment(p);
  EXPECT_EQ(r.total.ps(), g.total_ps) << what;
  EXPECT_EQ(r.barriers_completed, g.barriers_completed) << what;
  EXPECT_EQ(r.retransmissions, g.retransmissions) << what;
  EXPECT_EQ(r.link_packets_dropped, g.link_packets_dropped) << what;
  EXPECT_EQ(r.barrier_failures, g.barrier_failures) << what;
  EXPECT_EQ(r.stalled_members, 0u) << what;
  std::vector<std::int64_t> ends;
  for (const sim::SimTime t : r.member_end_times) ends.push_back(t.ps());
  EXPECT_EQ(ends, g.member_ends) << what;
}

TEST(RunnerGoldenTest, SkewedGbWithPermutedNodes) {
  expect_golden(golden_gb_skewed(), Golden{4833065176, 320u, 0u, 0u, 0u, {
      4790637320, 4819025576, 4820843757, 4822661938, 4847413832, 4849232013, 4851050194,
      4849232013, 4851050194, 4852868375, 4851050194, 4852868375, 4854686556, 4875802088,
      4877620269, 4879438450}},
                "nic-gb dim 3, 16 nodes, 50 us skew");
}

TEST(RunnerGoldenTest, HierOnPartitionedFatTreeAtAnyWorkerCount) {
  const Golden g{1310419772, 1024u, 0u, 0u, 0u, {
      1315442755, 1325043141, 1325649201, 1326255261, 1326861321, 1327467381, 1328073441,
      1328679501, 1329285561, 1329891621, 1330497681, 1331103741, 1331709801, 1332315861,
      1332921921, 1333527981, 1296195029, 1305795415, 1306401475, 1307007535, 1307613595,
      1308219655, 1308825715, 1309431775, 1310037835, 1310643895, 1311249955, 1311856015,
      1312462075, 1313068135, 1313674195, 1314280255, 1341963210, 1351563596, 1352169656,
      1352775716, 1353381776, 1353987836, 1354593896, 1355199956, 1355806016, 1356412076,
      1357018136, 1357624196, 1358230256, 1358836316, 1359442376, 1360048436, 1319988208,
      1329588594, 1330194654, 1330800714, 1331406774, 1332012834, 1332618894, 1333224954,
      1333831014, 1334437074, 1335043134, 1335649194, 1336255254, 1336861314, 1337467374,
      1338073434, 1291649576, 1301249962, 1301856022, 1302462082, 1303068142, 1303674202,
      1304280262, 1304886322, 1305492382, 1306098442, 1306704502, 1307310562, 1307916622,
      1308522682, 1309128742, 1309734802, 1272401850, 1282002236, 1282608296, 1283214356,
      1283820416, 1284426476, 1285032536, 1285638596, 1286244656, 1286850716, 1287456776,
      1288062836, 1288668896, 1289274956, 1289881016, 1290487076, 1325442756, 1335043142,
      1335649202, 1336255262, 1336861322, 1337467382, 1338073442, 1338679502, 1339285562,
      1339891622, 1340497682, 1341103742, 1341709802, 1342315862, 1342921922, 1343527982,
      1298922301, 1308522687, 1309128747, 1309734807, 1310340867, 1310946927, 1311552987,
      1312159047, 1312765107, 1313371167, 1313977227, 1314583287, 1315189347, 1315795407,
      1316401467, 1317007527, 1298922301, 1308522687, 1309128747, 1309734807, 1310340867,
      1310946927, 1311552987, 1312159047, 1312765107, 1313371167, 1313977227, 1314583287,
      1315189347, 1315795407, 1316401467, 1317007527, 1279674575, 1289274961, 1289881021,
      1290487081, 1291093141, 1291699201, 1292305261, 1292911321, 1293517381, 1294123441,
      1294729501, 1295335561, 1295941621, 1296547681, 1297153741, 1297759801, 1325442756,
      1335043142, 1335649202, 1336255262, 1336861322, 1337467382, 1338073442, 1338679502,
      1339285562, 1339891622, 1340497682, 1341103742, 1341709802, 1342315862, 1342921922,
      1343527982, 1303467754, 1313068140, 1313674200, 1314280260, 1314886320, 1315492380,
      1316098440, 1316704500, 1317310560, 1317916620, 1318522680, 1319128740, 1319734800,
      1320340860, 1320946920, 1321552980, 1272401850, 1282002236, 1282608296, 1283214356,
      1283820416, 1284426476, 1285032536, 1285638596, 1286244656, 1286850716, 1287456776,
      1288062836, 1288668896, 1289274956, 1289881016, 1290487076, 1253154124, 1262754510,
      1263360570, 1263966630, 1264572690, 1265178750, 1265784810, 1266390870, 1266996930,
      1267602990, 1268209050, 1268815110, 1269421170, 1270027230, 1270633290, 1271239350,
      1306195030, 1315795416, 1316401476, 1317007536, 1317613596, 1318219656, 1318825716,
      1319431776, 1320037836, 1320643896, 1321249956, 1321856016, 1322462076, 1323068136,
      1323674196, 1324280256, 1279674575, 1289274961, 1289881021, 1290487081, 1291093141,
      1291699201, 1292305261, 1292911321, 1293517381, 1294123441, 1294729501, 1295335561,
      1295941621, 1296547681, 1297153741, 1297759801}};
  for (const unsigned workers : {1u, 4u}) {
    expect_golden(golden_hier_pdes(workers), g, "hier, 256 nodes, workers " + std::to_string(workers));
  }
}

TEST(RunnerGoldenTest, DeadlineAbortsMembersOnLossySharedStream) {
  expect_golden(golden_lossy_deadline(), Golden{598552234, 15u, 11u, 12u, 8u, {
      598552234, 389279912, 582285190, 480378005, 582285190, 389279912, 566018146, 475929143}},
                "nic-pe, 8 nodes, 5% loss, 300 us deadline");
}

}  // namespace
}  // namespace nicbar::coll
