// The paper's measurement loop: every node runs `reps` consecutive barriers
// (the paper ran 100 000 and averaged; the simulator is deterministic, so a
// few hundred give the same mean). run_barrier_experiment is a one-job run of
// wl::Driver's member loop (wl/driver.hpp) and builds into nicbar_wl. It
// reports the mean per-barrier latency in simulated microseconds plus
// aggregate NIC counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "coll/barrier.hpp"
#include "host/cluster.hpp"
#include "sim/time.hpp"

namespace nicbar::coll {

struct ExperimentParams {
  std::size_t nodes = 8;
  int reps = 200;
  BarrierSpec spec;
  host::ClusterParams cluster;  // cluster.nodes is overridden by `nodes`
  nic::PortId port = 2;         // GM reserves low ports; user traffic uses 2+
  /// Random per-node delay before the first barrier (models asynchronous
  /// arrival; 0 = all nodes start together as in the paper's benchmark).
  sim::Duration max_start_skew{0};
  std::uint64_t seed = 1;
  /// Runs the sim::check validation pass: barrier-safety monitoring while
  /// the loop runs, plus end-of-run packet-conservation verification on
  /// every link and switch. Costs a few counters; never perturbs timing.
  bool check_invariants = true;
  /// Optional permutation of the node ids 0..nodes-1: member i of the group
  /// runs on node node_order[i]. Empty = identity. Barrier latency must be
  /// invariant under this permutation on a symmetric fabric (a property the
  /// check harness exercises).
  std::vector<net::NodeId> node_order;
};

struct ExperimentResult {
  double mean_us = 0.0;   // mean latency of one barrier
  double total_us = 0.0;  // wall (simulated) time of the whole loop
  /// Same as total_us but in exact integer picoseconds — the quantity the
  /// differential oracle compares against closed-form predictions.
  sim::Duration total{0};
  int reps = 0;
  std::size_t nodes = 0;
  // Aggregated over all NICs:
  std::uint64_t barrier_packets_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t unexpected_recorded = 0;
  std::uint64_t bit_collisions = 0;
  std::uint64_t barriers_completed = 0;
  // Fault / recovery aggregates (all zero on a lossless fabric):
  std::uint64_t barrier_failures = 0;  // members whose run() aborted (dead peer / deadline)
  std::uint64_t stalled_members = 0;   // members still suspended when events ran dry (hung barrier)
  std::uint64_t retransmit_timeouts = 0;
  std::uint64_t rto_backoffs = 0;
  std::uint64_t rtt_samples = 0;
  std::uint64_t crc_drops = 0;
  std::uint64_t connections_failed = 0;
  std::uint64_t nic_crashes = 0;
  std::uint64_t nic_restarts = 0;
  std::uint64_t link_packets_dropped = 0;
  /// Exact simulated time each member finished its barrier loop (index =
  /// member, not node: member i runs on node node_order[i]). The PDES
  /// bit-identity suite diffs these integers across engine configurations.
  std::vector<sim::SimTime> member_end_times;
};

/// Runs the measurement loop; deterministic for fixed params.
[[nodiscard]] ExperimentResult run_barrier_experiment(const ExperimentParams& params);

/// Sweeps the GB tree dimension 1..N-1 (the paper's methodology) and returns
/// {best dimension, its mean latency in us}. `params.spec.algorithm` must be
/// kGatherBroadcast. The dimensions are independent runs, sharded across
/// `workers` threads (see sim::exec); the result is identical for any count.
[[nodiscard]] std::pair<std::size_t, double> best_gb_dimension(ExperimentParams params,
                                                               unsigned workers = 1);

}  // namespace nicbar::coll
