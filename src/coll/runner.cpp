#include "coll/runner.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "coll/sweep.hpp"
#include "sim/random.hpp"
#include "wl/driver.hpp"

namespace nicbar::coll {

ExperimentResult run_barrier_experiment(const ExperimentParams& params) {
  if (params.nodes == 0) throw std::invalid_argument("need at least one node");
  host::ClusterParams cp = params.cluster;
  cp.nodes = params.nodes;
  host::Cluster cluster(cp);

  // Member i runs on node node_order[i] (identity when empty), after a
  // start skew; the skews draw from one stream in member order.
  wl::JobPlan job;
  const std::vector<net::NodeId>& order = params.node_order;
  std::vector<bool> seen(params.nodes, false);
  sim::Rng rng(params.seed);
  const auto skew_ps = static_cast<double>(params.max_start_skew.ps());
  for (std::size_t i = 0; i < params.nodes; ++i) {
    const net::NodeId node = order.empty() ? static_cast<net::NodeId>(i) : order[i];
    if ((!order.empty() && order.size() != params.nodes) || node >= params.nodes || seen[node]) {
      throw std::invalid_argument("node_order must be a permutation of 0..nodes-1");
    }
    seen[node] = true;
    job.members.push_back(nic::Endpoint{node, params.port});
    job.start_offsets.push_back(sim::Duration{
        skew_ps != 0 ? static_cast<std::int64_t>(rng.uniform() * skew_ps) : 0});
  }
  job.iterations = params.reps;
  // The hierarchical family's block size defaults to the fabric's leaf
  // population, so "one block" really is "one leaf switch" under the
  // in-order placement. Explicit hier_block (tests, flat topologies) wins.
  job.barrier = params.spec;
  if (job.barrier.hierarchical && job.barrier.hier_block == 0) {
    if (const fabric::Fabric* f = cluster.fabric()) job.barrier.hier_block = f->hosts_per_leaf;
  }

  const std::vector<wl::MemberOutcome> members =
      wl::run_barrier_job(cluster, job, params.check_invariants);

  // The barrier loop is over when the *last* member finishes its last
  // barrier; it began when the last member started (all members must be in
  // before any barrier can complete).
  ExperimentResult res;
  sim::SimTime begin{0}, end{0};
  for (const wl::MemberOutcome& m : members) {
    if (m.start > begin) begin = m.start;
    if (m.end > end) end = m.end;
    if (m.failed) ++res.barrier_failures;
    if (!m.finished) ++res.stalled_members;
    res.member_end_times.push_back(m.end);
  }
  res.reps = params.reps;
  res.nodes = params.nodes;
  res.total = end - begin;
  res.total_us = res.total.us();
  res.mean_us = res.total_us / params.reps;

  for (std::size_t i = 0; i < params.nodes; ++i) {
    const nic::NicStats& s = cluster.nic(static_cast<net::NodeId>(i)).stats();
    res.barrier_packets_sent += s.barrier_packets_sent;
    res.retransmissions += s.retransmissions;
    res.unexpected_recorded += s.unexpected_recorded;
    res.bit_collisions += s.bit_collisions;
    res.barriers_completed += s.barriers_completed;
    res.retransmit_timeouts += s.retransmit_timeouts;
    res.rto_backoffs += s.rto_backoffs;
    res.rtt_samples += s.rtt_samples;
    res.crc_drops += s.crc_drops;
    res.connections_failed += s.connections_failed;
    res.nic_crashes += s.nic_crashes;
    res.nic_restarts += s.nic_restarts;
  }
  cluster.network().for_each_link(
      [&res](net::Link& l) { res.link_packets_dropped += l.packets_dropped(); });
  return res;
}

std::pair<std::size_t, double> best_gb_dimension(ExperimentParams params, unsigned workers) {
  if (params.spec.algorithm != nic::BarrierAlgorithm::kGatherBroadcast) {
    throw std::invalid_argument("dimension sweep requires the GB algorithm");
  }
  SweepPlan plan;
  plan.add_gb_sweep("gb-dim-sweep", std::move(params));
  SweepOptions opts;
  opts.workers = workers;
  const SweepResult r = plan.run(opts);
  const CaseResult& c = r.cases.front();
  return {c.gb_dimension, c.result.mean_us};
}

}  // namespace nicbar::coll
