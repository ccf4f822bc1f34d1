// Executes a WorkloadSpec: every job instance becomes a set of per-node
// processes (coroutines) with their own GM ports and communicators, all
// sharing one host::Cluster — so jobs contend for NIC processors, PCI buses,
// link wires, and switch output ports exactly as co-scheduled tenants would.
//
// This is the one member loop; coll::run_barrier_experiment is a one-job run
// of it. Members run on their node's simulator lane and write only their own
// slot or their lane's; lanes fold in lane order after the run (serially: in
// event order). Each job feeds a sim::check::BarrierSafetyMonitor, and the
// quiescent fabric is checked for packet conservation at the end.
//
// Determinism: a (spec, seed) pair fixes the entire timeline; arrival gaps,
// collective schedules, and compute skew each draw from their own substream
// of (seed, purpose, job), so changing one class never perturbs another's.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "coll/barrier.hpp"
#include "host/cluster.hpp"
#include "wl/report.hpp"
#include "wl/slo.hpp"
#include "wl/spec.hpp"

namespace nicbar::wl {

/// Derives an independent RNG stream from a base seed, a purpose tag, and an
/// index (splitmix64 finaliser). Exposed for tests.
[[nodiscard]] std::uint64_t substream(std::uint64_t seed, std::uint64_t purpose,
                                      std::uint64_t idx);

/// One job as the member loop runs it. Driver builds one per JobClass
/// instance; coll::run_barrier_experiment builds one from its params.
struct JobPlan {
  std::vector<nic::Endpoint> members;        // member i's node and GM port; the roster members view
  coll::BarrierSpec barrier;                 // the barrier every member runs
  int iterations = 0;
  std::vector<sim::Duration> start_offsets;  // per member, awaited after arrival
};

/// One member's result slot, written only by that member.
struct MemberOutcome {
  sim::SimTime start{0};  // entered its first iteration
  sim::SimTime end{0};    // left its loop
  bool finished = false;  // false: still suspended when events ran dry
  bool failed = false;    // a collective aborted, so the member stopped looping
  std::uint64_t degraded = 0;  // barriers completed over the host fallback
};

/// Runs one barrier-only job on a freshly built `cluster`; returns each
/// member's outcome in member order. `check` arms the safety monitor and
/// the end-of-run conservation pass.
[[nodiscard]] std::vector<MemberOutcome> run_barrier_job(host::Cluster& cluster,
                                                         const JobPlan& job, bool check);

class Driver {
 public:
  /// Validates eagerly; throws std::invalid_argument on a malformed spec.
  explicit Driver(WorkloadSpec spec);

  [[nodiscard]] const WorkloadSpec& spec() const { return spec_; }

  /// Builds a fresh cluster and runs the whole job population to completion,
  /// checks armed. Repeated calls re-run the identical experiment from
  /// scratch. If spec.cluster.telemetry is set the caller's bundle receives
  /// the snapshot_metrics dump. Throws std::invalid_argument for closed-loop
  /// arrival on a partitioned cluster (a finishing job releases another,
  /// which may run on another lane).
  [[nodiscard]] Report run();

  /// Like run(), but also computes the SLO burn-rate report for every class
  /// that declares one (empty report when none do). Enables causal tracing
  /// for the run so each SLO'd job carries its critical-path attribution;
  /// the simulated timeline is bit-identical to run() regardless.
  [[nodiscard]] std::pair<Report, SloReport> run_with_slo();

 private:
  Report run_impl(SloReport* slo_out);

  WorkloadSpec spec_;
};

/// Convenience: Driver(spec).run().
[[nodiscard]] Report run_workload(const WorkloadSpec& spec);

}  // namespace nicbar::wl
