// Workload results: per-job and per-collective tail latency, plus fabric
// and NIC occupancy read straight from the cluster's stats. A Report is pure
// data derived from the simulated timeline — two runs of the same spec
// produce byte-identical write_json output, which is what the determinism
// tests and the BENCH_workload.json trajectory diff against.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "wl/spec.hpp"

namespace nicbar::wl {

/// Latency distribution summary (all values in simulated microseconds).
/// Percentiles come from a sim::Histogram with the spec's range; mean and
/// max are exact (streaming accumulator).
struct TailStats {
  std::uint64_t count = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

struct JobReport {
  std::string klass;       // job-class name
  std::size_t job = 0;     // global job index (spawn order)
  std::size_t nodes = 0;   // job width
  double arrival_us = 0.0; // when the job's processes were released
  double start_us = 0.0;   // last process entered the measurement loop
  double end_us = 0.0;     // last process finished
  /// (end_us - start_us) / iterations — the statistic
  /// coll::run_barrier_experiment reports (it is a one-job run of the same
  /// member loop), so a single-job barrier-only workload reproduces Fig. 5.
  double experiment_mean_us = 0.0;
  /// Per-collective latency as observed by every process (N samples per
  /// collective: stragglers show up in the tail).
  TailStats latency;
  std::array<std::uint64_t, kCollectiveKindCount> collectives{};  // by CollectiveKind
  std::uint64_t failures = 0;  // processes whose collective aborted

  // Managed-lifecycle classes only (all zero otherwise):
  std::uint64_t degraded_collectives = 0;  // barriers that ran host-fallback
  bool group_created = false;              // the create handshake succeeded
  bool group_destroyed = false;            // the destroy handshake succeeded
  std::uint64_t group_promotions = 0;      // degraded -> NIC re-promotions
};

struct Report {
  std::vector<JobReport> jobs;  // job order
  /// Aggregates over every job, split by collective kind (count == 0 for
  /// kinds the workload never issued) plus the union of all kinds.
  std::array<TailStats, kCollectiveKindCount> per_kind{};
  TailStats overall;
  double makespan_us = 0.0;  // simulated time when the last job finished
  std::uint64_t total_failures = 0;

  // Fabric / NIC occupancy over the whole run (means over links, NICs, buses):
  double mean_link_utilisation = 0.0;
  double max_link_utilisation = 0.0;
  double mean_nic_occupancy = 0.0;  // LANai processor busy fraction
  double max_nic_occupancy = 0.0;
  double mean_pci_utilisation = 0.0;
  std::uint64_t link_stalls = 0;  // packets queued behind a busy wire
  std::uint64_t barriers_completed = 0;
  std::uint64_t reduces_completed = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t link_packets_dropped = 0;

  // Barrier-group lifecycle (managed classes; from the jobs and the NIC
  // slot tables):
  std::uint64_t groups_created = 0;
  std::uint64_t groups_destroyed = 0;
  std::uint64_t degraded_collectives = 0;
  std::uint64_t group_promotions = 0;
  std::uint64_t slot_allocations = 0;
  std::uint64_t slot_rejections = 0;  // admission rejections (slots full)
  std::uint64_t slot_frees = 0;
  std::uint64_t slot_high_water = 0;  // max concurrent slots on any one NIC
  std::uint64_t stale_group_fenced = 0;  // packets fenced after group destroy

  /// One deterministic JSON document (keys ordered, jobs in job order).
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string json() const;
};

}  // namespace nicbar::wl
