// The benchmark's workloads. Each one drives the simulator's layers from
// outside, through public calls only, measures host time, and checks its
// simulated outputs against pins (README.md gives the why of each).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer numbers from the traced run. A field stays 0 on a workload
/// that does not exercise its layer (the "flat on" column of README.md).
struct LayerMetrics {
  double cluster_build_s = 0;
  double open_port_s = 0;
  double member_build_s = 0;
  double run_s = 0;
  double run_self_s = 0;
  double events_per_barrier = 0;
  double ns_per_event = 0;
  double events_per_host_s = 0;
  double heap_allocs_per_barrier = 0;
  double heap_bytes_per_barrier = 0;
  double monitor_s = 0;
  double monitor_share = 0;
  double monitor_calls = 0;
  double route_lookup_ns = 0;
  double link_packets_per_barrier = 0;
  double nic_barrier_packets_per_barrier = 0;
  double nic_unexpected_per_barrier = 0;
  double pdes_windows_per_barrier = 0;
  double pdes_events_per_window = 0;
  double pdes_channel_msgs_per_window = 0;
  double pdes_max_drain_batch = 0;
  double pdes_speedup_vs_serial = 0;     // one worker thread per partition
  double pdes_1w_speedup_vs_serial = 0;  // all partitions on one thread
  double wl_run_s = 0;
  double wl_barriers_per_run = 0;
  double trace_overhead_frac = 0;
  double paper_err_pct = 0;

  [[nodiscard]] std::vector<Metric> metrics() const;
};

struct Outcome {
  std::uint64_t attempted = 0;  // group-wide barriers measured
  std::uint64_t failed = 0;     // of those: a member returned non-OK or stalled
  PinCheck pins;                // any mismatch fails every barrier of the run
  /// A host time and the host-speed probe time measured just before it.
  struct Timed {
    double value = 0;
    double probe_us = 0;
  };
  // Untraced blocks (in the traced run too): the end-to-end numbers, from
  // which the caller derives the scaled and unscaled metrics.
  std::vector<Timed> samples;  // host µs per barrier, one per sample
  std::vector<Timed> setups;   // host s of one set-up
  double peak_rss_mb = 0;  // highest peak RSS read between speed probes
  bool rss_probe_excluded = true;  // false: the peak includes a probe
  // Traced run:
  LayerMetrics layers;
  std::vector<std::string> notes;  // extra human-readable lines

  [[nodiscard]] std::uint64_t failed_total() const { return pins.ok() ? failed : attempted; }
  [[nodiscard]] bool correct() const { return attempted > 0 && failed_total() == 0; }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs `opts.workload` for about `opts.seconds` of host time; spans of the
/// traced run go to `log`. Throws std::invalid_argument on an unknown name.
[[nodiscard]] Outcome run_workload(const Options& opts, SpanLog& log);

}  // namespace perfbench
