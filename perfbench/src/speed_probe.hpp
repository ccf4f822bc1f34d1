// Host-speed probe. This host is shared, and its speed drifts by up to
// 1.75x over minutes as other tenants contend for the cores and the
// last-level cache (see README.md, "Host drift and the speed probe"). The
// probe runs one fixed event-queue kernel twice: on 32 KiB of state, which
// stays in the core's own caches, and on 2 MiB, which lives in the shared
// cache. Either alone tracks some slow phases and misses others; the
// geometric mean of the two times tracked the simulator best over the
// traces in README.md. The harness runs the probe between samples and
// reports end-to-end times scaled to a host on which the probe reads
// kProbeNominalUs. The probe is part of the benchmark, not of the
// simulator, so a change to the simulator cannot move it.
#pragma once

#include <cstdint>

namespace perfbench {

/// The probe's reading on the reference host, by definition.
inline constexpr double kProbeNominalUs = 5000.0;

/// The probe's checksum; a different value means the probe's work changed.
inline constexpr std::uint64_t kProbeChecksum = 10106111002;

struct ProbeResult {
  double us = 0;  // geometric mean of the two kernel times
  std::uint64_t checksum = 0;
  double peak_rss_mb = 0;  // peak_rss_mb() just before the probe ran
  bool rss_reset = false;  // whether the peak-RSS mark was reset after it
};

/// Runs the probe once: both kernels, each 30000 events. Its 2 MiB of state
/// is unmapped before it returns and the process's peak-RSS mark is then
/// reset, so the probe is left out of the peaks read after it.
[[nodiscard]] ProbeResult run_probe();

/// Peak RSS of this process, in MB, since it started or since the last
/// probe that reset the mark.
[[nodiscard]] double peak_rss_mb();

/// Factor that scales a host time measured next to a probe reading of
/// `probe_us` to the reference host.
[[nodiscard]] inline double speed_scale(double probe_us) { return kProbeNominalUs / probe_us; }

}  // namespace perfbench
