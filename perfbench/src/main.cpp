// perfbench: host-cost benchmark for the nicbar simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// Prints the host record, one line per metric (name, value, unit), and as
// the last line one JSON object {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones and writes the span log to --spans-out; both add the
// unscaled host times and the speed probe's median. Exits 1 when any
// simulated output is off its pin, 2 on bad arguments or a build it refuses
// to measure.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "measure.hpp"
#include "speed_probe.hpp"
#include "workloads.hpp"

namespace {

using perfbench::fmt;
using perfbench::Metric;

#if defined(NICBAR_DISABLE_INVARIANTS)
constexpr bool kInvariantsOn = false;
#else
constexpr bool kInvariantsOn = true;
#endif
#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
#else
  return "unknown";
#endif
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>]\nworkloads:",
               msg);
  for (const std::string& w : perfbench::workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string spans_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opts.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return usage("--seed takes a whole number");
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opts.seconds > 0) || opts.seconds > 120) {
        return usage("--seconds takes a number in (0, 120]");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      opts.trace = v == "1";
    } else if (a == "--spans-out") {
      spans_out = v;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) known = known || w == opts.workload;
  if (!known) return usage(("unknown workload '" + opts.workload + "'").c_str());

  // Gains are measured with the invariant checks on, in an optimised build.
  if (!kInvariantsOn || !kOptimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure: build has invariants %s and optimisation %s; "
                 "rebuild without NICBAR_DISABLE_INVARIANTS in a Release build\n",
                 kInvariantsOn ? "on" : "off", kOptimized ? "on" : "off");
    return 2;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const std::string cpu = cpu_model();
  const std::string build = PERFBENCH_BUILD_TYPE;
  std::printf("perfbench %s seed=%llu seconds=%s trace=%d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), fmt(opts.seconds).c_str(),
              opts.trace ? 1 : 0);
  std::printf("host: hw_threads=%u cpu=\"%s\" build=%s optimized=1 invariants=on\n", hw,
              cpu.c_str(), build.c_str());
  std::fflush(stdout);

  perfbench::SpanLog log;
  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(opts, log);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }

  // End-to-end times are scaled to the reference host speed. The unscaled
  // medians and the probe's median go beside them, in both modes, so a
  // probe artefact can be told apart from a change to the simulator.
  std::vector<double> raw, scaled, probes, setup_raw, setup_scaled;
  for (const auto& [us, probe_us] : out.samples) {
    raw.push_back(us);
    scaled.push_back(us * perfbench::speed_scale(probe_us));
    probes.push_back(probe_us);
  }
  for (const auto& [s, probe_us] : out.setups) {
    setup_raw.push_back(s);
    setup_scaled.push_back(s * perfbench::speed_scale(probe_us));
  }
  std::vector<Metric> metrics;
  if (!opts.trace) {
    const perfbench::Tail t = perfbench::tail(scaled);
    metrics = {
        {"host_us_per_barrier", perfbench::median(scaled), "us"},
        {"host_us_per_barrier_tail", t.value, "us"},
        {"setup_s", perfbench::median(setup_scaled), "s"},
        {"peak_rss_mb", std::max(out.peak_rss_mb, perfbench::peak_rss_mb()), "MB"},
    };
    out.notes.push_back("host_us_per_barrier_tail is p" + fmt(t.percentile) + " of " +
                        std::to_string(t.samples) + " samples (" + std::to_string(t.beyond) +
                        " beyond)");
    if (!out.rss_probe_excluded) {
      out.notes.push_back("note: peak_rss_mb includes the speed probe (cannot reset VmHWM)");
    }
    if (!t.ok) out.pins.expect_true("too few samples for the tail statistic", false);
  } else {
    metrics = out.layers.metrics();
  }
  metrics.insert(metrics.end(),
                 {
                     {"host.unscaled_us_per_barrier", perfbench::median(raw), "us"},
                     {"host.unscaled_us_per_barrier_tail", perfbench::tail(raw).value, "us"},
                     {"host.unscaled_setup_s", perfbench::median(setup_raw), "s"},
                     {"host.speed_probe_us", perfbench::median(probes), "us"},
                 });
  const std::uint64_t failed = out.failed_total();
  const double failed_frac =
      out.attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(out.attempted);

  for (const Metric& m : metrics) {
    std::printf("%-34s %-22s %s\n", m.name.c_str(), fmt(m.value).c_str(), m.unit.c_str());
  }
  std::printf("%-34s %-22s %s\n", "failed_op_frac", fmt(failed_frac).c_str(), "frac");
  for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
  for (const std::string& m : out.pins.mismatches()) std::printf("PIN MISMATCH: %s\n", m.c_str());

  if (opts.trace && !spans_out.empty()) {
    std::ofstream f(spans_out);
    log.write_json(f, "\"workload\":" + json_str(opts.workload) + ",\"seed\":" +
                          std::to_string(opts.seed) + ",\"host\":{\"hw_threads\":" +
                          std::to_string(hw) + ",\"cpu\":" + json_str(cpu) +
                          ",\"build\":" + json_str(build) + "}");
    if (!f) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
      return 1;
    }
  }

  const bool correct = out.correct();
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + json_str(metrics[i].name) + ": {\"value\": " +
            fmt(metrics[i].value) + ", \"unit\": " + json_str(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
