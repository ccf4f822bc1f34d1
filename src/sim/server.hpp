// Non-preemptive FIFO servers for callback-style (non-coroutine) hardware
// models.
//
//   BusyServer  — a device that services one job at a time, each occupying
//                 it for a caller-specified duration (a link, a DMA engine,
//                 a PCI bus). Jobs complete in submission order.
//   CycleServer — a BusyServer whose job costs are expressed in processor
//                 cycles at a configurable clock. This models the single
//                 LANai processor shared by the four MCP engines: all
//                 firmware handler costs are charged here, so halving the
//                 clock doubles exactly the NIC-resident component of every
//                 latency — the paper's LANai 4.3 vs 7.2 comparison.
//
// Both track utilisation statistics (busy time, jobs, total queueing delay).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "sim/check.hpp"
#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace nicbar::sim {

class BusyServer {
 public:
  explicit BusyServer(Simulator& sim, std::string name = {})
      : sim_(&sim), name_(std::move(name)) {}

  /// Enqueues a job occupying the server for `service` time; `on_done` (may
  /// be null) runs when the job completes. Returns the completion time.
  SimTime submit(Duration service, SmallFn on_done = nullptr) {
    return submit_at(sim_->now(), service, std::move(on_done));
  }

  /// submit() for a job that arrives at `ready` (>= now) rather than now: a
  /// stage fed by a FIFO upstream whose completion time is already known
  /// hands the job over in closed form instead of from an event at `ready`.
  /// Exact as long as every job reaches the server in `ready` order.
  SimTime submit_at(SimTime ready, Duration service, SmallFn on_done = nullptr) {
    const SimTime now = sim_->now();
    NICBAR_CHECK(!service.is_negative(), "sim.server", now,
                 "server '%s': negative service time %lld ps", name_.c_str(),
                 static_cast<long long>(service.ps()));
    NICBAR_CHECK(ready >= now, "sim.server", now,
                 "server '%s': job ready %lld ps in the past", name_.c_str(),
                 static_cast<long long>((now - ready).ps()));
    const SimTime start = free_at_ > ready ? free_at_ : ready;
    // Mutual exclusion: the device serves one job at a time, in FIFO order.
    // A start before the previous job's completion (or before the job is
    // ready) would mean two jobs overlap on the bus/processor.
    NICBAR_CHECK(start >= free_at_ && start >= ready, "sim.server", now,
                 "server '%s': job would overlap previous occupancy "
                 "(start=%lld ps, free_at=%lld ps)",
                 name_.c_str(), static_cast<long long>(start.ps()),
                 static_cast<long long>(free_at_.ps()));
    if (start > ready) ++stalls_;  // job had to queue behind an earlier one
    queue_delay_total_ += start - ready;
    busy_total_ += service;
    free_at_ = start + service;
    ++jobs_;
    if (on_done) sim_->schedule_at(free_at_, std::move(on_done));
    return free_at_;
  }

  /// The completion time submit(service) would return if called now.
  [[nodiscard]] SimTime completion_if_submitted(Duration service) const {
    const SimTime now = sim_->now();
    return (free_at_ > now ? free_at_ : now) + service;
  }

  /// Re-points the server at another Simulator (PDES partitioning: fabric
  /// elements are constructed on the build lane, then bound to their
  /// partition's lane). Only legal while no simulation is running.
  void rebind_sim(Simulator& sim) { sim_ = &sim; }

  /// Completion time of the last submitted job (server idle before any job).
  [[nodiscard]] SimTime free_at() const { return free_at_; }
  [[nodiscard]] bool busy() const { return free_at_ > sim_->now(); }

  [[nodiscard]] std::uint64_t jobs() const { return jobs_; }
  /// Jobs that found the server busy and had to queue (contention stalls).
  [[nodiscard]] std::uint64_t stalls() const { return stalls_; }
  [[nodiscard]] Duration busy_total() const { return busy_total_; }
  [[nodiscard]] Duration queue_delay_total() const { return queue_delay_total_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Utilisation over [0, now].
  [[nodiscard]] double utilisation() const {
    const double t = static_cast<double>(sim_->now().ps());
    if (t <= 0) return 0.0;
    const double b = static_cast<double>(busy_total_.ps());
    return b > t ? 1.0 : b / t;
  }

 private:
  Simulator* sim_;
  std::string name_;
  SimTime free_at_{0};
  std::uint64_t jobs_ = 0;
  std::uint64_t stalls_ = 0;
  Duration busy_total_{0};
  Duration queue_delay_total_{0};
};

class CycleServer {
 public:
  CycleServer(Simulator& sim, double clock_mhz, std::string name = {})
      : server_(sim, std::move(name)), clock_mhz_(clock_mhz) {}

  /// Enqueues a firmware job costing `cycles` processor cycles.
  SimTime submit_cycles(std::int64_t cycles, SmallFn on_done = nullptr) {
    return server_.submit(cycles_at_mhz(cycles, clock_mhz_), std::move(on_done));
  }

  [[nodiscard]] Duration cycles(std::int64_t n) const { return cycles_at_mhz(n, clock_mhz_); }
  [[nodiscard]] double clock_mhz() const { return clock_mhz_; }
  [[nodiscard]] const BusyServer& stats() const { return server_; }
  [[nodiscard]] SimTime free_at() const { return server_.free_at(); }

 private:
  BusyServer server_;
  double clock_mhz_;
};

}  // namespace nicbar::sim
