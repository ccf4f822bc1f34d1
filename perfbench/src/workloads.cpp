#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "coll/barrier.hpp"
#include "coll/runner.hpp"
#include "coll/sweep.hpp"
#include "host/cluster.hpp"
#include "sim/check.hpp"
#include "sim/telemetry.hpp"
#include "speed_probe.hpp"
#include "wl/driver.hpp"
#include "wl/spec.hpp"

namespace perfbench {
namespace {

using nicbar::net::NodeId;
using nicbar::sim::SimTime;
namespace coll = nicbar::coll;
namespace host = nicbar::host;
namespace nic = nicbar::nic;
namespace sim = nicbar::sim;
namespace wl = nicbar::wl;

// --- Workload definitions ----------------------------------------------------

// Fig. 5 reps: the tier-1 goldens fix the 100-barrier totals, so a block of
// 100 lets every NIC-PE and host-PE block be compared with them directly.
constexpr int kFig5Reps = 100;
constexpr std::size_t kFig5GbDim = 4;  // best GB dimension at 16 nodes

// The tier-1 goldens (tests/coll/hier_barrier_test.cpp): LANai 4.3, 16
// nodes, 100 barriers, exact integer picoseconds.
constexpr std::int64_t kGoldenHostPe16 = 18209210800;
constexpr std::int64_t kGoldenNicPe16 = 10100150600;
constexpr std::int64_t kGoldenNicGbDim2N16 = 26440735475;

// Paper anchors at 16 nodes, LANai 4.3.
constexpr double kPaperNicPeUs = 102.14;
constexpr double kPaperNicGbUs = 152.27;
constexpr double kPaperPeFactor = 1.78;
constexpr double kPaperGbFactor = 1.46;

// Sustained hier barriers: radix-18 fat-tree, 8:1 leaf oversubscription,
// intra-block GB trees of dimension 3, one block per leaf switch.
constexpr std::size_t kHierRadix = 18;
constexpr std::size_t kHierOversub = 8;
constexpr std::size_t kHierDim = 3;
// Barriers per cycle: enough to amortise each cycle's set-up, few enough
// that a cycle (about 0.3-1 s here) stays short against host drift.
constexpr int kHier4096Reps = 6;
constexpr int kHier1024Reps = 20;
constexpr std::size_t kPdesPartitions = 4;

// examples/workloads/tail.wl, embedded so the workload cannot drift with
// edits to the example; the seed line is replaced by the command line's.
constexpr const char* kTenantsSpec = R"(cluster-nodes 32
nic lanai43
topology switch
placement overlapping
arrival poisson 2000
seed 7
hist-max-us 4000

job tenant
  count 4
  nodes 8
  iters 200
  mix barrier=1
  compute-us 30
  imbalance 0.4
)";
constexpr std::uint64_t kTenantsPinSeed = 7;
constexpr int kSetupBatch = 200;

// --- The member loop ---------------------------------------------------------

/// State one cycle's member coroutines share. Members on different PDES
/// lanes run concurrently, so each writes only its own slots; the per-barrier
/// completion counters are atomic and the member that completes a barrier
/// last stamps its host time.
struct Loop {
  Loop(std::size_t n, int reps)
      : members(n),
        starts(n),
        ends(n),
        failed(n, 0),
        finished(n, 0),
        done(static_cast<std::size_t>(reps)),
        stamps(static_cast<std::size_t>(reps)),
        arrive(n),
        complete(n) {}

  void note_done(int r) {
    if (done[static_cast<std::size_t>(r)].fetch_add(1, std::memory_order_relaxed) + 1 ==
        members) {
      stamps[static_cast<std::size_t>(r)] = Clock::now();
    }
  }

  std::size_t members;
  std::vector<SimTime> starts, ends;
  std::vector<std::uint8_t> failed, finished;
  std::vector<std::atomic<std::uint32_t>> done;
  std::vector<Clock::time_point> stamps;
  std::vector<CallCost> arrive, complete;  // traced: monitor calls per member
};

/// coll::run_barrier_experiment's member_proc, call for call (zero start
/// skew), plus host-side stamps. The traced variant times each monitor call.
template <bool kTraced>
sim::Task member_proc(sim::Simulator& s, coll::BarrierMember& member, int reps, Loop& loop,
                      sim::check::BarrierSafetyMonitor& monitor, std::size_t i) {
  loop.starts[i] = s.now();
  for (int r = 0; r < reps; ++r) {
    if constexpr (kTraced) {
      const auto a = Clock::now();
      monitor.arrive(i, s.now());
      loop.arrive[i].add(a, Clock::now());
    } else {
      monitor.arrive(i, s.now());
    }
    const coll::BarrierStatus st = co_await member.run();
    if (st != coll::BarrierStatus::kOk) {
      loop.failed[i] = 1;
      break;
    }
    if constexpr (kTraced) {
      const auto a = Clock::now();
      monitor.complete(i, s.now());
      loop.complete[i].add(a, Clock::now());
    } else {
      monitor.complete(i, s.now());
    }
    loop.note_done(r);
  }
  loop.ends[i] = s.now();
  loop.finished[i] = 1;
}

/// One cluster build plus one sustained barrier loop: what one
/// coll::run_barrier_experiment call does, timed from outside.
struct Cycle {
  int reps = 0;
  double cluster_s = 0, setup_s = 0, run_s = 0;
  std::uint64_t events = 0;
  std::vector<double> barrier_us;  // host µs of barriers 2..reps (1 includes spawn)
  std::uint64_t completed = 0;     // barriers every member completed
  // Simulated outputs.
  sim::Duration total{0};
  std::vector<SimTime> ends;
  std::uint64_t failed_members = 0, stalled_members = 0;
  std::uint64_t barrier_packets = 0, unexpected = 0, barriers_completed = 0, link_packets = 0;
  sim::pdes::WindowStats windows{};
  // Traced only.
  CallCost open_port, member_build, monitor;
  heap::Counts heap{};
  double route_ns = 0;
};

/// Median host ns of one warm Network::route call over a fixed sample of 64
/// (src, dst) pairs, 256 calls per pair.
double route_lookup_ns(nicbar::net::Network& net, std::size_t nodes, CallCost& cost) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  while (pairs.size() < 64) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto src = static_cast<NodeId>((x >> 33) % nodes);
    const auto dst = static_cast<NodeId>((x >> 13) % nodes);
    if (src != dst) pairs.emplace_back(src, dst);
  }
  std::size_t sink = 0;
  for (const auto& [s, d] : pairs) sink += net.route(s, d).size();
  constexpr int kCalls = 256;
  std::vector<double> per_call;
  for (const auto& [s, d] : pairs) {
    const auto a = Clock::now();
    for (int k = 0; k < kCalls; ++k) sink += net.route(s, d).size();
    const auto b = Clock::now();
    cost.add(a, b, kCalls);
    per_call.push_back(seconds_between(a, b) * 1e9 / kCalls);
  }
  // Every route has at least one hop; using the sum keeps the calls live.
  if (sink == 0) throw std::logic_error("Network::route returned only empty routes");
  return median(per_call);
}

Cycle run_cycle(const coll::ExperimentParams& p, bool traced, SpanLog* log) {
  if (!p.node_order.empty() || !p.max_start_skew.is_zero() || !p.check_invariants) {
    throw std::invalid_argument("perfbench cycles use identity order, no skew, checks on");
  }
  Cycle c;
  c.reps = p.reps;
  const auto t0 = Clock::now();
  host::ClusterParams cp = p.cluster;
  cp.nodes = p.nodes;
  host::Cluster cluster(cp);
  const auto t1 = Clock::now();

  coll::BarrierSpec spec = p.spec;
  if (spec.hierarchical && spec.hier_block == 0) {
    if (const nicbar::fabric::Fabric* f = cluster.fabric()) spec.hier_block = f->hosts_per_leaf;
  }
  std::vector<coll::Endpoint> group;
  group.reserve(p.nodes);
  for (std::size_t i = 0; i < p.nodes; ++i) {
    group.push_back(coll::Endpoint{static_cast<NodeId>(i), p.port});
  }
  std::vector<std::unique_ptr<nicbar::gm::Port>> ports;
  std::vector<std::unique_ptr<coll::BarrierMember>> members;
  ports.reserve(p.nodes);
  members.reserve(p.nodes);
  for (std::size_t i = 0; i < p.nodes; ++i) {
    if (traced) {
      const auto a = Clock::now();
      ports.push_back(cluster.open_port(static_cast<NodeId>(i), p.port));
      const auto b = Clock::now();
      members.push_back(std::make_unique<coll::BarrierMember>(*ports.back(), group, spec));
      c.open_port.add(a, b);
      c.member_build.add(b, Clock::now());
    } else {
      ports.push_back(cluster.open_port(static_cast<NodeId>(i), p.port));
      members.push_back(std::make_unique<coll::BarrierMember>(*ports.back(), group, spec));
    }
  }

  Loop loop(p.nodes, p.reps);
  sim::check::BarrierSafetyMonitor monitor(p.nodes);
  for (std::size_t i = 0; i < p.nodes; ++i) {
    sim::Simulator& lane = cluster.sim_for(static_cast<NodeId>(i));
    lane.spawn(traced ? member_proc<true>(lane, *members[i], p.reps, loop, monitor, i)
                      : member_proc<false>(lane, *members[i], p.reps, loop, monitor, i));
  }
  const auto t2 = Clock::now();
  if (traced) heap::start();
  c.events = cluster.run_all();
  if (traced) c.heap = heap::stop();
  const auto t3 = Clock::now();
  c.cluster_s = seconds_between(t0, t1);
  c.setup_s = seconds_between(t0, t2);
  c.run_s = seconds_between(t2, t3);

  cluster.network().for_each_link([](nicbar::net::Link& l) { l.verify_conservation(); });
  for (std::size_t s = 0; s < cluster.network().switch_count(); ++s) {
    cluster.network().switch_at(static_cast<int>(s)).verify_conservation();
  }

  SimTime begin{0}, end{0};
  std::uint64_t finished = 0;
  for (std::size_t i = 0; i < p.nodes; ++i) {
    if (loop.starts[i] > begin) begin = loop.starts[i];
    if (loop.ends[i] > end) end = loop.ends[i];
    c.failed_members += loop.failed[i];
    finished += loop.finished[i];
    const nic::NicStats& s = cluster.nic(static_cast<NodeId>(i)).stats();
    c.barrier_packets += s.barrier_packets_sent;
    c.unexpected += s.unexpected_recorded;
    c.barriers_completed += s.barriers_completed;
  }
  c.stalled_members = p.nodes - finished;
  c.total = end - begin;
  c.ends = loop.ends;
  cluster.network().for_each_link(
      [&c](nicbar::net::Link& l) { c.link_packets += l.packets_sent(); });

  for (std::size_t r = 0; r < loop.done.size(); ++r) {
    if (loop.done[r].load(std::memory_order_relaxed) != p.nodes) continue;
    ++c.completed;
    if (r > 0 && loop.done[r - 1].load(std::memory_order_relaxed) == p.nodes) {
      c.barrier_us.push_back(seconds_between(loop.stamps[r - 1], loop.stamps[r]) * 1e6);
    }
  }

  Clock::time_point t4{}, t5{};
  if (sim::pdes::PartitionedSimulator* pd = cluster.pdes()) {
    t4 = Clock::now();
    c.windows = pd->stats();
    t5 = Clock::now();
  }
  if (!traced) return c;

  CallCost arrive, complete, route;
  for (std::size_t i = 0; i < p.nodes; ++i) {
    arrive.merge(loop.arrive[i]);
    complete.merge(loop.complete[i]);
  }
  c.monitor = arrive;
  c.monitor.merge(complete);
  c.route_ns = route_lookup_ns(cluster.network(), p.nodes, route);

  const int cycle = log->add("cycle", -1, t0, Clock::now());
  log->add("host.Cluster", cycle, t0, t1);
  log->add_aggregate("gm.open_port", cycle, c.open_port);
  log->add_aggregate("coll.BarrierMember", cycle, c.member_build);
  const int run = log->add("sim.run_all", cycle, t2, t3);
  log->add_aggregate("check.arrive", run, arrive);
  log->add_aggregate("check.complete", run, complete);
  if (cluster.pdes() != nullptr) log->add("pdes.stats", cycle, t4, t5);
  log->add_aggregate("net.route", cycle, route);
  return c;
}

// --- Checks ------------------------------------------------------------------

/// Compares a cycle's simulated outputs with the run_barrier_experiment call
/// it mirrors.
void matches(PinCheck& pins, const std::string& label, const Cycle& c,
             const coll::ExperimentResult& ref) {
  pins.expect(label + " total_ps", c.total.ps(), ref.total.ps());
  pins.expect_true(label + " member end times differ", c.ends == ref.member_end_times);
  pins.expect(label + " barrier_packets", c.barrier_packets, ref.barrier_packets_sent);
  pins.expect(label + " unexpected", c.unexpected, ref.unexpected_recorded);
  pins.expect(label + " barriers_completed", c.barriers_completed, ref.barriers_completed);
  pins.expect(label + " failed_members", c.failed_members, ref.barrier_failures);
  pins.expect(label + " stalled_members", c.stalled_members, ref.stalled_members);
}

/// Counts that must repeat exactly from cycle to cycle of one case.
void same_counts(PinCheck& pins, const std::string& label, const Cycle& c, const Cycle& first) {
  pins.expect(label + " events", c.events, first.events);
  pins.expect(label + " link_packets", c.link_packets, first.link_packets);
  pins.expect(label + " pdes windows", c.windows.windows, first.windows.windows);
  pins.expect(label + " pdes channel_messages", c.windows.channel_messages,
              first.windows.channel_messages);
  pins.expect(label + " pdes max_drain_batch", c.windows.max_drain_batch,
              first.windows.max_drain_batch);
}

// --- Barrier workloads -------------------------------------------------------

struct Case {
  std::string label;
  coll::ExperimentParams params;
  coll::ExperimentResult ref;  // the one run_barrier_experiment call
  std::optional<Cycle> first;  // the first measured cycle, for the repeat checks
};

/// A block is one cycle of each case. Per-block sums are the unit the
/// metrics are medians over.
struct Block {
  double setup_s = 0, cluster_s = 0, open_port_s = 0, member_build_s = 0, run_s = 0;
  double monitor_s = 0;
  std::uint64_t monitor_calls = 0, barriers = 0, events = 0;
  std::uint64_t link_packets = 0, barrier_packets = 0, unexpected = 0;
  std::uint64_t heap_allocs = 0, heap_bytes = 0;
  sim::pdes::WindowStats windows{};
  std::vector<double> barrier_us;
  double route_ns = 0;
};

/// kAsIs runs the case as defined; the traced run of the partitioned
/// workload also re-runs it on the serial engine and with one worker thread
/// per partition.
enum class Engine { kAsIs, kSerial, kThreaded };

struct BarrierWorkload {
  std::vector<Case> cases;
  bool per_barrier_samples = true;  // false: one sample per block
  bool pdes = false;  // traced run also times the serial and threaded engines
};

void add_cycle(Block& b, const Cycle& c) {
  b.setup_s += c.setup_s;
  b.cluster_s += c.cluster_s;
  b.open_port_s += c.open_port.seconds();
  b.member_build_s += c.member_build.seconds();
  b.run_s += c.run_s;
  b.monitor_s += c.monitor.seconds();
  b.monitor_calls += c.monitor.calls;
  b.barriers += static_cast<std::uint64_t>(c.reps);
  b.events += c.events;
  b.link_packets += c.link_packets;
  b.barrier_packets += c.barrier_packets;
  b.unexpected += c.unexpected;
  b.heap_allocs += c.heap.allocs;
  b.heap_bytes += c.heap.bytes;
  b.windows.windows += c.windows.windows;
  b.windows.events += c.windows.events;
  b.windows.channel_messages += c.windows.channel_messages;
  b.windows.max_drain_batch = std::max(b.windows.max_drain_batch, c.windows.max_drain_batch);
  b.barrier_us.insert(b.barrier_us.end(), c.barrier_us.begin(), c.barrier_us.end());
  if (b.route_ns == 0) b.route_ns = c.route_ns;
}

/// The heap counts of single-threaded runs repeat exactly, so every traced
/// run must count what the first one did.
template <class T, class F>
void pin_heap_counts(Outcome& out, const std::vector<T>& runs, F allocs) {
  for (const T& r : runs) {
    out.pins.expect("heap allocations in a traced run", allocs(r), allocs(runs.front()));
  }
}

/// Runs the host-speed probe and checks that its work is unchanged. Also
/// keeps the peak RSS reached since the previous probe.
double probe(Outcome& out) {
  const ProbeResult r = run_probe();
  out.pins.expect("speed probe checksum", r.checksum, kProbeChecksum);
  out.peak_rss_mb = std::max(out.peak_rss_mb, r.peak_rss_mb);
  out.rss_probe_excluded = out.rss_probe_excluded && r.rss_reset;
  return r.us;
}

Block run_block(BarrierWorkload& w, Engine engine, bool traced, SpanLog* log, Outcome& out) {
  Block b;
  for (Case& cs : w.cases) {
    coll::ExperimentParams p = cs.params;
    if (engine == Engine::kSerial) p.cluster.pdes_partitions = 1;
    if (engine == Engine::kThreaded) p.cluster.pdes_workers = static_cast<unsigned>(kPdesPartitions);
    Cycle c = run_cycle(p, traced, log);
    const std::uint64_t reps = static_cast<std::uint64_t>(c.reps);
    out.attempted += reps;
    matches(out.pins, cs.label, c, cs.ref);
    // Window counts do not depend on the worker count, so the threaded
    // re-runs must repeat them too.
    if (engine != Engine::kSerial) {
      if (!cs.first) cs.first = c;
      same_counts(out.pins, cs.label, c, *cs.first);
    }
    out.failed += reps - c.completed;
    add_cycle(b, c);
  }
  return b;
}

double per_barrier_us(const Block& b) {
  return b.run_s * 1e6 / static_cast<double>(b.barriers);
}

/// Host µs per barrier, one per sample: a barrier, or a whole block.
std::vector<double> block_samples(const BarrierWorkload& w, const Block& b) {
  return w.per_barrier_samples ? b.barrier_us : std::vector<double>{per_barrier_us(b)};
}

std::vector<double> block_samples(const BarrierWorkload& w, const std::vector<Block>& blocks) {
  std::vector<double> v;
  for (const Block& b : blocks) {
    const std::vector<double> s = block_samples(w, b);
    v.insert(v.end(), s.begin(), s.end());
  }
  return v;
}

template <class F>
double median_of(const std::vector<Block>& blocks, F f) {
  std::vector<double> v;
  v.reserve(blocks.size());
  for (const Block& b : blocks) v.push_back(f(b));
  return median(v);
}

void run_barrier_workload(BarrierWorkload& w, const Options& opts, SpanLog& log,
                          Outcome& out, std::size_t min_samples) {
  // The cross-check: one run_barrier_experiment call per case, on the
  // serial engine. It also warms the allocator before anything is timed.
  for (Case& cs : w.cases) {
    coll::ExperimentParams p = cs.params;
    p.cluster.pdes_partitions = 1;
    const auto a = Clock::now();
    cs.ref = coll::run_barrier_experiment(p);
    if (opts.trace) log.add("coll.run_barrier_experiment", -1, a, Clock::now());
  }

  // One unrecorded block first: the first cycle after process start runs on
  // freshly mapped memory and reads up to 2x slower than the steady state.
  (void)run_block(w, Engine::kAsIs, false, nullptr, out);

  std::vector<Block> plain, traced, serial, threaded;
  auto sample = [&](const Block& b, double speed) {
    for (const double us : block_samples(w, b)) out.samples.push_back({us, speed});
    out.setups.push_back({b.setup_s, speed});
  };
  const auto deadline = Clock::now() + std::chrono::duration<double>(opts.seconds);
  if (!opts.trace) {
    double before = probe(out);
    while (Clock::now() < deadline || out.samples.size() < min_samples) {
      const Block b = run_block(w, Engine::kAsIs, false, nullptr, out);
      const double after = probe(out);
      sample(b, 0.5 * (before + after));
      before = after;
    }
    return;
  }

  do {
    const double speed = probe(out);
    plain.push_back(run_block(w, Engine::kAsIs, false, nullptr, out));
    sample(plain.back(), speed);
    traced.push_back(run_block(w, Engine::kAsIs, true, &log, out));
    if (w.pdes) {
      serial.push_back(run_block(w, Engine::kSerial, false, nullptr, out));
      threaded.push_back(run_block(w, Engine::kThreaded, false, nullptr, out));
    }
  } while (Clock::now() < deadline);

  LayerMetrics& m = out.layers;
  const double barriers = static_cast<double>(traced.front().barriers);
  m.cluster_build_s = median_of(traced, [](const Block& b) { return b.cluster_s; });
  m.open_port_s = median_of(traced, [](const Block& b) { return b.open_port_s; });
  m.member_build_s = median_of(traced, [](const Block& b) { return b.member_build_s; });
  m.run_s = median_of(traced, [](const Block& b) { return b.run_s; });
  m.run_self_s =
      median_of(traced, [](const Block& b) { return b.run_s - std::min(b.run_s, b.monitor_s); });
  m.events_per_barrier = static_cast<double>(traced.front().events) / barriers;
  m.ns_per_event = median_of(traced, [](const Block& b) {
    return (b.run_s - std::min(b.run_s, b.monitor_s)) * 1e9 / static_cast<double>(b.events);
  });
  m.events_per_host_s = 1e9 / m.ns_per_event;
  m.heap_allocs_per_barrier = median_of(
      traced, [](const Block& b) { return static_cast<double>(b.heap_allocs); }) / barriers;
  m.heap_bytes_per_barrier = median_of(
      traced, [](const Block& b) { return static_cast<double>(b.heap_bytes); }) / barriers;
  m.monitor_s = median_of(traced, [](const Block& b) { return b.monitor_s; });
  m.monitor_share = median_of(traced, [](const Block& b) { return b.monitor_s / b.run_s; });
  m.monitor_calls = static_cast<double>(traced.front().monitor_calls);
  m.route_lookup_ns = median_of(traced, [](const Block& b) { return b.route_ns; });
  m.link_packets_per_barrier = static_cast<double>(traced.front().link_packets) / barriers;
  m.nic_barrier_packets_per_barrier =
      static_cast<double>(traced.front().barrier_packets) / barriers;
  m.nic_unexpected_per_barrier = static_cast<double>(traced.front().unexpected) / barriers;
  const sim::pdes::WindowStats& ws = traced.front().windows;
  if (ws.windows > 0) {
    const double windows = static_cast<double>(ws.windows);
    m.pdes_windows_per_barrier = windows / barriers;
    m.pdes_events_per_window = static_cast<double>(ws.events) / windows;
    m.pdes_channel_msgs_per_window = static_cast<double>(ws.channel_messages) / windows;
    m.pdes_max_drain_batch = static_cast<double>(ws.max_drain_batch);
  }
  if (w.pdes) {
    const double serial_s = median_of(serial, [](const Block& b) { return b.run_s; });
    m.pdes_speedup_vs_serial =
        serial_s / median_of(threaded, [](const Block& b) { return b.run_s; });
    m.pdes_1w_speedup_vs_serial =
        serial_s / median_of(plain, [](const Block& b) { return b.run_s; });
  }
  m.trace_overhead_frac = median(block_samples(w, traced)) / median(block_samples(w, plain)) - 1.0;

  pin_heap_counts(out, traced, [](const Block& b) { return b.heap_allocs; });
}

Case barrier_case(std::string label, std::size_t nodes, int reps, coll::BarrierSpec spec) {
  Case c;
  c.label = std::move(label);
  c.params = coll::experiment(nic::lanai43(), nodes, reps);
  c.params.spec = spec;
  return c;
}

Case hier_case(std::string label, std::size_t nodes, int reps, std::size_t partitions) {
  Case c = barrier_case(std::move(label), nodes, reps, coll::hier_spec(kHierDim, 0));
  c.params.cluster.topology = host::Topology::kFatTree;
  c.params.cluster.fabric_radix = kHierRadix;
  c.params.cluster.fabric_oversub = kHierOversub;
  c.params.cluster.pdes_partitions = partitions;
  c.params.cluster.pdes_workers = 1;
  return c;
}

Outcome run_fig5(const Options& opts, SpanLog& log) {
  using nic::BarrierAlgorithm;
  BarrierWorkload w;
  w.per_barrier_samples = false;
  w.cases.push_back(barrier_case("nic-pe-n16", 16, kFig5Reps,
                                 coll::spec(coll::Location::kNic,
                                            BarrierAlgorithm::kPairwiseExchange)));
  w.cases.push_back(barrier_case("host-pe-n16", 16, kFig5Reps,
                                 coll::spec(coll::Location::kHost,
                                            BarrierAlgorithm::kPairwiseExchange)));
  w.cases.push_back(barrier_case(
      "nic-gb-n16", 16, kFig5Reps,
      coll::spec(coll::Location::kNic, BarrierAlgorithm::kGatherBroadcast, kFig5GbDim)));
  w.cases.push_back(barrier_case(
      "host-gb-n16", 16, kFig5Reps,
      coll::spec(coll::Location::kHost, BarrierAlgorithm::kGatherBroadcast, kFig5GbDim)));

  Outcome out;
  run_barrier_workload(w, opts, log, out, 11);

  // The goldens: the NIC-PE and host-PE blocks are the golden runs; the
  // GB golden is at dimension 2, so it gets its own call.
  out.pins.expect("golden nic-pe-n16 total_ps", w.cases[0].ref.total.ps(), kGoldenNicPe16);
  out.pins.expect("golden host-pe-n16 total_ps", w.cases[1].ref.total.ps(), kGoldenHostPe16);
  coll::ExperimentParams gb2 = w.cases[2].params;
  gb2.spec.gb_dimension = 2;
  out.pins.expect("golden nic-gb-dim2-n16 total_ps", coll::run_barrier_experiment(gb2).total.ps(),
                  kGoldenNicGbDim2N16);

  const double nic_pe = w.cases[0].ref.mean_us, host_pe = w.cases[1].ref.mean_us;
  const double nic_gb = w.cases[2].ref.mean_us, host_gb = w.cases[3].ref.mean_us;
  const double err = (std::abs(nic_pe / kPaperNicPeUs - 1) + std::abs(nic_gb / kPaperNicGbUs - 1) +
                      std::abs(host_pe / nic_pe / kPaperPeFactor - 1) +
                      std::abs(host_gb / nic_gb / kPaperGbFactor - 1)) /
                     4 * 100;
  out.layers.paper_err_pct = err;
  out.notes.push_back("simulated (us/barrier): nic-pe " + fmt(nic_pe) + "  host-pe " +
                      fmt(host_pe) + "  nic-gb(dim4) " + fmt(nic_gb) + "  host-gb(dim4) " +
                      fmt(host_gb));
  out.notes.push_back("paper_err_pct " + fmt(err) +
                      " % (mean |rel err| vs NIC-PE 102.14 us, NIC-GB 152.27 us, PE x1.78, "
                      "GB x1.46)");
  return out;
}

Outcome run_hier(const Options& opts, SpanLog& log, std::size_t nodes, int reps,
                 std::size_t partitions) {
  BarrierWorkload w;
  w.pdes = partitions > 1;
  // A partitioned barrier takes about 10 ms, so a 28-second run holds ~2800
  // of them and the tail rule lands on p99.6, which only samples host
  // hiccups. One sample per 20-barrier cycle keeps the tail near p90.
  w.per_barrier_samples = !w.pdes;
  w.cases.push_back(hier_case("nic-hier-n" + std::to_string(nodes), nodes, reps, partitions));
  Outcome out;
  run_barrier_workload(w, opts, log, out, 11);
  out.notes.push_back("paper_err_pct unvalidated (no paper reference at this scale)");
  return out;
}

// --- tenants-overlap -----------------------------------------------------------

wl::WorkloadSpec tenants_spec(std::uint64_t seed) {
  wl::WorkloadSpec s = wl::parse_workload_spec(std::string(kTenantsSpec));
  s.seed = seed;
  return s;
}

std::uint64_t group_barriers(const wl::Report& r) {
  std::uint64_t n = 0;
  for (const wl::JobReport& j : r.jobs) {
    n += j.collectives[static_cast<std::size_t>(wl::CollectiveKind::kBarrier)];
  }
  return n;
}

// The seed-7 Report, pinned at the commit that introduced this benchmark
// (`nicbar_run workload examples/workloads/tail.wl` prints the same numbers
// rounded).
struct TenantsPin {
  double p50_us, p95_us, p99_us, max_us, mean_us, makespan_us;
  std::uint64_t count;
};
constexpr TenantsPin kTenantsPin{164.90740740740742, 273.2,           324.2857142857143,
                                 455.306918,         170.56311948968698, 46258.984945,
                                 6400};

void check_tenants_pin(PinCheck& pins) {
  const wl::Report r = wl::Driver(tenants_spec(kTenantsPinSeed)).run();
  pins.expect("tenants seed-7 overall.p50_us", r.overall.p50_us, kTenantsPin.p50_us);
  pins.expect("tenants seed-7 overall.p95_us", r.overall.p95_us, kTenantsPin.p95_us);
  pins.expect("tenants seed-7 overall.p99_us", r.overall.p99_us, kTenantsPin.p99_us);
  pins.expect("tenants seed-7 overall.max_us", r.overall.max_us, kTenantsPin.max_us);
  pins.expect("tenants seed-7 overall.mean_us", r.overall.mean_us, kTenantsPin.mean_us);
  pins.expect("tenants seed-7 overall.count", r.overall.count, kTenantsPin.count);
  pins.expect("tenants seed-7 makespan_us", r.makespan_us, kTenantsPin.makespan_us);
  pins.expect("tenants seed-7 total_failures", r.total_failures, std::uint64_t{0});
}

/// wl::Driver's documented equivalence: a single-job, barrier-only,
/// no-jitter workload reproduces coll::run_barrier_experiment bit-for-bit.
void check_driver_against_runner(PinCheck& pins) {
  coll::ExperimentParams p = coll::experiment(nic::lanai43(), 16, kFig5Reps);
  const coll::ExperimentResult direct = coll::run_barrier_experiment(p);
  wl::WorkloadSpec s;
  s.cluster_nodes = 16;
  s.cluster.nic = nic::lanai43();
  wl::JobClass c;
  c.name = "fig5";
  c.nodes = 16;
  c.iterations = kFig5Reps;
  s.classes.push_back(c);
  const wl::Report r = wl::Driver(s).run();
  pins.expect("driver vs run_barrier_experiment mean_us", r.jobs.at(0).experiment_mean_us,
              direct.mean_us);
  pins.expect("golden nic-pe-n16 total_ps", direct.total.ps(), kGoldenNicPe16);
}

std::uint64_t sum_counters(const sim::telemetry::MetricsRegistry& m, const std::string& prefix,
                           const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : m.counters()) {
    if (name.size() >= prefix.size() + suffix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += value;
    }
  }
  return total;
}

Outcome run_tenants(const Options& opts, SpanLog& log) {
  Outcome out;
  check_tenants_pin(out.pins);
  check_driver_against_runner(out.pins);
  std::string first_json;
  struct Run {
    double run_s = 0;
    std::uint64_t barriers = 0;
    heap::Counts heap{};
    std::uint64_t link_packets = 0, barrier_packets = 0, unexpected = 0;
    double setup_s = 0;
  };
  auto one = [&](bool traced) {
    // Set-up is what precedes Driver::run, which builds its own cluster:
    // parsing the spec (which validates it) and Driver's constructor (which
    // validates again). Timed over a batch; the last one is run.
    const auto a = Clock::now();
    for (int i = 0; i < kSetupBatch - 1; ++i) (void)wl::Driver(tenants_spec(opts.seed));
    wl::WorkloadSpec s = tenants_spec(opts.seed);
    sim::telemetry::Telemetry tel;
    if (traced) s.cluster.telemetry = &tel;
    wl::Driver d(std::move(s));
    const auto b = Clock::now();
    if (traced) heap::start();
    const wl::Report r = d.run();
    Run run;
    if (traced) run.heap = heap::stop();
    const auto c = Clock::now();
    run.run_s = seconds_between(b, c);
    run.barriers = group_barriers(r);
    run.setup_s = seconds_between(a, b) / kSetupBatch;

    out.attempted += run.barriers;
    const std::string json = r.json();
    if (first_json.empty()) first_json = json;
    out.pins.expect_true("tenants report differs between runs of one seed", json == first_json);
    out.pins.expect("tenants total_failures", r.total_failures, std::uint64_t{0});
    if (traced) {
      const auto& m = tel.metrics();
      run.link_packets = sum_counters(m, "link.", ".packets");
      run.barrier_packets = sum_counters(m, "nic", ".barrier_packets_sent");
      run.unexpected = sum_counters(m, "nic", ".unexpected_recorded");
      CallCost ctor;
      ctor.add(a, b, kSetupBatch);
      log.add_aggregate("wl.parse+Driver", -1, ctor);
      log.add("wl.Driver::run", -1, b, c);
    }
    return run;
  };

  auto sample = [&out](const Run& r, double speed) {
    out.samples.push_back({r.run_s * 1e6 / static_cast<double>(r.barriers), speed});
    out.setups.push_back({r.setup_s, speed});
  };
  const auto deadline = Clock::now() + std::chrono::duration<double>(opts.seconds);
  if (!opts.trace) {
    double before = probe(out);
    while (Clock::now() < deadline || out.samples.size() < 11) {
      const Run r = one(false);
      const double after = probe(out);
      sample(r, 0.5 * (before + after));
      before = after;
    }
    return out;
  }
  std::vector<Run> plain, traced;
  do {
    const double speed = probe(out);
    plain.push_back(one(false));
    sample(plain.back(), speed);
    traced.push_back(one(true));
  } while (Clock::now() < deadline);

  auto med = [](const std::vector<Run>& v, auto f) {
    std::vector<double> x;
    for (const Run& r : v) x.push_back(f(r));
    return median(x);
  };
  const Run& t = traced.front();
  const double barriers = static_cast<double>(t.barriers);
  LayerMetrics& m = out.layers;
  m.wl_run_s = med(traced, [](const Run& r) { return r.run_s; });
  m.wl_barriers_per_run = barriers;
  m.heap_allocs_per_barrier =
      med(traced, [](const Run& r) { return static_cast<double>(r.heap.allocs); }) / barriers;
  m.heap_bytes_per_barrier =
      med(traced, [](const Run& r) { return static_cast<double>(r.heap.bytes); }) / barriers;
  m.link_packets_per_barrier = static_cast<double>(t.link_packets) / barriers;
  m.nic_barrier_packets_per_barrier = static_cast<double>(t.barrier_packets) / barriers;
  m.nic_unexpected_per_barrier = static_cast<double>(t.unexpected) / barriers;
  m.trace_overhead_frac = m.wl_run_s / med(plain, [](const Run& r) { return r.run_s; }) - 1.0;
  pin_heap_counts(out, traced, [](const Run& r) { return r.heap.allocs; });
  out.notes.push_back(
      "sim.* and check.* read 0: run_all and the monitor run inside wl::Driver::run");
  out.notes.push_back("paper_err_pct unvalidated (no paper reference for this mix)");
  return out;
}

}  // namespace

std::vector<Metric> LayerMetrics::metrics() const {
  return {
      {"host.cluster_build_s", cluster_build_s, "s"},
      {"gm.open_port_s", open_port_s, "s"},
      {"coll.member_build_s", member_build_s, "s"},
      {"sim.run_s", run_s, "s"},
      {"sim.run_self_s", run_self_s, "s"},
      {"sim.events_per_barrier", events_per_barrier, "count"},
      {"sim.ns_per_event", ns_per_event, "ns"},
      {"sim.events_per_host_s", events_per_host_s, "1/s"},
      {"sim.heap_allocs_per_barrier", heap_allocs_per_barrier, "count"},
      {"sim.heap_bytes_per_barrier", heap_bytes_per_barrier, "B"},
      {"check.monitor_s", monitor_s, "s"},
      {"check.monitor_share", monitor_share, "frac"},
      {"check.monitor_calls", monitor_calls, "count"},
      {"net.route_lookup_ns", route_lookup_ns, "ns"},
      {"net.link_packets_per_barrier", link_packets_per_barrier, "count"},
      {"nic.barrier_packets_per_barrier", nic_barrier_packets_per_barrier, "count"},
      {"nic.unexpected_per_barrier", nic_unexpected_per_barrier, "count"},
      {"pdes.windows_per_barrier", pdes_windows_per_barrier, "count"},
      {"pdes.events_per_window", pdes_events_per_window, "count"},
      {"pdes.channel_msgs_per_window", pdes_channel_msgs_per_window, "count"},
      {"pdes.max_drain_batch", pdes_max_drain_batch, "count"},
      {"pdes.speedup_vs_serial", pdes_speedup_vs_serial, "x"},
      {"pdes.1w_speedup_vs_serial", pdes_1w_speedup_vs_serial, "x"},
      {"wl.run_s", wl_run_s, "s"},
      {"wl.barriers_per_run", wl_barriers_per_run, "count"},
      {"trace.overhead_frac", trace_overhead_frac, "frac"},
      {"paper_err_pct", paper_err_pct, "%"},
  };
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig5-16", "hier-4096", "hier-1024-pdes4",
                                                 "tenants-overlap"};
  return names;
}

Outcome run_workload(const Options& opts, SpanLog& log) {
  if (opts.workload == "fig5-16") return run_fig5(opts, log);
  if (opts.workload == "hier-4096") return run_hier(opts, log, 4096, kHier4096Reps, 1);
  if (opts.workload == "hier-1024-pdes4") {
    return run_hier(opts, log, 1024, kHier1024Reps, kPdesPartitions);
  }
  if (opts.workload == "tenants-overlap") return run_tenants(opts, log);
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

}  // namespace perfbench
