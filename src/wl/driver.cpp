#include "wl/driver.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "coll/group.hpp"
#include "mpi/communicator.hpp"
#include "sim/check.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"
#include "sim/telemetry.hpp"

namespace nicbar::wl {

namespace {

// Substream purposes (stable tags — changing one would reshuffle seeds).
constexpr std::uint64_t kArrivalStream = 1;
constexpr std::uint64_t kScheduleStream = 2;
constexpr std::uint64_t kMemberStream = 3;

/// Latency sink: exact mean/max plus a histogram for percentiles.
struct TailCollector {
  std::uint64_t count = 0;
  double mean = 0.0;  // streaming, exactly as sim::Accumulator computes it
  double max = 0.0;
  sim::Histogram hist;

  TailCollector(double max_us, std::size_t bins) : hist(0.0, max_us, bins) {}

  void add(double us) {
    mean += (us - mean) / static_cast<double>(++count);
    max = std::max(max, us);
    hist.add(us);
  }

  /// Pairwise fold; the mean then depends on the fold order.
  void merge(const TailCollector& other) {
    if (other.count == 0) return;
    count += other.count;
    mean += (other.mean - mean) * static_cast<double>(other.count) / static_cast<double>(count);
    max = std::max(max, other.max);
    hist.merge(other.hist);
  }

  [[nodiscard]] TailStats stats() const {
    TailStats t;
    t.count = count;
    if (t.count == 0) return t;
    t.mean_us = mean;
    t.max_us = max;
    t.p50_us = hist.percentile(50.0);
    t.p95_us = hist.percentile(95.0);
    t.p99_us = hist.percentile(99.0);
    return t;
  }
};

struct MemberRun {
  std::unique_ptr<gm::Port> port;
  // Exactly one of the three engines is set: a bare BarrierMember for a
  // barrier-only mix (see CollectiveMix::barrier_only), a Communicator for
  // mixed collectives, or a GroupMember for a managed-lifecycle class.
  std::unique_ptr<coll::BarrierMember> member;
  std::unique_ptr<mpi::Communicator> comm;
  std::unique_ptr<coll::GroupMember> gmember;
  sim::Rng rng{0};  // compute-imbalance stream
  MemberOutcome out;
};

struct JobRun {
  const JobClass* klass = nullptr;
  JobPlan plan;
  std::size_t job_index = 0;
  std::vector<CollectiveKind> schedule;  // one kind per iteration
  sim::SimTime arrival{0};               // fixed/poisson: precomputed
  // Closed-loop arrival (serial engine only): the gate a predecessor opens,
  // and the members still running.
  std::unique_ptr<sim::Gate> gate;
  std::size_t remaining = 0;
  std::vector<MemberRun> members;
  std::unique_ptr<sim::check::BarrierSafetyMonitor> monitor;  // null: unchecked
  std::vector<std::vector<SloSample>> slo_samples;            // by lane
  JobReport report;  // member 0 (the coordinator) fills the group lifecycle fields
};

// Each lane's latency collectors: by CollectiveKind, all kinds, then per job.
constexpr std::size_t kOverallTail = kCollectiveKindCount;
constexpr std::size_t job_tail(std::size_t job) { return kOverallTail + 1 + job; }

struct RunState {
  RunState(host::Cluster& c, const WorkloadSpec& spec, std::size_t job_count)
      : cluster(c),
        arrival(spec.arrival),
        jobs(job_count),
        tails(c.pdes() != nullptr ? c.pdes()->partitions() : 1) {
    for (auto& lane : tails) lane.assign(job_tail(job_count), {spec.hist_max_us, spec.hist_bins});
  }

  /// One collector folded over the lanes in lane order (one lane: exact).
  [[nodiscard]] TailStats folded(std::size_t tail) const {
    TailCollector total = tails.front()[tail];
    for (std::size_t l = 1; l < tails.size(); ++l) total.merge(tails[l][tail]);
    return total.stats();
  }

  host::Cluster& cluster;
  const Arrival& arrival;
  std::vector<JobRun> jobs;
  std::vector<std::vector<TailCollector>> tails;  // [lane][tail]
};

CollectiveKind draw_kind(const CollectiveMix& mix, sim::Rng& rng) {
  if (!mix.mixed()) {
    if (mix.fuzzy > 0.0) return CollectiveKind::kFuzzyBarrier;
    if (mix.allreduce > 0.0) return CollectiveKind::kAllreduce;
    if (mix.broadcast > 0.0) return CollectiveKind::kBroadcast;
    return CollectiveKind::kBarrier;
  }
  double x = rng.uniform() * mix.total();
  if ((x -= mix.barrier) < 0.0) return CollectiveKind::kBarrier;
  if ((x -= mix.broadcast) < 0.0) return CollectiveKind::kBroadcast;
  if ((x -= mix.allreduce) < 0.0) return CollectiveKind::kAllreduce;
  return CollectiveKind::kFuzzyBarrier;
}

/// Opens the job's ports and builds each member's collective engine on the
/// lane that owns its node.
void build_members(RunState& st, JobRun& jr) {
  const JobClass& k = *jr.klass;
  const JobPlan& plan = jr.plan;
  jr.slo_samples.resize(st.tails.size());
  jr.members.resize(plan.members.size());
  for (std::size_t m = 0; m < plan.members.size(); ++m) {
    const nic::Endpoint ep = plan.members[m];
    MemberRun& me = jr.members[m];
    me.port = st.cluster.open_port(ep.node, ep.port);
    const coll::BarrierSpec& b = plan.barrier;
    if (k.managed) {
      // The barrier deadline doubles as the handshake liveness backstop (a
      // coordinator waiting on a crashed member may have no traffic in
      // flight to it, so no kPeerDead ever arrives). Group ids are
      // fabric-unique per job.
      me.gmember = std::make_unique<coll::GroupMember>(
          *me.port, plan.members, m,
          coll::GroupConfig{.id = jr.job_index + 1,
                            .algorithm = b.algorithm,
                            .gb_dimension = b.gb_dimension,
                            .hierarchical = b.hierarchical,
                            .hier_block = b.hier_block,
                            .deadline = b.deadline,
                            .ctrl_deadline = b.deadline,
                            .promote_every = k.promote_every});
    } else if (k.mix.barrier_only()) {
      me.member = std::make_unique<coll::BarrierMember>(*me.port, plan.members, m, b);
    } else {
      me.comm = std::make_unique<mpi::Communicator>(
          *me.port, plan.members,
          mpi::CommConfig{.per_call_overhead = k.layer_overhead,
                          .collective_location = b.location,
                          .barrier_algorithm = b.algorithm,
                          .gb_dimension = b.gb_dimension,
                          .barrier_deadline = b.deadline});
    }
  }
}

void on_job_done(RunState& st, JobRun& jr, sim::Simulator& sim) {
  // Release the job `width` places behind us, after the think time.
  const std::size_t next = jr.job_index + st.arrival.width;
  if (next >= st.jobs.size()) return;
  JobRun* nj = &st.jobs[next];
  const sim::Duration think = st.arrival.think;
  if (think.ps() > 0) {
    sim.schedule_in(think, [&sim, nj] {
      nj->arrival = sim.now();
      nj->gate->open();
    });
  } else {
    nj->arrival = sim.now();
    nj->gate->open();
  }
}

/// One process of one job: waits for its arrival and start offset, then
/// runs the job's collective schedule with compute phases in between,
/// recording the latency of every collective it observes and feeding each
/// barrier to the job's safety monitor. Writes only its own MemberOutcome
/// and its lane's slots.
sim::Task member_proc(RunState& st, JobRun& jr, std::size_t m) {
  MemberRun& me = jr.members[m];
  const JobClass& k = *jr.klass;
  // The lane that owns the member's node runs it.
  sim::Simulator& sim = st.cluster.sim_for(jr.plan.members[m].node);
  const std::size_t lane = st.cluster.partition_of(jr.plan.members[m].node);
  std::vector<TailCollector>& tails = st.tails[lane];

  if (jr.gate != nullptr) {
    co_await jr.gate->wait();
  } else {
    co_await sim.wait_until(jr.arrival);
  }
  co_await sim.delay(jr.plan.start_offsets[m]);  // zero: no event

  // Managed lifecycle: the group must exist before the first barrier. A
  // failed create (member died mid-handshake) skips the iteration loop but
  // still runs the destroy below, so local NIC state is released.
  bool lifecycle_ok = true;
  if (me.gmember != nullptr) {
    const coll::BarrierStatus cst = co_await me.gmember->run_create();
    if (!coll::is_success(cst)) {
      me.out.failed = true;
      lifecycle_ok = false;
    } else if (m == 0) {
      jr.report.group_created = true;
    }
  }
  me.out.start = sim.now();

  for (int it = 0; lifecycle_ok && it < jr.plan.iterations; ++it) {
    if (!k.compute_mean.is_zero()) {
      sim::Duration d = k.compute_mean;
      if (k.compute_imbalance > 0.0) {
        d = sim::Duration{static_cast<std::int64_t>(
            static_cast<double>(d.ps()) *
            me.rng.uniform(1.0 - k.compute_imbalance, 1.0 + k.compute_imbalance))};
      }
      co_await me.port->compute(d);
    }

    const CollectiveKind kind = jr.schedule[static_cast<std::size_t>(it)];
    // The monitor sees every plain barrier (a fuzzy barrier's status is not
    // checked, so its completion is not proof that it completed).
    const bool checked = jr.monitor != nullptr && kind == CollectiveKind::kBarrier;
    const sim::SimTime t0 = sim.now();
    if (checked) jr.monitor->arrive(m, t0);
    coll::BarrierStatus status = coll::BarrierStatus::kOk;
    switch (kind) {
      case CollectiveKind::kBarrier:
        status = me.gmember  ? co_await me.gmember->run_barrier()
                 : me.member ? co_await me.member->run()
                             : co_await me.comm->barrier();
        break;
      case CollectiveKind::kFuzzyBarrier:
        (void)co_await me.member->run_fuzzy(k.fuzzy_chunk);
        break;
      case CollectiveKind::kAllreduce:
        (void)co_await me.comm->allreduce(static_cast<std::int64_t>(m), nic::ReduceOp::kSum);
        break;
      case CollectiveKind::kBroadcast:
        (void)co_await me.comm->bcast(static_cast<std::int64_t>(it));
        break;
    }
    const double us = (sim.now() - t0).us();
    tails[static_cast<std::size_t>(kind)].add(us);
    tails[kOverallTail].add(us);
    tails[job_tail(jr.job_index)].add(us);
    if (!k.slo.is_zero()) jr.slo_samples[lane].push_back(SloSample{sim.now().us(), us});
    if (status == coll::BarrierStatus::kOkDegraded) ++me.out.degraded;

    if (!coll::is_success(status) || (me.comm && me.comm->failed())) {
      // The group is broken (dead peer or expired deadline): stop looping
      // rather than spinning out `iterations` instant failures.
      me.out.failed = true;
      break;
    }
    if (checked) jr.monitor->complete(m, sim.now());
  }

  if (me.gmember != nullptr) {
    // Always destroy — even after a failed create or an aborted barrier —
    // so NIC slots are released and late packets are fenced, not delivered.
    const coll::BarrierStatus dst = co_await me.gmember->run_destroy();
    if (m == 0) {
      jr.report.group_destroyed = dst == coll::BarrierStatus::kOk;
      jr.report.group_promotions = me.gmember->promotions();
    }
  }

  me.out.end = sim.now();
  me.out.finished = true;
  if (jr.gate != nullptr && --jr.remaining == 0) on_job_done(st, jr, sim);
}

/// Spawns every member, runs the cluster dry and snapshots the metrics (a
/// no-op without a bundle). `check` arms each job's safety monitor and then
/// proves packet conservation on the quiescent fabric.
void execute(RunState& st, bool check) {
  for (JobRun& jr : st.jobs) {
    if (check) jr.monitor = std::make_unique<sim::check::BarrierSafetyMonitor>(jr.members.size());
    jr.remaining = jr.members.size();
    for (std::size_t m = 0; m < jr.members.size(); ++m) {
      st.cluster.sim_for(jr.plan.members[m].node).spawn(member_proc(st, jr, m));
    }
  }
  net::Network& network = st.cluster.network();
  st.cluster.run_all();
  st.cluster.snapshot_metrics();
  if (!check) return;
  network.for_each_link([](net::Link& l) { l.verify_conservation(); });
  for (std::size_t s = 0; s < network.switch_count(); ++s) {
    network.switch_at(static_cast<int>(s)).verify_conservation();
  }
}

}  // namespace

std::uint64_t substream(std::uint64_t seed, std::uint64_t purpose, std::uint64_t idx) {
  std::uint64_t z = seed ^ (purpose * 0x9e3779b97f4a7c15ULL) ^ (idx * 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<MemberOutcome> run_barrier_job(host::Cluster& cluster, const JobPlan& job,
                                           bool check) {
  WorkloadSpec defaults;    // one fixed arrival at t = 0
  defaults.hist_bins = 1;   // nobody reads this job's latency percentiles
  const JobClass klass;     // barrier-only, no compute, no SLO
  RunState st(cluster, defaults, 1);
  JobRun& jr = st.jobs.front();
  jr.klass = &klass;
  jr.plan = job;
  jr.schedule.assign(static_cast<std::size_t>(job.iterations), CollectiveKind::kBarrier);
  build_members(st, jr);
  execute(st, check);
  std::vector<MemberOutcome> out;
  for (const MemberRun& me : jr.members) out.push_back(me.out);
  return out;
}

Driver::Driver(WorkloadSpec spec) : spec_(std::move(spec)) { validate(spec_); }

Report Driver::run() { return run_impl(nullptr); }

std::pair<Report, SloReport> Driver::run_with_slo() {
  SloReport slo;
  Report rep = run_impl(&slo);
  return {std::move(rep), std::move(slo)};
}

Report Driver::run_impl(SloReport* slo_out) {
  const std::vector<std::vector<net::NodeId>> node_sets = place_jobs(spec_);
  const std::size_t job_count = node_sets.size();

  // Per-node GM port allocation: co-located jobs get successive user ports
  // (GM reserves 0-1). All members of a disjoint/strided job land on port 2
  // — the figure benches' convention.
  std::vector<nic::PortId> next_port(spec_.cluster_nodes, 2);
  std::vector<std::vector<nic::Endpoint>> job_members(job_count);
  int max_ports_needed = 0;
  for (std::size_t j = 0; j < job_count; ++j) {
    for (const net::NodeId node : node_sets[j]) {
      if (next_port[node] == 0) {  // wrapped past 255
        throw std::invalid_argument("workload spec: more than 253 jobs co-located on node " +
                                    std::to_string(node));
      }
      job_members[j].push_back(nic::Endpoint{node, next_port[node]++});
      if (next_port[node] > max_ports_needed) max_ports_needed = next_port[node];
    }
  }

  host::ClusterParams cp = spec_.cluster;
  cp.nodes = spec_.cluster_nodes;
  if (max_ports_needed > cp.nic.max_ports) cp.nic.max_ports = max_ports_needed;
  if (!cp.faults.empty() && cp.nic.barrier_reliability == nic::BarrierReliability::kUnreliable) {
    // A lost barrier packet is never retransmitted in the unreliable mode. A
    // plain barrier then stalls harmlessly (events run dry), but a fuzzy
    // barrier spins compute chunks forever waiting for a completion that
    // cannot arrive — a livelock, not a finite simulation. Refuse up front.
    for (const JobClass& c : spec_.classes) {
      if (c.mix.fuzzy > 0.0) {
        throw std::invalid_argument(
            "workload spec: class '" + c.name +
            "' uses fuzzy barriers on a faulty fabric with unreliable barrier "
            "delivery; set `reliability shared` (or separate) in the spec");
      }
    }
  }
  sim::telemetry::Telemetry slo_telemetry;
  if (slo_out != nullptr && wants_slo(spec_)) {
    // Causal spans give the SLO report its per-segment critical-path
    // attribution. Must precede cluster construction (pointers are cached).
    if (cp.telemetry == nullptr) cp.telemetry = &slo_telemetry;
    cp.telemetry->enable_causal();
  }
  host::Cluster cluster(cp);
  if (spec_.arrival.kind == ArrivalKind::kClosedLoop && cluster.pdes() != nullptr) {
    throw std::invalid_argument(
        "workload spec: closed-loop arrival needs an unpartitioned cluster (pdes_partitions 1)");
  }
  // Hierarchical classes block by the fabric's leaf population; on a flat
  // topology (no fabric) the group degenerates to one block.
  const std::size_t leaf_block = cluster.fabric() != nullptr ? cluster.fabric()->hosts_per_leaf : 0;

  RunState st(cluster, spec_, job_count);

  // Arrival times (fixed/poisson) are precomputed; closed-loop jobs get a
  // gate instead, pre-opened for the first `width` of them.
  sim::Rng arrival_rng(substream(spec_.seed, kArrivalStream, 0));
  std::size_t j = 0;
  sim::SimTime at{0};
  for (const JobClass& klass : spec_.classes) {
    for (std::size_t inst = 0; inst < klass.count; ++inst, ++j) {
      JobRun& jr = st.jobs[j];
      jr.klass = &klass;
      jr.job_index = j;
      switch (spec_.arrival.kind) {
        case ArrivalKind::kFixed:
          jr.arrival = sim::SimTime{0} + spec_.arrival.interval * static_cast<std::int64_t>(j);
          break;
        case ArrivalKind::kPoisson:
          // Job 0 arrives at t=0; each later job after an exponential gap.
          if (j > 0) at += sim::microseconds(arrival_rng.exponential(spec_.arrival.interval.us()));
          jr.arrival = at;
          break;
        case ArrivalKind::kClosedLoop:
          jr.gate = std::make_unique<sim::Gate>(cluster.sim());
          if (j < spec_.arrival.width) jr.gate->open();  // no waiters yet: no events
          break;
      }

      // The collective schedule is shared by every member (they must agree
      // on what iteration k is, or the group deadlocks).
      sim::Rng sched_rng(substream(spec_.seed, kScheduleStream, j));
      jr.schedule.reserve(static_cast<std::size_t>(klass.iterations));
      for (int it = 0; it < klass.iterations; ++it) {
        jr.schedule.push_back(draw_kind(klass.mix, sched_rng));
        ++jr.report.collectives[static_cast<std::size_t>(jr.schedule.back())];
      }

      JobPlan& plan = jr.plan;
      plan.members = std::move(job_members[j]);
      plan.barrier = coll::BarrierSpec{.location = klass.location,
                                       .algorithm = klass.algorithm,
                                       .gb_dimension = klass.gb_dimension,
                                       .deadline = klass.deadline,
                                       .rdma = klass.rdma,  // barrier-only (validate())
                                       .hierarchical = klass.hierarchical,
                                       .hier_block = klass.hierarchical ? leaf_block : 0};
      plan.iterations = klass.iterations;
      build_members(st, jr);
      // A member's start skew is the first draw of its own stream; the
      // compute-imbalance draws continue from there.
      const auto skew_ps = static_cast<double>(klass.start_skew.ps());
      for (std::size_t m = 0; m < klass.nodes; ++m) {
        sim::Rng& rng = jr.members[m].rng;
        rng.reseed(substream(substream(spec_.seed, kMemberStream, j), kMemberStream, m));
        plan.start_offsets.push_back(
            sim::Duration{skew_ps != 0 ? static_cast<std::int64_t>(rng.uniform() * skew_ps) : 0});
      }
    }
  }

  execute(st, /*check=*/true);

  // --- Reduce into the Report -------------------------------------------------
  Report rep;
  sim::SimTime makespan{0};
  for (JobRun& jr : st.jobs) {
    JobReport& jrep = jr.report;
    jrep.klass = jr.klass->name;
    jrep.job = jr.job_index;
    jrep.nodes = jr.klass->nodes;
    jrep.arrival_us = jr.arrival.us();
    sim::SimTime begin{0}, end{0};
    for (const MemberRun& me : jr.members) {
      if (me.out.start > begin) begin = me.out.start;
      if (me.out.end > end) end = me.out.end;
      if (!me.out.finished) ++jrep.failures;  // stalled member (hung collective)
      if (me.out.failed) ++jrep.failures;
      jrep.degraded_collectives += me.out.degraded;
    }
    jrep.start_us = begin.us();
    jrep.end_us = end.us();
    jrep.experiment_mean_us = (end - begin).us() / jr.klass->iterations;
    jrep.latency = st.folded(job_tail(jr.job_index));
    rep.total_failures += jrep.failures;
    rep.degraded_collectives += jrep.degraded_collectives;
    rep.group_promotions += jrep.group_promotions;
    if (jrep.group_created) ++rep.groups_created;
    if (jrep.group_destroyed) ++rep.groups_destroyed;
    if (end > makespan) makespan = end;
    rep.jobs.push_back(std::move(jrep));
  }
  rep.makespan_us = makespan.us();
  for (std::size_t k = 0; k < kCollectiveKindCount; ++k) {
    rep.per_kind[k] = st.folded(k);
  }
  rep.overall = st.folded(kOverallTail);

  // Fabric and NIC counters, read straight from the cluster.
  sim::Accumulator link_util, nic_util, pci_util;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    nic::Nic& nic = cluster.nic(static_cast<net::NodeId>(i));
    const nic::SlotStats& sl = nic.slots().stats();
    rep.barriers_completed += nic.stats().barriers_completed;
    rep.reduces_completed += nic.stats().reduces_completed;
    rep.retransmissions += nic.stats().retransmissions;
    rep.stale_group_fenced += nic.stats().stale_group_fenced;
    rep.slot_allocations += sl.allocations;
    rep.slot_rejections += sl.rejections;
    rep.slot_frees += sl.frees;
    rep.slot_high_water = std::max(rep.slot_high_water, sl.high_water);
    nic_util.add(nic.processor().stats().utilisation());
    pci_util.add(cluster.node(static_cast<net::NodeId>(i)).pci.utilisation());
  }
  cluster.network().for_each_link([&](net::Link& l) {
    rep.link_stalls += l.wire().stalls();
    rep.link_packets_dropped += l.packets_dropped();
    link_util.add(l.wire().utilisation());
  });
  rep.mean_link_utilisation = link_util.mean();
  rep.max_link_utilisation = link_util.max();
  rep.mean_nic_occupancy = nic_util.mean();
  rep.max_nic_occupancy = nic_util.max();
  rep.mean_pci_utilisation = pci_util.mean();

  if (slo_out != nullptr) {
    std::vector<std::vector<SloSample>> samples(job_count);
    std::vector<std::vector<nic::Endpoint>> endpoints(job_count);
    for (std::size_t jj = 0; jj < job_count; ++jj) {
      for (const std::vector<SloSample>& lane : st.jobs[jj].slo_samples) {
        samples[jj].insert(samples[jj].end(), lane.begin(), lane.end());
      }
      endpoints[jj] = st.jobs[jj].plan.members;
    }
    *slo_out = compute_slo(spec_, samples, endpoints,
                           cp.telemetry != nullptr ? cp.telemetry->causal() : nullptr);
  }
  return rep;
}

Report run_workload(const WorkloadSpec& spec) { return Driver(spec).run(); }

}  // namespace nicbar::wl
