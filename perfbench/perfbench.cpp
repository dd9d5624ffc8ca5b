// perfbench: the vcl benchmark program.
//
// Drives core::VehicularCloudSystem from outside, through its public API,
// one simulation at a time on one thread. Tasks, storage ops and DAG graphs
// are generated here from --seed on an open-loop schedule in *simulated*
// time, so host speed never feeds back into the load. A simulation advances
// in ticks of one simulated second (run_for(1.0)); each tick holds exactly
// one beacon, cluster and refresh round. A run is a fixed number of
// independent episodes, each a fresh system on a seed derived from --seed,
// so a run samples several traffic states instead of one. Host time is the
// thread's CPU time, normalised for the host's clock drift (see "host clock
// reference" below). See README.md in this directory.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--vehicles <n>] [--ticks <n>]
//
// --seconds picks the episode count (calibrated per workload); --vehicles
// and --ticks shrink the fleet and the timed ticks per episode for quick
// hand runs. --trace 0 prints the end-to-end metrics; --trace 1 runs the
// first half of the episodes twice, untraced then traced (kernel profiler
// on, call probes armed), and prints the per-layer metrics. The last line
// of stdout is one JSON object {correct, attempted, failed, metrics}. A
// failed correctness check prints a message to stderr and exits 1 without
// that line.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.h"
#include "crypto/sha256.h"
#include "dag/task_graph.h"

namespace {

using vcl::SimTime;
using vcl::TaskId;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU time of the calling thread: excludes the time the host ran someone
// else on this core (preemption, hypervisor steal).
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

// SplitMix64: the benchmark's own input generator, so the generated load
// depends only on --seed and this file, never on the program's RNG.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double exponential(double mean) { return -mean * std::log1p(-uniform()); }
  std::size_t below(std::size_t n) { return next() % n; }
  // Independent stream per input kind.
  [[nodiscard]] InputRng fork(std::uint64_t salt) const {
    InputRng r(state_ ^ (salt * 0xd1342543de82ef95ULL));
    r.next();
    return r;
  }

 private:
  std::uint64_t state_;
};

// ---- host clock reference ---------------------------------------------------

// On a shared host the speed of this core is not fixed: its clock follows
// the neighbours' load in discrete steps of up to 1.7x that last tens of
// seconds, so the same episode's CPU time drifts by up to 1.5x between runs.
// A fixed integer loop, timed on the same thread right after every tick,
// samples the clock: the loop touches no memory, so its time is inversely
// proportional to the clock and the program's own cache footprint cannot
// reach it; it runs outside run_for(), so no tick contains it.
//
// The simulation is only partly clock-bound (it also waits on memory), so
// each episode's CPU times are divided by its clock factor, the median loop
// time over its ticks relative to kNominalRefS, raised to kClockShare.
// Replaying one episode across host phases gave exponents (slopes of log
// CPU time on log loop time) between 0.2 and 0.8 depending on workload and
// phase; 0.5 left the lowest mean residual spread. The result reads as CPU
// time at the clock where the loop takes kNominalRefS.
constexpr int kRefIterations = 150000;
// The loop took 0.154-0.263 ms on a 4-core x86 VM.
constexpr double kNominalRefS = 2.0e-4;
constexpr double kClockShare = 0.5;
volatile std::uint64_t ref_sink = 1;

double reference_loop_cpu_s() {
  const double c0 = thread_cpu_s();
  InputRng r(ref_sink);
  std::uint64_t acc = 0;
  for (int i = 0; i < kRefIterations; ++i) acc ^= r.next();
  ref_sink = acc | 1;
  return thread_cpu_s() - c0;
}

// ---- workloads --------------------------------------------------------------

// Untimed ticks at the start of every episode, so that clusters and the
// cloud have formed before timing starts.
constexpr int kWarmupTicks = 10;

struct Workload {
  std::string name;
  vcl::core::SystemConfig system;
  // Benchmark tasks: Poisson arrivals; sizes uniform around their means.
  double task_rate = 0.0;  // per simulated second
  double task_work = 20.0;
  double task_input_mb = 1.0;
  // Storage client mix: one put per two gets over a fixed object/client set.
  double storage_rate = 0.0;
  std::size_t storage_objects = 0;
  std::size_t storage_clients = 0;
  // Reliability-aware DAG graphs.
  double dag_rate = 0.0;
  bool oracle_must_be_clean = false;
  // Timed ticks per episode, after the warm-up.
  int episode_ticks = 40;
  // Episodes per --seconds of budget, calibrated so a run of the seed code
  // measures roughly --seconds on a 4-core x86 host.
  double episodes_per_second = 0.25;
};

Workload city_dynamic() {
  Workload w;
  w.name = "city_dynamic";
  auto& s = w.system;
  s.scenario.environment = vcl::core::Environment::kCity;
  s.scenario.grid_rows = 6;
  s.scenario.grid_cols = 6;
  // Blocks of 280 m, not the default 200 m: the same 800 vehicles on a
  // sparser map hear fewer beacon neighbours, while the largest cluster
  // still holds almost the whole fleet, so the membership closures lead.
  s.scenario.grid_spacing = 280.0;
  s.scenario.vehicles = 800;
  s.architecture = vcl::core::CloudArchitecture::kDynamic;
  w.task_rate = 0.5;
  w.task_work = 20.0;
  w.episode_ticks = 40;
  w.episodes_per_second = 0.45;
  return w;
}

Workload highway_rsu() {
  Workload w;
  w.name = "highway_rsu";
  auto& s = w.system;
  s.scenario.environment = vcl::core::Environment::kHighway;
  s.scenario.vehicles = 800;
  s.scenario.rsu_spacing = 1000.0;
  s.scenario.rsu_range = 500.0;
  s.architecture = vcl::core::CloudArchitecture::kInfrastructureBased;
  w.task_rate = 20.0;
  w.task_work = 7.0;
  w.task_input_mb = 0.5;
  w.episode_ticks = 100;
  w.episodes_per_second = 0.45;
  return w;
}

Workload city_dependable() {
  Workload w;
  w.name = "city_dependable";
  auto& s = w.system;
  s.scenario.environment = vcl::core::Environment::kCity;
  s.scenario.grid_rows = 6;
  s.scenario.grid_cols = 6;
  s.scenario.vehicles = 225;
  s.architecture = vcl::core::CloudArchitecture::kDynamic;
  auto& dep = s.cloud.dependability;
  dep.detector.enabled = true;
  dep.detector.heartbeat_period = 0.5;
  dep.retry.enabled = true;
  dep.checkpoint.enabled = true;
  s.invariant_oracle = true;
  s.storage.enabled = true;
  s.dag.enabled = true;
  s.dag.policy = vcl::dag::DagPolicy::kReliabilityAware;
  w.task_rate = 2.0;
  w.task_work = 20.0;
  w.storage_rate = 6.0;
  w.storage_objects = 16;
  w.storage_clients = 8;
  w.dag_rate = 0.1;
  w.oracle_must_be_clean = true;
  w.episode_ticks = 100;
  // Poisson faults, drawn by the system from the episode seed; blackout
  // centres fall anywhere on the road network's bounding box.
  auto& f = s.faults;
  f.horizon = kWarmupTicks + w.episode_ticks;
  f.vehicle_crash_rate = 0.02;
  f.broker_crash_rate = 0.005;
  f.blackout_rate = 0.01;
  f.blackout_mean_duration = 5.0;
  f.blackout_radius = 150.0;
  w.episodes_per_second = 0.8;
  return w;
}

Workload workload_named(const std::string& name) {
  if (name == "city_dynamic") return city_dynamic();
  if (name == "highway_rsu") return highway_rsu();
  if (name == "city_dependable") return city_dependable();
  fail("unknown workload '" + name +
       "' (city_dynamic, highway_rsu, city_dependable)");
}

// ---- statistics helpers -----------------------------------------------------

// Linear-interpolated quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct LabelCost {
  std::uint64_t events = 0;
  double wall_s = 0.0;
};
using Profile = std::map<std::string, LabelCost>;

Profile read_profile(const vcl::sim::Simulator& sim) {
  Profile p;
  for (const auto& e : sim.profile()) p[e.label] = {e.events, e.wall_seconds};
  return p;
}

// Per-label cost accrued between two profile snapshots.
Profile profile_delta(const Profile& before, const Profile& after) {
  Profile d = after;
  for (const auto& [label, cost] : before) {
    d[label].events -= cost.events;
    d[label].wall_s -= cost.wall_s;
  }
  return d;
}

// ---- one episode ------------------------------------------------------------

// Host-time probes of the public calls the benchmark makes. Filled only on
// the traced pass; the untraced pass never reads the clock inside the run.
struct Probes {
  std::vector<double> submit_us, put_us, get_us, graph_us;
  std::vector<double> clusters_us, region_us;
  std::vector<double> cluster_count;
};

// What a pass accumulates over its episodes.
struct Totals {
  std::vector<double> tick_s;    // host wall time of each timed tick
  // Clock-normalised CPU time (see kClockShare) of each timed tick and of
  // each episode's set-up, and each episode's clock factor.
  std::vector<double> tick_cpu_s;
  std::vector<double> setup_s;
  std::vector<double> clock;
  std::uint64_t timed_events = 0;
  Profile profile;  // per-label cost over the timed ticks (traced only)
  Probes probes;
  std::vector<double> pending, members, makespans;  // per timed tick / graph
  std::vector<double> latency_s;  // completed benchmark tasks, simulated
  std::string stats;            // simulated statistics, the digest's input
  // Benchmark-generated operations and their failures.
  std::size_t tasks = 0, tasks_completed = 0, tasks_failed = 0;
  std::size_t puts = 0, puts_failed = 0, gets = 0, gets_failed = 0;
  std::size_t graphs = 0, graphs_failed = 0;
  // Per-layer counters summed over episodes (queue high water: maximum).
  std::map<std::string, double> counts;

  [[nodiscard]] std::size_t attempted() const {
    return tasks + puts + gets + graphs;
  }
  [[nodiscard]] std::size_t failed() const {
    return tasks_failed + puts_failed + gets_failed + graphs_failed;
  }
  [[nodiscard]] double wall_s() const {
    double sum = 0.0;
    for (double s : tick_s) sum += s;
    return sum;
  }
  [[nodiscard]] double cpu_s() const {
    double sum = 0.0;
    for (double s : tick_cpu_s) sum += s;
    return sum;
  }
  [[nodiscard]] std::string digest() const {
    return vcl::crypto::to_hex(vcl::crypto::Sha256::hash(stats));
  }
};

class Run {
 public:
  Run(const Workload& w, std::uint64_t seed, bool traced, Totals& totals)
      : w_(w),
        traced_(traced),
        inputs_(seed),
        totals_(totals),
        task_rng_(inputs_.fork(1)),
        storage_rng_(inputs_.fork(2)),
        dag_rng_(inputs_.fork(3)) {
    vcl::core::SystemConfig cfg = w.system;
    cfg.scenario.seed = seed;
    cfg.telemetry.profile_kernel = traced;
    sys_ = std::make_unique<vcl::core::VehicularCloudSystem>(std::move(cfg));
    sys_->start();
    if (w.storage_rate > 0.0) {
      if (sys_->storage() == nullptr) fail("storage workload without storage");
      for (std::size_t i = 0; i < w.storage_objects; ++i) {
        objects_.push_back(sys_->storage()->create(sim().now()));
      }
    }
    if (w.dag_rate > 0.0 && sys_->dag() == nullptr) {
      fail("DAG workload without a DAG scheduler");
    }
    if (w.task_rate > 0.0) next_task(0.0);
    if (w.storage_rate > 0.0) next_storage_op(0.0);
    if (w.dag_rate > 0.0) next_graph(0.0);
  }

  // Advances one simulated second and then samples the clock reference. A
  // timed tick records its wall and CPU time and the per-tick samples; the
  // traced pass also probes after it.
  void tick(bool timed) {
    timed_ = timed;
    const auto t0 = Clock::now();
    const double c0 = thread_cpu_s();
    sys_->run_for(1.0);
    const double dc = thread_cpu_s() - c0;
    const double dt = seconds_since(t0);
    ref_s_.push_back(reference_loop_cpu_s());
    poll_graphs();
    if (!timed) return;
    totals_.tick_s.push_back(dt);
    tick_cpu_s_.push_back(dc);
    totals_.pending.push_back(
        static_cast<double>(sys_->cloud().pending_count()));
    totals_.members.push_back(
        static_cast<double>(sys_->cloud().member_count()));
    if (traced_) probe();
  }

  // CPU time of the timed ticks, not yet normalised, and the reference
  // loop's time after every tick.
  const std::vector<double>& tick_cpu_s() const { return tick_cpu_s_; }
  const std::vector<double>& ref_s() const { return ref_s_; }
  vcl::core::VehicularCloudSystem& system() { return *sys_; }
  vcl::sim::Simulator& sim() { return sys_->scenario().simulator(); }
  const std::vector<TaskId>& tasks() const { return tasks_; }
  std::size_t puts() const { return puts_; }
  std::size_t gets() const { return gets_; }
  std::size_t puts_failed() const { return puts_failed_; }
  std::size_t gets_failed() const { return gets_failed_; }
  std::size_t graphs() const { return graphs_; }

 private:
  // Probe timings land in the pooled totals only during timed ticks.
  bool probing() const { return traced_ && timed_; }

  // Open-loop arrival chains: each arrival schedules the next one.
  void next_task(SimTime now) {
    sim().schedule_at(now + task_rng_.exponential(1.0 / w_.task_rate),
                      [this] { submit_task(); }, "bench.task");
  }
  void submit_task() {
    constexpr double kOutputMb = 0.2;
    // Long enough that no task expires inside an episode.
    constexpr SimTime kDeadline = 300.0;
    const SimTime now = sim().now();
    // Sizes spread uniformly over [0.5, 1.5] x their means: varied, but
    // without the long exponential tail that would make the latency tail
    // of a few hundred tasks swing from seed to seed.
    auto around = [this](double mean) {
      return mean * (0.5 + task_rng_.uniform());
    };
    vcl::vcloud::Task spec;
    spec.work = around(w_.task_work);
    spec.input_mb = around(w_.task_input_mb);
    spec.output_mb = around(kOutputMb);
    spec.created = now;
    spec.deadline = now + kDeadline;
    const auto t0 = probing() ? Clock::now() : Clock::time_point{};
    tasks_.push_back(sys_->submit(spec));
    if (probing()) totals_.probes.submit_us.push_back(1e6 * seconds_since(t0));
    next_task(now);
  }

  void next_storage_op(SimTime now) {
    sim().schedule_at(now + storage_rng_.exponential(1.0 / w_.storage_rate),
                      [this] { storage_op(); }, "bench.storage");
  }
  // One put per two gets. A put fails when its write is not acked, a get
  // only when no replica answered (a degraded read counts as served).
  void storage_op() {
    const SimTime now = sim().now();
    const vcl::FileId object = objects_[storage_rng_.below(objects_.size())];
    const std::uint64_t client = storage_rng_.below(w_.storage_clients);
    auto& store = *sys_->storage();
    const auto t0 = probing() ? Clock::now() : Clock::time_point{};
    if (storage_rng_.below(3) == 0) {
      ++puts_;
      if (!store.put(client, object, now).acked) ++puts_failed_;
      if (probing()) totals_.probes.put_us.push_back(1e6 * seconds_since(t0));
    } else {
      ++gets_;
      if (!store.get(client, object, now).ok) ++gets_failed_;
      if (probing()) totals_.probes.get_us.push_back(1e6 * seconds_since(t0));
    }
    next_storage_op(now);
  }

  void next_graph(SimTime now) {
    sim().schedule_at(now + dag_rng_.exponential(1.0 / w_.dag_rate),
                      [this] { submit_graph(); }, "bench.dag");
  }
  // Chain, fork-join or diamond of light nodes.
  vcl::dag::TaskGraph make_graph() {
    vcl::dag::TaskGraph g;
    auto node = [&] {
      return g.add_node(dag_rng_.exponential(6.0), dag_rng_.exponential(0.2));
    };
    auto edge = [&](std::size_t a, std::size_t b) {
      g.add_edge(a, b, dag_rng_.exponential(0.5));
    };
    switch (dag_rng_.below(3)) {
      case 0: {  // chain of 4
        std::size_t prev = node();
        for (int i = 0; i < 3; ++i) {
          const std::size_t n = node();
          edge(prev, n);
          prev = n;
        }
        break;
      }
      case 1: {  // fork-join of 3 branches
        const std::size_t src = node();
        const std::size_t sink_inputs[3] = {node(), node(), node()};
        const std::size_t sink = node();
        for (std::size_t b : sink_inputs) {
          edge(src, b);
          edge(b, sink);
        }
        break;
      }
      default: {  // diamond
        const std::size_t a = node(), b = node(), c = node(), d = node();
        edge(a, b);
        edge(a, c);
        edge(b, d);
        edge(c, d);
        break;
      }
    }
    g.seal();
    return g;
  }
  void submit_graph() {
    const SimTime now = sim().now();
    vcl::dag::TaskGraph g = make_graph();
    const auto t0 = probing() ? Clock::now() : Clock::time_point{};
    const std::uint64_t id = sys_->dag()->submit_graph(std::move(g), now);
    if (probing()) totals_.probes.graph_us.push_back(1e6 * seconds_since(t0));
    ++graphs_;
    open_graphs_.emplace_back(id, now);
    next_graph(now);
  }

  // Makespans at tick resolution: a graph that completed during this tick
  // is stamped with the tick's end time.
  void poll_graphs() {
    if (open_graphs_.empty()) return;
    const SimTime now = sim().now();
    auto& dag = *sys_->dag();
    std::erase_if(open_graphs_, [&](const auto& g) {
      if (dag.graph_completed(g.first)) {
        totals_.makespans.push_back(now - g.second);
        return true;
      }
      return dag.graph_failed(g.first);
    });
  }

  // Read-only probes of the cluster and region queries, once per tick.
  void probe() {
    Probes& p = totals_.probes;
    auto t0 = Clock::now();
    const auto clusters = sys_->clusters().clusters();
    p.clusters_us.push_back(1e6 * seconds_since(t0));
    p.cluster_count.push_back(static_cast<double>(clusters.size()));
    t0 = Clock::now();
    const vcl::vcloud::CloudRegion region = sys_->cloud().region();
    p.region_us.push_back(1e6 * seconds_since(t0));
    (void)region;
  }

  const Workload& w_;
  bool traced_;
  bool timed_ = false;
  InputRng inputs_;
  Totals& totals_;
  InputRng task_rng_, storage_rng_, dag_rng_;
  std::unique_ptr<vcl::core::VehicularCloudSystem> sys_;
  std::vector<vcl::FileId> objects_;
  std::vector<TaskId> tasks_;
  std::size_t puts_ = 0, gets_ = 0, puts_failed_ = 0, gets_failed_ = 0;
  std::size_t graphs_ = 0;
  std::vector<std::pair<std::uint64_t, SimTime>> open_graphs_;
  std::vector<double> tick_cpu_s_, ref_s_;
};

// ---- checks, accounting and the digest --------------------------------------

std::string count_mismatch(const char* what, std::size_t seen,
                           std::size_t expected) {
  return std::string(what) + ": " + std::to_string(seen) + " != " +
         std::to_string(expected);
}

// Checks the finished episode's outputs, then folds its operations,
// counters and simulated statistics into the pass totals.
void check_and_account(Run& run, const Workload& w, Totals& t) {
  auto& sys = run.system();
  const vcl::vcloud::CloudStats& cs = sys.cloud().stats();

  // Task conservation over every task the cloud knows (benchmark tasks and
  // DAG attempts alike).
  std::size_t live = 0;
  sys.cloud().for_each_task([&](const vcl::vcloud::Task& task) {
    if (!task.terminal()) ++live;
  });
  if (cs.submitted != cs.completed + cs.failed + cs.expired + live) {
    fail(count_mismatch("task conservation: submitted vs completed + failed "
                        "+ expired + live",
                        cs.submitted,
                        cs.completed + cs.failed + cs.expired + live));
  }
  const auto* dag = sys.dag();
  const std::size_t dag_attempts = dag ? dag->stats().nodes_submitted : 0;
  if (cs.submitted != run.tasks().size() + dag_attempts) {
    fail(count_mismatch("task accounting: cloud submissions vs benchmark "
                        "tasks + DAG attempts",
                        cs.submitted, run.tasks().size() + dag_attempts));
  }
  t.tasks += run.tasks().size();
  for (TaskId id : run.tasks()) {
    const vcl::vcloud::Task* task = sys.cloud().find_task(id);
    if (task == nullptr) fail("task " + std::to_string(id.value()) + " lost");
    if (task->state == vcl::vcloud::TaskState::kCompleted) {
      ++t.tasks_completed;
      t.latency_s.push_back(task->completed_at - task->created);
    }
    if (task->state == vcl::vcloud::TaskState::kFailed ||
        task->state == vcl::vcloud::TaskState::kExpired) {
      ++t.tasks_failed;
    }
  }

  const auto* store = sys.storage();
  if (store != nullptr) {
    const auto& ss = store->stats();
    if (ss.writes_acked + ss.writes_failed != run.puts()) {
      fail(count_mismatch("storage accounting: acked + failed vs puts",
                          ss.writes_acked + ss.writes_failed, run.puts()));
    }
    if (ss.reads_quorum + ss.reads_degraded + ss.reads_failed != run.gets()) {
      fail(count_mismatch(
          "storage accounting: quorum + degraded + failed vs gets",
          ss.reads_quorum + ss.reads_degraded + ss.reads_failed, run.gets()));
    }
    if (ss.writes_failed != run.puts_failed() ||
        ss.reads_failed != run.gets_failed()) {
      fail("storage accounting: service and client disagree on failures");
    }
    t.puts += run.puts();
    t.gets += run.gets();
    t.puts_failed += ss.writes_failed;
    t.gets_failed += ss.reads_failed;
  }
  if (dag != nullptr) {
    const auto& ds = dag->stats();
    if (ds.graphs_submitted != run.graphs()) {
      fail(count_mismatch("dag accounting: scheduler graphs vs benchmark "
                          "graphs",
                          ds.graphs_submitted, run.graphs()));
    }
    t.graphs += run.graphs();
    t.graphs_failed += ds.graphs_failed;
  }
  const auto* oracle = sys.oracle();
  if (w.oracle_must_be_clean) {
    if (oracle == nullptr) fail("oracle missing on " + w.name);
    if (oracle->violation_count() != 0) {
      fail("oracle: " + std::to_string(oracle->violation_count()) +
           " violations, first: " + oracle->violations().front().to_string());
    }
    if (oracle->checks_run() == 0) fail("oracle ran no checks");
  }

  // Per-layer counters.
  const auto& sim = sys.scenario().simulator();
  const vcl::net::NetStats& ns = sys.scenario().network().stats();
  auto& c = t.counts;
  c["sim.events"] += static_cast<double>(sim.events_processed());
  c["sim.queue_high_water"] =
      std::max(c["sim.queue_high_water"],
               static_cast<double>(sim.queue_high_water()));
  c["net.unicast_sent"] += static_cast<double>(ns.unicast_sent);
  c["net.unicast_delivered"] += static_cast<double>(ns.unicast_delivered);
  c["net.dropped"] += static_cast<double>(ns.dropped);
  c["cloud.retries"] += static_cast<double>(cs.retries);
  c["cloud.reallocations"] += static_cast<double>(cs.reallocations);
  if (store != nullptr) {
    c["storage.writes_acked"] += static_cast<double>(store->stats().writes_acked);
    c["storage.reads_quorum"] += static_cast<double>(store->stats().reads_quorum);
    c["storage.repair_copies"] +=
        static_cast<double>(store->stats().repair_copies);
  }
  if (dag != nullptr) {
    c["dag.nodes_submitted"] += static_cast<double>(dag->stats().nodes_submitted);
    c["dag.nodes_succeeded"] += static_cast<double>(dag->stats().nodes_succeeded);
  }
  c["obs.flight.recorded"] += static_cast<double>(sys.flight().recorded());
  if (oracle != nullptr) {
    c["oracle.checks_run"] += static_cast<double>(oracle->checks_run());
    c["oracle.violations"] += static_cast<double>(oracle->violation_count());
  }

  // Simulated statistics for sim_digest, each double printed exactly, so a
  // host-side speed-up leaves the digest unchanged.
  std::ostringstream os;
  os.precision(17);
  auto put = [&os](const char* key, auto value) {
    os << key << '=' << value << '\n';
  };
  put("cloud.submitted", cs.submitted);
  put("cloud.completed", cs.completed);
  put("cloud.failed", cs.failed);
  put("cloud.expired", cs.expired);
  put("cloud.migrations", cs.migrations);
  put("cloud.reallocations", cs.reallocations);
  put("cloud.wasted_work", cs.wasted_work);
  put("cloud.latency.count", cs.latency.count());
  put("cloud.latency.mean", cs.latency.mean());
  put("cloud.latency.p50", cs.latency_tail.quantile(0.5));
  put("cloud.latency.p90", cs.latency_tail.quantile(0.9));
  put("cloud.latency.p99", cs.latency_tail.quantile(0.99));
  put("cloud.queue_delay.mean", cs.queue_delay.mean());
  put("cloud.queue_delay.p90", cs.queue_delay_tail.quantile(0.9));
  put("cloud.retries", cs.retries);
  put("cloud.crash_kills", cs.crash_kills);
  put("cloud.false_positive_kills", cs.false_positive_kills);
  put("cloud.checkpoints", cs.checkpoints);
  put("cloud.replicas_launched", cs.replicas_launched);
  put("cloud.broker_resyncs", cs.broker_resyncs);
  put("cloud.redundant_work", cs.redundant_work);
  put("cloud.checkpoint_mb", cs.checkpoint_mb);
  put("cloud.broker_changes", sys.cloud().broker_changes());
  put("net.unicast_sent", ns.unicast_sent);
  put("net.unicast_delivered", ns.unicast_delivered);
  put("net.broadcast_sent", ns.broadcast_sent);
  put("net.broadcast_receptions", ns.broadcast_receptions);
  put("net.dropped", ns.dropped);
  put("net.bytes_sent", ns.bytes_sent);
  put("net.hop_delay.mean", ns.hop_delay.mean());
  if (store != nullptr) {
    const auto& ss = store->stats();
    put("storage.objects", ss.objects);
    put("storage.writes_acked", ss.writes_acked);
    put("storage.writes_failed", ss.writes_failed);
    put("storage.reads_quorum", ss.reads_quorum);
    put("storage.reads_degraded", ss.reads_degraded);
    put("storage.reads_failed", ss.reads_failed);
    put("storage.leases_granted", ss.leases_granted);
    put("storage.leases_renewed", ss.leases_renewed);
    put("storage.leases_expired", ss.leases_expired);
    put("storage.leases_regranted", ss.leases_regranted);
    put("storage.repair_copies", ss.repair_copies);
    put("storage.freshen_copies", ss.freshen_copies);
    put("storage.pruned", ss.pruned);
    put("storage.mb_copied", ss.mb_copied);
    put("storage.put.p50", ss.put_latency_tail.quantile(0.5));
    put("storage.get.p50", ss.get_latency_tail.quantile(0.5));
  }
  if (dag != nullptr) {
    const auto& ds = dag->stats();
    put("dag.graphs_submitted", ds.graphs_submitted);
    put("dag.graphs_completed", ds.graphs_completed);
    put("dag.graphs_failed", ds.graphs_failed);
    put("dag.nodes_submitted", ds.nodes_submitted);
    put("dag.nodes_succeeded", ds.nodes_succeeded);
    put("dag.resubmits", ds.resubmits);
    put("dag.backups", ds.backups);
    put("dag.transfers", ds.transfers);
    put("dag.transfer_mb", ds.transfer_mb);
    put("dag.makespan.mean", ds.makespan.mean());
    put("dag.node_latency.p50", ds.node_latency_tail.quantile(0.5));
  }
  put("sim.events", sim.events_processed());
  put("sim.now", sim.now());
  t.stats += os.str();
}

// ---- passes -----------------------------------------------------------------

struct Shape {
  int episodes;
  int ticks;  // timed ticks per episode
};

// Independent episode seeds drawn from the run seed.
std::uint64_t episode_seed(std::uint64_t seed, int episode) {
  return InputRng(seed).fork(1000 + static_cast<std::uint64_t>(episode)).next();
}

// Runs episode `e` of a pass and folds it into `t`.
void run_episode(const Workload& w, std::uint64_t seed, int e,
                 const Shape& shape, bool traced, Totals& t) {
  const double c0 = thread_cpu_s();
  Run run(w, episode_seed(seed, e), traced, t);
  const double setup_cpu_s = thread_cpu_s() - c0;
  for (int i = 0; i < kWarmupTicks; ++i) run.tick(false);
  const Profile before = traced ? read_profile(run.sim()) : Profile{};
  const std::uint64_t events0 = run.sim().events_processed();
  for (int i = 0; i < shape.ticks; ++i) run.tick(true);
  t.timed_events += run.sim().events_processed() - events0;
  const double clock = quantile(run.ref_s(), 0.5) / kNominalRefS;
  const double scale = std::pow(clock, kClockShare);
  t.clock.push_back(clock);
  t.setup_s.push_back(setup_cpu_s / scale);
  for (double dc : run.tick_cpu_s()) t.tick_cpu_s.push_back(dc / scale);
  if (traced) {
    for (const auto& [label, cost] :
         profile_delta(before, read_profile(run.sim()))) {
      t.profile[label].events += cost.events;
      t.profile[label].wall_s += cost.wall_s;
    }
  }
  check_and_account(run, w, t);
}

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metrics(const std::vector<Metric>& metrics, const char* note) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %.6g %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                note);
  }
}

void print_result(const std::vector<Metric>& metrics, const Totals& t) {
  print_metrics(metrics, "");
  std::printf("n (timed ticks)                  %zu\n", t.tick_s.size());
  std::printf("clock factor                     %.3f (reference loop over "
              "nominal, median over episodes; wall-clock sim s/s %.4g)\n",
              quantile(t.clock, 0.5),
              ratio(static_cast<double>(t.tick_s.size()), t.wall_s()));
  std::printf("ops attempted/failed: tasks %zu/%zu  puts %zu/%zu  "
              "gets %zu/%zu  graphs %zu/%zu\n",
              t.tasks, t.tasks_failed, t.puts, t.puts_failed, t.gets,
              t.gets_failed, t.graphs, t.graphs_failed);
  std::printf("sim_digest %s\n", t.digest().c_str());
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              t.attempted(), t.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Peak resident set of this process image. VmHWM starts afresh at exec,
// whereas getrusage's ru_maxrss carries over the high-water mark of the
// process that forked us (the Python launcher).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  fail("no VmHWM in /proc/self/status");
}

std::vector<Metric> end_to_end(const Totals& t) {
  return {
      {"sim_s_per_cpu_s", ratio(static_cast<double>(t.tick_cpu_s.size()),
                                t.cpu_s()),
       "s/s"},
      {"tick_ms_p50", 1e3 * quantile(t.tick_cpu_s, 0.5), "ms"},
      {"tick_ms_p90", 1e3 * quantile(t.tick_cpu_s, 0.9), "ms"},
      {"setup_s", quantile(t.setup_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"task_completion",
       ratio(static_cast<double>(t.tasks_completed),
             static_cast<double>(t.tasks)),
       "ratio"},
      {"task_latency_p50_s", quantile(t.latency_s, 0.5), "s"},
      {"task_latency_p90_s", quantile(t.latency_s, 0.9), "s"},
  };
}

std::vector<Metric> per_layer(const Totals& traced, const Totals& untraced) {
  const Profile& p = traced.profile;
  auto cost = [&p](const char* label) {
    const auto it = p.find(label);
    return it == p.end() ? LabelCost{} : it->second;
  };
  const double traced_wall = traced.wall_s();
  auto wall = [&](const char* label) { return cost(label).wall_s; };
  auto share = [&](const char* label) {
    return ratio(wall(label), traced_wall);
  };
  auto ms_per_round = [&](const char* label) {
    const LabelCost c = cost(label);
    return ratio(1e3 * c.wall_s, static_cast<double>(c.events));
  };
  auto count = [&traced](const char* key) {
    const auto it = traced.counts.find(key);
    return it == traced.counts.end() ? 0.0 : it->second;
  };
  const Probes& pr = traced.probes;
  const double ticks = static_cast<double>(traced.tick_s.size());
  return {
      {"sim.events", count("sim.events"), "count"},
      {"sim.events_per_wall_s",
       ratio(static_cast<double>(untraced.timed_events), untraced.wall_s()),
       "1/s"},
      {"sim.queue_high_water", count("sim.queue_high_water"), "count"},
      {"mobility.step.wall_s", wall("mobility.step"), "s"},
      {"mobility.step.share", share("mobility.step"), "ratio"},
      {"net.beacon.ms_per_round", ms_per_round("net.beacon"), "ms"},
      {"net.beacon.share", share("net.beacon"), "ratio"},
      {"net.unicast_delivered_ratio",
       ratio(count("net.unicast_delivered"), count("net.unicast_sent")),
       "ratio"},
      {"net.dropped", count("net.dropped"), "count"},
      {"cluster.update.ms_per_round", ms_per_round("cluster.update"), "ms"},
      {"cluster.update.share", share("cluster.update"), "ratio"},
      {"cluster.count", mean(pr.cluster_count), "count"},
      {"cluster.clusters_call_us", quantile(pr.clusters_us, 0.5), "us"},
      {"cloud.refresh.ms_per_round", ms_per_round("cloud.refresh"), "ms"},
      {"cloud.refresh.share", share("cloud.refresh"), "ratio"},
      {"cloud.region_call_us", quantile(pr.region_us, 0.5), "us"},
      {"cloud.dispatch.wall_s", wall("cloud.dispatch"), "s"},
      {"cloud.task.wall_s", wall("cloud.task"), "s"},
      {"cloud.submit_us", quantile(pr.submit_us, 0.5), "us"},
      {"cloud.submit.share", share("bench.task"), "ratio"},
      {"cloud.pending_mean", mean(traced.pending), "count"},
      {"cloud.members_mean", mean(traced.members), "count"},
      {"cloud.heartbeat.ms_per_round", ms_per_round("cloud.heartbeat"), "ms"},
      {"cloud.heartbeat.share", share("cloud.heartbeat"), "ratio"},
      {"cloud.retry.wall_s", wall("cloud.retry"), "s"},
      {"cloud.checkpoint.wall_s", wall("cloud.checkpoint"), "s"},
      {"cloud.retries", count("cloud.retries"), "count"},
      {"cloud.reallocations", count("cloud.reallocations"), "count"},
      {"storage.put_us", quantile(pr.put_us, 0.5), "us"},
      {"storage.get_us", quantile(pr.get_us, 0.5), "us"},
      {"storage.write_ack_ratio",
       ratio(count("storage.writes_acked"), static_cast<double>(traced.puts)),
       "ratio"},
      {"storage.read_fresh_ratio",
       ratio(count("storage.reads_quorum"), static_cast<double>(traced.gets)),
       "ratio"},
      {"storage.repair_copies", count("storage.repair_copies"), "count"},
      {"dag.check.wall_s", wall("dag.check"), "s"},
      {"dag.submit_graph_us", quantile(pr.graph_us, 0.5), "us"},
      {"dag.attempts_per_success",
       ratio(count("dag.nodes_submitted"), count("dag.nodes_succeeded")),
       "ratio"},
      {"dag.makespan_p50_s", quantile(traced.makespans, 0.5), "s"},
      {"fault.event.wall_s", wall("fault.event"), "s"},
      {"fault.events", static_cast<double>(cost("fault.event").events),
       "count"},
      {"obs.flight.recorded", count("obs.flight.recorded"), "count"},
      {"obs.trace_overhead",
       ratio(ratio(ticks, untraced.cpu_s()), ratio(ticks, traced.cpu_s())),
       "ratio"},
      {"oracle.checks_run", count("oracle.checks_run"), "count"},
      {"oracle.violations", count("oracle.violations"), "count"},
  };
}

// ---- command line -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int vehicles = 0;  // 0 = the workload's fleet
  int ticks = 0;     // 0 = the workload's episode length
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) fail("missing value for " + key);
    const std::string val = argv[++i];
    auto number = [&]() {
      char* end = nullptr;
      errno = 0;
      const double v = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || errno != 0 || !(v >= 0.0)) {
        fail("bad value '" + val + "' for " + key);
      }
      return v;
    };
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = static_cast<std::uint64_t>(number());
    } else if (key == "--seconds") {
      a.seconds = number();
    } else if (key == "--trace") {
      a.trace = number() != 0.0;
    } else if (key == "--vehicles") {
      a.vehicles = static_cast<int>(number());
    } else if (key == "--ticks") {
      a.ticks = static_cast<int>(number());
    } else {
      fail("unknown flag " + key);
    }
  }
  if (!have_workload) fail("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Workload w = workload_named(args.workload);
  if (args.vehicles > 0) w.system.scenario.vehicles = args.vehicles;
  Shape shape{0, args.ticks > 0 ? args.ticks : w.episode_ticks};
  // At least 100 timed ticks unless the caller shortened the episodes, so
  // that ten or more samples lie beyond tick_ms_p90.
  const int min_episodes = args.ticks > 0 ? 1 : (99 + shape.ticks) / shape.ticks;
  shape.episodes = std::max(
      min_episodes,
      static_cast<int>(std::lround(args.seconds * w.episodes_per_second)));

  Totals untraced;
  if (!args.trace) {
    for (int e = 0; e < shape.episodes; ++e) {
      run_episode(w, args.seed, e, shape, false, untraced);
    }
    print_result(end_to_end(untraced), untraced);
    return 0;
  }
  // A traced run covers the first half of the episodes twice, untraced then
  // traced, so it costs about as much host time as an untraced run. Pairing
  // the two passes episode by episode exposes both to the same host
  // conditions, which keeps obs.trace_overhead meaningful. The replay must
  // reproduce the simulated outcome: the profiler and the probes may not
  // change it.
  Totals traced;
  for (int e = 0; e < (shape.episodes + 1) / 2; ++e) {
    run_episode(w, args.seed, e, shape, false, untraced);
    run_episode(w, args.seed, e, shape, true, traced);
  }
  if (traced.digest() != untraced.digest()) {
    fail("sim_digest differs between the untraced (" + untraced.digest() +
         ") and traced (" + traced.digest() +
         ") passes: the profiler or a probe changed the simulation");
  }
  print_metrics(end_to_end(untraced), "   (untraced pass)");
  print_result(per_layer(traced, untraced), traced);
  return 0;
}
