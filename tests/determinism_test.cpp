// Determinism digests: byte-identity as a check, not a manual diff.
//
// Each test runs one small, seeded episode end to end and hashes what it
// produced — outcome statistics, the trace JSONL, and the fault plan (chaos)
// or the flight ring (dynamic cloud) — with crypto::Sha256, then compares
// the hex against a golden committed below.
// A refactor or speed-up that claims "no change in simulated behaviour"
// must leave every golden untouched; a change that moves one on purpose
// regenerates it (the failure message prints the new hex) and says why in
// CHANGES.md.
//
// Coverage: one chaos episode per vcl_chaos mode (benign, storage, dag,
// adversary), run through core::run_chaos_episode exactly as the soak
// runner does, and two traced VehicularCloudSystem runs of 200 vehicles
// with a task stream: a dynamic cloud on a city grid, which drives the
// cluster membership, region and dwell closures, and an RSU cloud on a
// highway, which drives the infrastructure path.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/chaos.h"
#include "core/system.h"
#include "crypto/sha256.h"

namespace vcl::core {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Chaos episode: the headline outcome, the repro serialisation (scenario
// knobs + the exact fault plan), the violations, and the exported trace
// and metric files.
std::string chaos_digest(const std::string& name,
                         const ChaosScenarioConfig& config) {
  const std::string dir = ::testing::TempDir() + "vcl_determinism_" + name;
  std::filesystem::remove_all(dir);
  const fault::ChaosPlanner planner(chaos_config_for(config));
  const ChaosEpisode e = run_chaos_episode(config, planner.plan(config.seed),
                                           dir);

  std::ostringstream os;
  os.precision(17);
  write_chaos_repro(config, e.plan, os);
  for (const std::size_t n :
       {e.violation_count, e.checks_run, e.submitted, e.completed, e.expired,
        e.crashes, e.storage_writes_acked, e.storage_reads_quorum,
        e.storage_reads_degraded, e.storage_repair_copies,
        e.dag_graphs_submitted, e.dag_graphs_completed, e.dag_graphs_failed,
        e.dag_nodes_succeeded, e.dag_backups, e.sybil_claims,
        e.sybil_quarantined, e.sybil_admitted, e.replays_seen,
        e.replays_rejected, e.revocations, e.revoked_evictions}) {
    os << n << '\n';
  }
  for (const auto& v : e.violations) os << v.to_string() << '\n';
  os << read_file(dir + "/trace.jsonl") << read_file(dir + "/metrics.csv");
  std::filesystem::remove_all(dir);
  return crypto::to_hex(crypto::Sha256::hash(os.str()));
}

ChaosScenarioConfig small_episode() {
  ChaosScenarioConfig config;
  config.seed = 3;
  config.vehicles = 25;
  config.duration = 60.0;
  return config;
}

TEST(DeterminismDigest, ChaosBenign) {
  EXPECT_EQ(chaos_digest("benign", small_episode()),
            "7e596bb8b0cb43356c8fcb6abcfed02397c98de6f81d428858c0a4689e2a47fe");
}

TEST(DeterminismDigest, ChaosStorage) {
  ChaosScenarioConfig config = small_episode();
  config.storage = true;
  EXPECT_EQ(chaos_digest("storage", config),
            "018d64f880c6dc7c8d4129a048965b715e53ee0d83ddbe925f9d82451ff809b7");
}

TEST(DeterminismDigest, ChaosDag) {
  ChaosScenarioConfig config = small_episode();
  config.dag = true;
  EXPECT_EQ(chaos_digest("dag", config),
            "f414c4b9d474d1ca898a2d07333f09357f01c40b7f0a932210e5bd2b9b931a60");
}

TEST(DeterminismDigest, ChaosAdversary) {
  ChaosScenarioConfig config = small_episode();
  config.adversary = true;
  EXPECT_EQ(chaos_digest("adversary", config),
            "05260a4c0804c765d817347b5c37ac90f180682d7e1a475d033330a688a900ee");
}

// A run of the whole system: outcome statistics, the cluster shape, the
// flight ring and the trace JSONL.
std::string system_digest(VehicularCloudSystem& system) {
  std::ostringstream os;
  os.precision(17);
  const vcloud::CloudStats& s = system.cloud().stats();
  os << s.submitted << ' ' << s.completed << ' ' << s.failed << ' '
     << s.expired << ' ' << s.migrations << ' ' << s.reallocations << ' '
     << s.wasted_work << ' ' << s.latency.count() << ' ' << s.latency.mean()
     << ' ' << s.queue_delay.mean() << ' ' << s.latency_tail.quantile(0.9)
     << ' ' << system.cloud().member_count() << ' '
     << system.cloud().broker().value() << ' '
     << system.cloud().broker_changes() << '\n';
  for (const auto& [head, members] : system.clusters().clusters()) {
    os << head.value() << ':' << members.size() << ' ';
  }
  os << '\n' << system.flight().recorded() << '\n';
  for (const obs::FlightEvent& e : system.flight().tail()) {
    os << e.seq << ' ' << e.t << ' ' << e.kind->name;
    for (std::size_t i = 0; i < e.n_fields; ++i) {
      os << ' ' << e.fields[i].key << '=' << e.fields[i].value;
    }
    os << '\n';
  }
  system.telemetry()->trace.write_jsonl(os);
  return crypto::to_hex(crypto::Sha256::hash(os.str()));
}

// Starts the system and submits a task every 0.5 s for `seconds`.
void run_with_tasks(VehicularCloudSystem& system, SimTime seconds) {
  system.start();
  vcloud::WorkloadGenerator workload({15.0, 1.0, 0.2, 30.0},
                                     system.scenario().fork_rng(5));
  auto& sim = system.scenario().simulator();
  sim.schedule_every(0.5, [&] { system.submit(workload.next(sim.now())); });
  system.run_for(seconds);
}

// Runs a traced system with tasks and digests the run.
std::string traced_run_digest(SystemConfig config, SimTime seconds) {
  config.telemetry.tracing = true;
  VehicularCloudSystem system(config);
  run_with_tasks(system, seconds);
  return system_digest(system);
}

SystemConfig dynamic_city_config() {
  SystemConfig config;
  config.scenario.seed = 11;
  config.scenario.grid_rows = 4;
  config.scenario.grid_cols = 4;
  config.scenario.grid_spacing = 250.0;
  config.scenario.vehicles = 200;
  config.architecture = CloudArchitecture::kDynamic;
  return config;
}

// Dynamic v-cloud (Fig. 4c) on a city grid: the cloud follows the largest
// moving zone, and every dispatch ranks members by dwell in that zone's
// centroid region.
TEST(DeterminismDigest, DynamicCloudRun) {
  EXPECT_EQ(traced_run_digest(dynamic_city_config(), 20.0),
            "500d158c40a9a18b7a66a68febd8dedf7a923c14dd0ecb071c4c79a457d2ba38");
}

// The beacon rounds of the same run, counted: the pairs and draws are the
// simulation's own (exact goldens), and the table bounds decide all but at
// most 1% of the pairs without computing the reception probability.
TEST(DeterminismDigest, DynamicCloudBeaconCounters) {
  VehicularCloudSystem system(dynamic_city_config());
  run_with_tasks(system, 20.0);
  const net::BeaconCounters& c =
      system.scenario().network().beacon_counters();
  EXPECT_EQ(c.pairs, 263978u);
  EXPECT_EQ(c.draws, 263978u);
  EXPECT_EQ(c.saturated_receivers, 0u);
  EXPECT_LE(c.exact_evaluations * 100, c.pairs);
}

// Infrastructure-based v-cloud (Fig. 4b) on a highway: the cloud is the
// fleet under the nearest RSU, so this pins the RSU path and the highway
// geometry of the beacon round, which the city run does not reach.
TEST(DeterminismDigest, HighwayRsuCloudRun) {
  SystemConfig config;
  config.scenario.seed = 13;
  config.scenario.environment = Environment::kHighway;
  config.scenario.vehicles = 200;
  config.scenario.rsu_spacing = 1000.0;
  config.scenario.rsu_range = 500.0;
  config.architecture = CloudArchitecture::kInfrastructureBased;
  EXPECT_EQ(traced_run_digest(config, 20.0),
            "fa621a150fa72f175a80b156b0bf40d6ab7f586e8b55744068f452bbd16e74c4");
}

}  // namespace
}  // namespace vcl::core
