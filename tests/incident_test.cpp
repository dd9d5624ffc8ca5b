// Incident forensics (DESIGN.md §12): the always-on flight recorder, the
// vcl-incident-v2 bundle round-trip, and chaos-episode capture — including
// the determinism contract (same failing config, same bundle bytes,
// serial or on a thread pool).
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "core/chaos.h"
#include "exp/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/incident.h"
#include "obs/trace.h"

namespace vcl::obs {
namespace {

TEST(FlightRecorder, RecordsAndCountsPerCategory) {
  FlightRecorder flight(8);
  flight.record(1.0, ev::kTaskComplete,
                {{"task", 7.0}, {"worker", 3.0}, {"latency", 2.5}});
  flight.record(2.0, ev::kDetectorEvict,
                {{"worker", 3.0}, {"crashed", 1.0}, {"latency", 0.5}});
  EXPECT_EQ(flight.recorded(), 2u);
  EXPECT_EQ(flight.recorded(Category::kTask), 1u);
  EXPECT_EQ(flight.recorded(Category::kDetector), 1u);
  EXPECT_EQ(flight.overwritten(), 0u);

  const std::vector<FlightEvent> tail = flight.tail();
  ASSERT_EQ(tail.size(), 2u);
  // One strict total order: global sequence numbers, category-independent.
  EXPECT_LT(tail[0].seq, tail[1].seq);
  EXPECT_EQ(tail[0].kind, &ev::kTaskComplete);
  ASSERT_EQ(tail[0].n_fields, 3);
  EXPECT_STREQ(tail[0].fields[0].key, "task");
  EXPECT_DOUBLE_EQ(tail[0].fields[0].value, 7.0);
  EXPECT_DOUBLE_EQ(tail[0].fields[1].value, 3.0);
  EXPECT_DOUBLE_EQ(tail[0].fields[2].value, 2.5);
}

TEST(FlightRecorder, OverwriteKeepsNewestPerCategory) {
  FlightRecorder flight(4);
  for (int i = 0; i < 10; ++i) {
    flight.record(static_cast<double>(i), ev::kTaskExpire,
                  {{"task", static_cast<double>(i)}});
  }
  EXPECT_EQ(flight.recorded(), 10u);
  EXPECT_EQ(flight.overwritten(), 6u);
  EXPECT_EQ(flight.overwritten(Category::kTask), 6u);
  const std::vector<FlightEvent> tail = flight.tail();
  ASSERT_EQ(tail.size(), 4u);
  // The retained tail is the newest 4, in recording order.
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_DOUBLE_EQ(tail[i].fields[0].value, 6.0 + static_cast<double>(i));
  }
}

// A capture is a stable copy: recording past it (even far enough to wrap
// the ring again) must not disturb an earlier tail, and a later capture
// sees the newer history — the "overwrite during capture" contract the
// incident snapshot relies on (the hook captures mid-run, the run goes on).
TEST(FlightRecorder, CaptureIsStableWhileRecordingContinues) {
  FlightRecorder flight(4);
  const auto crash = [&flight](int i) {
    flight.record(static_cast<double>(i), ev::kFaultCrash,
                  {{"vehicle", static_cast<double>(i)}});
  };
  for (int i = 0; i < 6; ++i) crash(i);
  const std::vector<FlightEvent> first = flight.tail();
  ASSERT_EQ(first.size(), 4u);
  EXPECT_DOUBLE_EQ(first.front().fields[0].value, 2.0);

  for (int i = 6; i < 20; ++i) crash(i);
  // The first capture is untouched by the later overwrites...
  ASSERT_EQ(first.size(), 4u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i].fields[0].value, 2.0 + static_cast<double>(i));
  }
  // ...and a fresh capture shows the newest window.
  const std::vector<FlightEvent> second = flight.tail();
  ASSERT_EQ(second.size(), 4u);
  EXPECT_DOUBLE_EQ(second.front().fields[0].value, 16.0);
  EXPECT_EQ(flight.overwritten(), 16u);
}

TEST(FlightRecorder, MixedCategoriesInterleaveBySequence) {
  FlightRecorder flight(4);
  flight.record(1.0, ev::kFaultCrash, {{"vehicle", 9.0}});
  flight.record(1.5, ev::kDetectorEvict, {{"worker", 9.0}});
  flight.record(2.0, ev::kFaultCrash, {{"vehicle", 4.0}});
  flight.record(2.5, ev::kLeaseExpire, {{"object", 1.0}, {"holder", 4.0}});
  const std::vector<FlightEvent> tail = flight.tail();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail[0].kind->cat, Category::kFault);
  EXPECT_EQ(tail[1].kind->cat, Category::kDetector);
  EXPECT_EQ(tail[2].kind->cat, Category::kFault);
  EXPECT_EQ(tail[3].kind->cat, Category::kLease);
}

TEST(TraceRecorder, OpenSpansAreBegunButNotEnded) {
  TraceRecorder trace(64);
  TraceContext root{trace.new_trace_id(), 0};
  const std::uint64_t open =
      trace.begin_span(1.0, Category::kTask, "task.life", root);
  TraceContext closed_ctx{root.trace_id, 0};
  closed_ctx.span_id =
      trace.begin_span(2.0, Category::kTask, "task.leg.exec", root);
  trace.end_span(3.0, Category::kTask, "task.leg.exec", closed_ctx);

  const std::vector<TraceRecorder::Event> spans = trace.open_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].span_id, open);
  EXPECT_STREQ(spans[0].name, "task.life");
}

IncidentBundle sample_bundle() {
  IncidentBundle b;
  b.seed = 42;
  b.captured_at = 0.1 + 0.2;  // not exactly representable: %.17g territory
  b.trigger = "task-conservation";
  b.flight_recorded = 12;
  b.flight_overwritten = 3;
  b.broker = 5;
  b.pending = 2;
  b.violations.push_back({59.0, "task-conservation", "task \"lost\"\n", 84});
  b.flight.push_back(
      {50.7175, 9, "fault", "fault.broker.crash", {{"vehicle", 4.0}}});
  b.flight.push_back({58.0,
                      10,
                      "detector",
                      "detector.evict",
                      {{"worker", 4.0},
                       {"crashed", 1.0},
                       {"latency", 7.282512345678901}}});
  b.windows.push_back({10.0, 15.5, -3.25, 900.125, 400.0, false});
  b.open_spans.push_back({42.0, "task", "task.life", 84, 394});
  b.workers.push_back({3, true, false});
  b.workers.push_back({4, false, true});
  b.tasks.push_back({84, "crash_recovering", 12.5, 30.0, 10.0, 0, 84});
  b.objects.push_back({1, 3});
  b.replicas.push_back({1, 7, 3, true, false});
  b.graphs.push_back({2, false, false, 1});
  b.dag_nodes.push_back({2, 0, true, false, 0});
  return b;
}

TEST(IncidentBundle, RoundTripIsBitIdentical) {
  const IncidentBundle original = sample_bundle();
  std::stringstream first;
  write_incident_bundle(original, first);

  IncidentBundle parsed;
  std::string error;
  std::stringstream in(first.str());
  ASSERT_TRUE(parse_incident_bundle(in, parsed, &error)) << error;

  std::stringstream second;
  write_incident_bundle(parsed, second);
  EXPECT_EQ(first.str(), second.str());

  EXPECT_EQ(parsed.seed, 42u);
  EXPECT_EQ(parsed.trigger, "task-conservation");
  ASSERT_EQ(parsed.violations.size(), 1u);
  EXPECT_EQ(parsed.violations[0].detail, "task \"lost\"\n");
  ASSERT_EQ(parsed.flight.size(), 2u);
  EXPECT_EQ(parsed.flight[1].name, "detector.evict");
  ASSERT_EQ(parsed.workers.size(), 2u);
  EXPECT_TRUE(parsed.workers[0].crashed);
  EXPECT_TRUE(parsed.workers[1].tracked);
}

TEST(IncidentBundle, ParserRejectsMissingMetaAndUnknownRecords) {
  IncidentBundle out;
  std::string error;
  std::stringstream no_meta("{\"rec\":\"flight\"}\n");
  EXPECT_FALSE(parse_incident_bundle(no_meta, out, &error));
  EXPECT_FALSE(error.empty());

  std::stringstream valid;
  write_incident_bundle(sample_bundle(), valid);
  std::stringstream unknown(valid.str() + "{\"rec\":\"mystery\"}\n");
  EXPECT_FALSE(parse_incident_bundle(unknown, out, &error));
}

// Missing or wrongly typed keys are malformed input, reported with the
// line they sit on — never rendered as zeros.
TEST(IncidentBundle, ParserRejectsMistypedAndMissingKeysByLine) {
  std::stringstream valid;
  write_incident_bundle(sample_bundle(), valid);
  const std::string meta = valid.str().substr(0, valid.str().find('\n') + 1);

  IncidentBundle out;
  std::string error;
  std::stringstream bad_flight(
      meta + R"({"rec":"flight","t":"oops","name":"task.complete"})" + "\n" +
      R"({"rec":"violation"})" + "\n");
  EXPECT_FALSE(parse_incident_bundle(bad_flight, out, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("'t'"), std::string::npos) << error;

  std::stringstream bare_violation(meta + R"({"rec":"violation"})" + "\n");
  EXPECT_FALSE(parse_incident_bundle(bare_violation, out, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("missing"), std::string::npos) << error;

  std::stringstream text_field(
      meta + R"({"rec":"flight","t":1,"seq":0,"cat":"fault",)" +
      R"("name":"fault.crash","vehicle":"seven"})" + "\n");
  EXPECT_FALSE(parse_incident_bundle(text_field, out, &error));
  EXPECT_NE(error.find("'vehicle'"), std::string::npos) << error;
}

TEST(IncidentBundle, ParserRejectsV1BundleNamingTheVersion) {
  std::stringstream v1(
      R"({"meta":"vcl-incident-v1","seed":1,"captured_at":2,"trigger":"x",)"
      R"("flight_recorded":0,"flight_overwritten":0,"broker":0,"pending":0})"
      "\n");
  IncidentBundle out;
  std::string error;
  EXPECT_FALSE(parse_incident_bundle(v1, out, &error));
  EXPECT_NE(error.find("vcl-incident-v1"), std::string::npos) << error;
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(IncidentBundle, FlightTailCopyOwnsNames) {
  FlightRecorder flight(4);
  flight.record(1.0, ev::kQuorumWriteFailed,
                {{"object", 8.0}, {"client", 2.0}, {"replicas", 1.0}});
  IncidentBundle b;
  append_flight_tail(b, flight.tail());
  ASSERT_EQ(b.flight.size(), 1u);
  EXPECT_EQ(b.flight[0].cat, "quorum");
  EXPECT_EQ(b.flight[0].name, "quorum.write.failed");
  const std::vector<std::pair<std::string, double>> fields = {
      {"object", 8.0}, {"client", 2.0}, {"replicas", 1.0}};
  EXPECT_EQ(b.flight[0].fields, fields);
}

}  // namespace
}  // namespace vcl::obs

namespace vcl::core {
namespace {

ChaosScenarioConfig failing_config() {
  // Same fixture as chaos_test.cpp's seeded-bug test: the requeue bug
  // trips task-conservation on nearly every seed; pin the first that does.
  ChaosScenarioConfig cfg;
  cfg.vehicles = 20;
  cfg.duration = 40.0;
  cfg.drain = 20.0;
  cfg.inject_requeue_bug = true;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    cfg.seed = seed;
    if (!run_chaos_episode(cfg).ok()) return cfg;
  }
  ADD_FAILURE() << "seeded bug never tripped the oracle";
  return cfg;
}

TEST(IncidentCapture, CleanEpisodeHasNoBundle) {
  ChaosScenarioConfig cfg;
  cfg.seed = 5;
  cfg.vehicles = 20;
  cfg.duration = 40.0;
  cfg.drain = 20.0;
  const ChaosEpisode episode = run_chaos_episode(cfg);
  ASSERT_TRUE(episode.ok());
  EXPECT_EQ(episode.incident, nullptr);
}

TEST(IncidentCapture, ViolationProducesCausallyOrderedBundle) {
  const ChaosScenarioConfig cfg = failing_config();
  const ChaosEpisode episode = run_chaos_episode(cfg);
  ASSERT_FALSE(episode.ok());
  ASSERT_NE(episode.incident, nullptr);
  const obs::IncidentBundle& b = *episode.incident;

  EXPECT_EQ(b.seed, cfg.seed);
  ASSERT_FALSE(episode.violations.empty());
  // The snapshot is pinned to the FIRST violation...
  EXPECT_EQ(b.trigger, episode.violations[0].invariant);
  EXPECT_DOUBLE_EQ(b.captured_at, episode.violations[0].at);
  // ...and the violation list covers everything the oracle stored.
  EXPECT_EQ(b.violations.size(), episode.violations.size());

  // The causal chain must be present and ordered: an injected fault, then
  // the detector eviction it caused, then the violation.
  double first_fault = -1.0;
  double first_evict = -1.0;
  for (const obs::IncidentFlightEvent& e : b.flight) {
    if (first_fault < 0.0 && e.cat == "fault") first_fault = e.t;
    if (first_evict < 0.0 && e.name == "detector.evict") first_evict = e.t;
  }
  ASSERT_GE(first_fault, 0.0) << "no injected fault in the flight tail";
  ASSERT_GE(first_evict, 0.0) << "no detector eviction in the flight tail";
  EXPECT_LE(first_fault, first_evict);
  EXPECT_LE(first_evict, b.captured_at);

  // The state snapshot is populated: membership and the in-flight tasks
  // the conservation check was looking at.
  EXPECT_FALSE(b.workers.empty());
  EXPECT_FALSE(b.tasks.empty());
  EXPECT_GT(b.flight_recorded, 0u);
}

// The `--jobs` contract: the bundle serializes to the same bytes whether
// the episode ran serially or interleaved with others on a thread pool —
// capture reads only sim-state, never wall-clock or scheduling order.
TEST(IncidentCapture, BundleBytesIdenticalSerialVsThreadPool) {
  const ChaosScenarioConfig cfg = failing_config();

  std::stringstream serial;
  {
    const ChaosEpisode episode = run_chaos_episode(cfg);
    ASSERT_NE(episode.incident, nullptr);
    obs::write_incident_bundle(*episode.incident, serial);
  }

  // Eight concurrent replicas of the same episode: every bundle must be
  // byte-identical to the serial one.
  std::vector<std::string> pooled(8);
  {
    exp::ThreadPool pool(8);
    std::vector<std::future<void>> futures;
    futures.reserve(pooled.size());
    for (std::size_t i = 0; i < pooled.size(); ++i) {
      futures.push_back(pool.submit([&, i] {
        const ChaosEpisode episode = run_chaos_episode(cfg);
        if (episode.incident == nullptr) return;
        std::stringstream ss;
        obs::write_incident_bundle(*episode.incident, ss);
        pooled[i] = ss.str();
      }));
    }
    for (auto& f : futures) f.get();
  }
  for (const std::string& bytes : pooled) {
    EXPECT_EQ(bytes, serial.str());
  }
}

// Tracing is a second sink, never an input: per chaos mode, the bundle a
// seeded bug produces — flight tail included — serializes to the same
// bytes with tracing on and off. Only the trace-derived parts (open spans,
// task trace ids) are dropped before comparing.
std::string bundle_bytes_without_trace(obs::IncidentBundle b) {
  b.open_spans.clear();
  for (obs::IncidentTask& t : b.tasks) t.trace_id = 0;
  std::stringstream ss;
  obs::write_incident_bundle(b, ss);
  return ss.str();
}

TEST(IncidentCapture, BundleBytesIdenticalWithTracingOnAndOff) {
  struct Mode {
    const char* name;
    void (*arm)(ChaosScenarioConfig&);
  };
  const Mode modes[] = {
      {"base", [](ChaosScenarioConfig& c) { c.inject_requeue_bug = true; }},
      {"storage",
       [](ChaosScenarioConfig& c) {
         c.storage = true;
         c.inject_repair_bug = true;
       }},
      {"dag",
       [](ChaosScenarioConfig& c) {
         c.dag = true;
         c.inject_dag_bug = true;
         c.intensity = 3.0;
       }},
      {"adversary",
       [](ChaosScenarioConfig& c) {
         c.adversary = true;
         c.inject_revoked_bug = true;
       }},
  };
  const std::string dir = ::testing::TempDir() + "vcl_incident_inert";
  for (const Mode& mode : modes) {
    SCOPED_TRACE(mode.name);
    ChaosScenarioConfig cfg;
    cfg.vehicles = 20;
    cfg.duration = 40.0;
    cfg.drain = 20.0;
    mode.arm(cfg);
    ChaosEpisode untraced;
    for (std::uint64_t seed = 1; seed <= 10 && untraced.incident == nullptr;
         ++seed) {
      cfg.seed = seed;
      untraced = run_chaos_episode(cfg);
    }
    ASSERT_NE(untraced.incident, nullptr) << "seeded bug never tripped";
    const ChaosEpisode traced =
        run_chaos_episode(cfg, untraced.plan, dir + "/" + mode.name);
    ASSERT_NE(traced.incident, nullptr);
    EXPECT_FALSE(traced.incident->flight.empty());
    EXPECT_EQ(bundle_bytes_without_trace(*traced.incident),
              bundle_bytes_without_trace(*untraced.incident));
  }
}

}  // namespace
}  // namespace vcl::core
