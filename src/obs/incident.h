// Incident bundles (DESIGN.md §12): the `vcl-incident-v2` forensic
// snapshot captured at the instant an invariant violation fires.
//
// A repro file replays a failure; a bundle *explains* it without a replay:
// the flight-recorder tail (the causal event history that led here), the
// fault windows that were open, the spans still in flight, and the
// membership / task / replica / DAG-node state at the moment the oracle
// objected. `core::chaos` fills one on the first violation of an episode
// and writes it next to the shrunk repro; `tools/vcl_incident` renders it
// as a causal timeline.
//
// Everything here is plain data — strings, ids, doubles — because vcl_obs
// sits below vcloud/storage/dag in the layer graph: the subsystems cannot
// be named here, so their state arrives already flattened. Sim times are
// serialized with %.17g and re-emitted from the parsed values, so
// write → parse → re-write is bit-identical (the determinism contract the
// `--jobs` tests pin down).
//
// Flight rows carry each event's named fields — the same {key, value}
// pairs the trace sink records for that event.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "util/time.h"

namespace vcl::obs {

struct IncidentViolation {
  SimTime t = 0.0;
  std::string invariant;
  std::string detail;
  std::uint64_t task = 0;  // 0 = not task-scoped
};

// One retained flight-recorder event (names become owned strings here —
// a bundle outlives the run that produced it).
struct IncidentFlightEvent {
  SimTime t = 0.0;
  std::uint64_t seq = 0;
  std::string cat;
  std::string name;
  std::vector<std::pair<std::string, double>> fields;
};

// An injected radio-blackout window [start, end] (absolute sim time).
struct IncidentWindow {
  SimTime start = 0.0;
  SimTime end = 0.0;
  double x = 0.0;
  double y = 0.0;
  double radius = 0.0;
  bool active = false;  // still open at capture time
};

// A trace span begun but not yet ended at capture (work in flight). Only
// present when the episode also ran with tracing on; the trace/span ids
// cross-link into trace.jsonl (vcl_traceview).
struct IncidentOpenSpan {
  SimTime begin = 0.0;
  std::string cat;
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

struct IncidentWorker {
  std::uint64_t id = 0;
  bool crashed = false;  // zombie: physically dead, not yet evicted
  bool tracked = false;  // failure detector has it on its books
};

// A non-terminal task at capture time.
struct IncidentTask {
  std::uint64_t id = 0;
  std::string state;
  double progress = 0.0;
  double work = 0.0;
  double checkpoint = 0.0;
  std::uint64_t worker = 0;    // 0 = unassigned
  std::uint64_t trace_id = 0;  // 0 = untraced run
};

struct IncidentObject {
  std::uint64_t id = 0;
  std::uint64_t acked_version = 0;
};

struct IncidentReplica {
  std::uint64_t object = 0;
  std::uint64_t holder = 0;
  std::uint64_t version = 0;
  bool alive = false;
  bool lease_held = false;
};

struct IncidentDagGraph {
  std::uint64_t id = 0;
  bool terminal = false;
  bool completed = false;
  std::uint64_t intermediates_held = 0;
};

struct IncidentDagNode {
  std::uint64_t graph = 0;
  std::uint64_t node = 0;
  bool submitted = false;
  bool succeeded = false;
  std::uint64_t live_attempts = 0;
};

struct IncidentBundle {
  std::uint64_t seed = 0;
  SimTime captured_at = 0.0;  // sim time of the triggering violation
  std::string trigger;        // its invariant name
  std::uint64_t flight_recorded = 0;
  std::uint64_t flight_overwritten = 0;
  std::uint64_t broker = 0;  // 0 = no broker at capture
  std::uint64_t pending = 0;

  std::vector<IncidentViolation> violations;
  std::vector<IncidentFlightEvent> flight;
  std::vector<IncidentWindow> windows;
  std::vector<IncidentOpenSpan> open_spans;
  std::vector<IncidentWorker> workers;
  std::vector<IncidentTask> tasks;
  std::vector<IncidentObject> objects;
  std::vector<IncidentReplica> replicas;
  std::vector<IncidentDagGraph> graphs;
  std::vector<IncidentDagNode> dag_nodes;
};

// Copies a flight-recorder tail into the bundle (names become owned).
void append_flight_tail(IncidentBundle& bundle,
                        const std::vector<FlightEvent>& tail);

// JSONL: a vcl-incident-v2 meta line, then one flat record per line in a
// fixed section order. Deterministic byte-for-byte for equal bundles.
void write_incident_bundle(const IncidentBundle& bundle, std::ostream& os);
// Strict inverse of the writer: a re-emitted parse is bit-identical.
// Returns false (with a line-numbered `error`) on malformed input: bad
// syntax, a missing or wrongly typed key, an unknown record, or a bundle
// of another version.
bool parse_incident_bundle(std::istream& is, IncidentBundle& bundle,
                           std::string* error = nullptr);

}  // namespace vcl::obs
