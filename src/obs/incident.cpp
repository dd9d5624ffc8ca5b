#include "obs/incident.h"

#include <cstdio>
#include <istream>
#include <ostream>
#include <utility>

#include "obs/json.h"

namespace vcl::obs {

namespace {

constexpr const char* kSchema = "vcl-incident-v2";

// Sim times and payloads must survive write → parse bit-exactly (the
// bundle-determinism tests compare serialized bytes), so they bypass
// json_number's lossy %.12g — same contract as fault-plan repro files.
std::string exact_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void append_flight_tail(IncidentBundle& bundle,
                        const std::vector<FlightEvent>& tail) {
  bundle.flight.reserve(bundle.flight.size() + tail.size());
  for (const FlightEvent& e : tail) {
    IncidentFlightEvent out;
    out.t = e.t;
    out.seq = e.seq;
    out.cat = to_string(e.kind->cat);
    out.name = e.kind->name;
    for (std::uint8_t i = 0; i < e.n_fields; ++i) {
      out.fields.emplace_back(e.fields[i].key, e.fields[i].value);
    }
    bundle.flight.push_back(std::move(out));
  }
}

void write_incident_bundle(const IncidentBundle& b, std::ostream& os) {
  {
    JsonWriter w(os);
    w.begin_object()
        .key("meta").value(kSchema)
        .key("seed").value(b.seed)
        .key("captured_at").value_raw(exact_number(b.captured_at))
        .key("trigger").value(b.trigger)
        .key("flight_recorded").value(b.flight_recorded)
        .key("flight_overwritten").value(b.flight_overwritten)
        .key("broker").value(b.broker)
        .key("pending").value(b.pending)
        .end_object();
  }
  os << '\n';
  for (const IncidentViolation& v : b.violations) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("violation")
        .key("t").value_raw(exact_number(v.t))
        .key("invariant").value(v.invariant)
        .key("detail").value(v.detail)
        .key("task").value(v.task)
        .end_object();
    os << '\n';
  }
  for (const IncidentFlightEvent& e : b.flight) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("flight")
        .key("t").value_raw(exact_number(e.t))
        .key("seq").value(e.seq)
        .key("cat").value(e.cat)
        .key("name").value(e.name);
    for (const auto& [key, value] : e.fields) {
      w.key(key).value_raw(exact_number(value));
    }
    w.end_object();
    os << '\n';
  }
  for (const IncidentWindow& win : b.windows) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("window")
        .key("start").value_raw(exact_number(win.start))
        .key("end").value_raw(exact_number(win.end))
        .key("x").value_raw(exact_number(win.x))
        .key("y").value_raw(exact_number(win.y))
        .key("radius").value_raw(exact_number(win.radius))
        .key("active").value(static_cast<std::uint64_t>(win.active ? 1 : 0))
        .end_object();
    os << '\n';
  }
  for (const IncidentOpenSpan& s : b.open_spans) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("span")
        .key("begin").value_raw(exact_number(s.begin))
        .key("cat").value(s.cat)
        .key("name").value(s.name)
        .key("trace").value(s.trace_id)
        .key("span").value(s.span_id)
        .end_object();
    os << '\n';
  }
  for (const IncidentWorker& wkr : b.workers) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("worker")
        .key("id").value(wkr.id)
        .key("crashed").value(static_cast<std::uint64_t>(wkr.crashed ? 1 : 0))
        .key("tracked").value(static_cast<std::uint64_t>(wkr.tracked ? 1 : 0))
        .end_object();
    os << '\n';
  }
  for (const IncidentTask& t : b.tasks) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("task")
        .key("id").value(t.id)
        .key("state").value(t.state)
        .key("progress").value_raw(exact_number(t.progress))
        .key("work").value_raw(exact_number(t.work))
        .key("checkpoint").value_raw(exact_number(t.checkpoint))
        .key("worker").value(t.worker)
        .key("trace").value(t.trace_id)
        .end_object();
    os << '\n';
  }
  for (const IncidentObject& o : b.objects) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("object")
        .key("id").value(o.id)
        .key("acked_version").value(o.acked_version)
        .end_object();
    os << '\n';
  }
  for (const IncidentReplica& r : b.replicas) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("replica")
        .key("object").value(r.object)
        .key("holder").value(r.holder)
        .key("version").value(r.version)
        .key("alive").value(static_cast<std::uint64_t>(r.alive ? 1 : 0))
        .key("lease").value(static_cast<std::uint64_t>(r.lease_held ? 1 : 0))
        .end_object();
    os << '\n';
  }
  for (const IncidentDagGraph& g : b.graphs) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("graph")
        .key("id").value(g.id)
        .key("terminal").value(static_cast<std::uint64_t>(g.terminal ? 1 : 0))
        .key("completed").value(
            static_cast<std::uint64_t>(g.completed ? 1 : 0))
        .key("intermediates").value(g.intermediates_held)
        .end_object();
    os << '\n';
  }
  for (const IncidentDagNode& n : b.dag_nodes) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("dagnode")
        .key("graph").value(n.graph)
        .key("node").value(n.node)
        .key("submitted").value(
            static_cast<std::uint64_t>(n.submitted ? 1 : 0))
        .key("succeeded").value(
            static_cast<std::uint64_t>(n.succeeded ? 1 : 0))
        .key("live").value(n.live_attempts)
        .end_object();
    os << '\n';
  }
}

bool parse_incident_bundle(std::istream& is, IncidentBundle& b,
                           std::string* error) {
  b = IncidentBundle{};
  std::string line;
  std::size_t lineno = 0;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": " + what;
    }
    return false;
  };
  bool have_meta = false;
  FlatRecord r;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string why;
    if (!r.scan(line, &why)) return fail(why);
    if (!have_meta) {
      const std::string schema = r.str("meta");
      if (!r.error().empty()) {
        return fail("not an incident bundle meta record: " + r.error());
      }
      if (schema != kSchema) {
        return fail("unsupported bundle version '" + schema +
                    "' (this reader takes " + kSchema + ")");
      }
      b.seed = r.u64("seed");
      b.captured_at = r.num("captured_at");
      b.trigger = r.str("trigger");
      b.flight_recorded = r.u64("flight_recorded");
      b.flight_overwritten = r.u64("flight_overwritten");
      b.broker = r.u64("broker");
      b.pending = r.u64("pending");
      if (!r.error().empty()) return fail(r.error());
      have_meta = true;
      continue;
    }
    const std::string rec = r.str("rec");
    if (!r.error().empty()) return fail(r.error());
    if (rec == "violation") {
      IncidentViolation v;
      v.t = r.num("t");
      v.invariant = r.str("invariant");
      v.detail = r.str("detail");
      v.task = r.u64("task");
      b.violations.push_back(std::move(v));
    } else if (rec == "flight") {
      IncidentFlightEvent e;
      e.t = r.num("t");
      e.seq = r.u64("seq");
      e.cat = r.str("cat");
      e.name = r.str("name");
      // Every other member is one of the event's named numeric fields.
      for (const auto& [key, value] : r.members()) {
        if (key == "rec" || key == "t" || key == "seq" || key == "cat" ||
            key == "name") {
          continue;
        }
        double num = 0.0;
        if (value.is_string || !FlatRecord::parse_number(value.text, num)) {
          return fail("field '" + key + "' is not a number");
        }
        e.fields.emplace_back(key, num);
      }
      b.flight.push_back(std::move(e));
    } else if (rec == "window") {
      IncidentWindow w;
      w.start = r.num("start");
      w.end = r.num("end");
      w.x = r.num("x");
      w.y = r.num("y");
      w.radius = r.num("radius");
      w.active = r.flag("active");
      b.windows.push_back(w);
    } else if (rec == "span") {
      IncidentOpenSpan s;
      s.begin = r.num("begin");
      s.cat = r.str("cat");
      s.name = r.str("name");
      s.trace_id = r.u64("trace");
      s.span_id = r.u64("span");
      b.open_spans.push_back(std::move(s));
    } else if (rec == "worker") {
      IncidentWorker w;
      w.id = r.u64("id");
      w.crashed = r.flag("crashed");
      w.tracked = r.flag("tracked");
      b.workers.push_back(w);
    } else if (rec == "task") {
      IncidentTask t;
      t.id = r.u64("id");
      t.state = r.str("state");
      t.progress = r.num("progress");
      t.work = r.num("work");
      t.checkpoint = r.num("checkpoint");
      t.worker = r.u64("worker");
      t.trace_id = r.u64("trace");
      b.tasks.push_back(std::move(t));
    } else if (rec == "object") {
      IncidentObject o;
      o.id = r.u64("id");
      o.acked_version = r.u64("acked_version");
      b.objects.push_back(o);
    } else if (rec == "replica") {
      IncidentReplica rep;
      rep.object = r.u64("object");
      rep.holder = r.u64("holder");
      rep.version = r.u64("version");
      rep.alive = r.flag("alive");
      rep.lease_held = r.flag("lease");
      b.replicas.push_back(rep);
    } else if (rec == "graph") {
      IncidentDagGraph g;
      g.id = r.u64("id");
      g.terminal = r.flag("terminal");
      g.completed = r.flag("completed");
      g.intermediates_held = r.u64("intermediates");
      b.graphs.push_back(g);
    } else if (rec == "dagnode") {
      IncidentDagNode n;
      n.graph = r.u64("graph");
      n.node = r.u64("node");
      n.submitted = r.flag("submitted");
      n.succeeded = r.flag("succeeded");
      n.live_attempts = r.u64("live");
      b.dag_nodes.push_back(n);
    } else {
      return fail("unknown record \"" + rec + "\"");
    }
    if (!r.error().empty()) return fail(rec + " record: " + r.error());
  }
  if (!have_meta) {
    if (error != nullptr) *error = "empty input (no meta record)";
    return false;
  }
  return true;
}

}  // namespace vcl::obs
