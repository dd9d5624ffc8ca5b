// obs::Recorder: the one recording front-end (DESIGN.md §6, §12).
//
// Every event site makes one call — `obs::record(rec, kind, t, ctx,
// {key, value}...)` with at most kMaxFields fields — naming an EventKind
// from the vocabulary (event.h). The recorder fans that call out to two
// sinks:
//  * the per-category flight ring (FlightRecorder), always on, which keeps
//    exactly the kinds the vocabulary marks `ring`;
//  * the TraceRecorder, attached only when `telemetry.tracing` is on, which
//    takes every kind whose category its mask enables, plus the duration
//    spans (begin_span / end_span are trace-only).
//
// Cost contract: a kind with no ring whose category is not traced costs one
// inline mask test at the call site — no call, and no field list is built
// (the helpers below are inline and take fields by value, so the list is
// assembled on the taken branch only). Subsystems hold a nullable
// `Recorder*`; null (bare unit-test components) costs one pointer test
// more.
#pragma once

#include <cstdint>
#include <initializer_list>

#include "obs/event.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/time.h"

namespace vcl::obs {

class Recorder {
 public:
  // Attaches (or, with null, detaches) the trace sink; its category mask is
  // read once, here.
  void set_trace(TraceRecorder* trace) {
    trace_ = trace;
    trace_mask_ = trace != nullptr ? trace->mask() : 0;
  }

  // True when a call for `kind` reaches any sink.
  [[nodiscard]] bool on(const EventKind& kind) const {
    return kind.ring || tracing(kind.cat);
  }
  [[nodiscard]] bool tracing() const { return trace_ != nullptr; }
  [[nodiscard]] bool tracing(Category c) const {
    return (trace_mask_ & category_bit(c)) != 0;
  }

  // The one recording call behind obs::record().
  void record(const EventKind& kind, SimTime t, TraceContext ctx,
              std::initializer_list<Field> fields);

  // Causal spans (trace sink only). new_trace_id needs tracing(); begin_span
  // returns the new span id, or 0 without a trace sink or when the kind's
  // category is masked off — and end_span of a zero span id is a no-op.
  [[nodiscard]] std::uint64_t new_trace_id() {
    return trace_->new_trace_id();
  }
  std::uint64_t begin_span(const EventKind& kind, SimTime t,
                           TraceContext parent,
                           std::initializer_list<Field> fields = {}) {
    if (trace_ == nullptr) return 0;
    return trace_->begin_span(t, kind.cat, kind.name, parent, fields);
  }
  void end_span(const EventKind& kind, SimTime t, TraceContext ctx,
                std::initializer_list<Field> fields = {}) {
    if (trace_ == nullptr) return;
    trace_->end_span(t, kind.cat, kind.name, ctx, fields);
  }

  [[nodiscard]] const FlightRecorder& flight() const { return flight_; }

 private:
  FlightRecorder flight_;
  TraceRecorder* trace_ = nullptr;
  std::uint32_t trace_mask_ = 0;
};

// Call-site entry points: null-safe, gated inline on Recorder::on(). The
// fields are taken by value — a null key marks an unused slot, which the
// sinks skip — so the conversions that build them sink behind the gate.
inline void record(Recorder* rec, const EventKind& kind, SimTime t,
                   TraceContext ctx, Field a = {}, Field b = {}, Field c = {},
                   Field d = {}) {
  if (rec != nullptr && rec->on(kind)) rec->record(kind, t, ctx, {a, b, c, d});
}
inline void record(Recorder* rec, const EventKind& kind, SimTime t,
                   Field a = {}, Field b = {}, Field c = {}, Field d = {}) {
  record(rec, kind, t, TraceContext{}, a, b, c, d);
}

}  // namespace vcl::obs
