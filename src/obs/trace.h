// TraceRecorder: sim-time structured event + causal span tracing
// (DESIGN.md §6, §8) — the optional second sink behind obs::Recorder,
// attached only when `telemetry.tracing` is on.
//
// Subsystems emit categorized instant events ("net.drop", "task.complete",
// "fault.blackout", ...) with up to four numeric fields, and *duration
// spans* carrying causal ids `{trace_id, span_id, parent_span_id}` so one
// task's whole lifecycle — submission, dispatch over the lossy channel,
// execution, crash recovery, completion — survives as a single tree even
// across vehicle crashes and radio blackouts. Events land in a
// fixed-capacity ring buffer so a long run overwrites its oldest history
// instead of growing without bound; `overwritten()` reports how much was
// lost. A per-category enable mask gates recording; with tracing off no
// TraceRecorder exists and obs::Recorder never reaches this sink.
//
// Exports:
//  * JSONL — a leading metadata record (`recorded`/`overwritten`/
//    `dropped_fields`, so consumers can tell a wrapped ring from a complete
//    trace), then one `{"t":..,"cat":..,"name":..,...}` object per line;
//    span events add `"ph":"B"|"E"` and `"trace"/"span"/"parent"` ids.
//    grep/jq/`tools/vcl_traceview`-friendly.
//  * Chrome trace_event JSON — loads directly in chrome://tracing and
//    Perfetto; sim seconds map to trace microseconds. Instant events map to
//    per-category tracks; matched span pairs are emitted as complete "X"
//    slices on one track per trace_id, so each task renders as its own
//    nested flame row.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "obs/event.h"
#include "util/time.h"

namespace vcl::obs {

// Instant events vs the two halves of a duration span.
enum class TracePhase : std::uint8_t { kInstant = 0, kBegin = 1, kEnd = 2 };

class TraceRecorder {
 public:
  struct Event {
    SimTime t = 0.0;
    Category cat = Category::kSim;
    TracePhase phase = TracePhase::kInstant;
    std::uint8_t n_fields = 0;
    const char* name = "";
    // Causal ids; all zero for plain (context-free) instant events.
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    std::array<Field, kMaxFields> fields{};
  };

  explicit TraceRecorder(std::size_t capacity = 1 << 16,
                         std::uint32_t category_mask = kAllCategories);

  [[nodiscard]] bool enabled(Category c) const {
    return (mask_ & category_bit(c)) != 0;
  }
  [[nodiscard]] std::uint32_t mask() const { return mask_; }

  // Allocates a fresh trace id (the root of a new causal tree).
  [[nodiscard]] std::uint64_t new_trace_id() { return next_trace_id_++; }

  // Records an instant event; extra fields beyond kMaxFields are counted in
  // dropped_fields() (the event itself keeps the first kMaxFields).
  // Field keys and the event name must outlive the recorder (string
  // literals in practice — this keeps the hot path allocation-free).
  void record(SimTime t, Category cat, const char* name,
              std::initializer_list<Field> fields = {});
  // Instant event attached to a causal tree (e.g. net.tx for a dispatch).
  void record(SimTime t, Category cat, const char* name,
              TraceContext ctx, std::initializer_list<Field> fields = {});

  // Opens a duration span under `parent` (parent.span_id may be 0 for a
  // root span) and returns its span id — keep it to close the span later.
  // Returns 0 when the category is masked off (end_span of 0 is a no-op).
  std::uint64_t begin_span(SimTime t, Category cat, const char* name,
                           TraceContext parent,
                           std::initializer_list<Field> fields = {});
  // Closes the span `ctx.span_id` of tree `ctx.trace_id`; `name` should
  // match the begin (exports pair the two by span id, the name is for
  // humans reading the JSONL).
  void end_span(SimTime t, Category cat, const char* name,
                TraceContext ctx, std::initializer_list<Field> fields = {});

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  // Events lost to ring wrap-around (recorded - retained).
  [[nodiscard]] std::uint64_t overwritten() const {
    return recorded_ - count_;
  }
  // Fields passed beyond kMaxFields across all events (not silently lost).
  [[nodiscard]] std::uint64_t dropped_fields() const {
    return dropped_fields_;
  }
  void clear();

  // Retained events, oldest first.
  [[nodiscard]] std::vector<Event> events() const;
  // Begin events whose matching end has not been recorded yet, oldest
  // first — the work in flight at this instant. Best-effort on a wrapped
  // ring (an overwritten begin makes its end look unmatched, not open).
  // Incident bundles snapshot these (DESIGN.md §12).
  [[nodiscard]] std::vector<Event> open_spans() const;

  // Metadata record first ({"meta":"vcl-trace-v1","recorded":...}), then
  // one JSON object per line: {"t":1.5,"cat":"task","name":"task.submit",...}
  void write_jsonl(std::ostream& os) const;
  // Chrome trace_event format (chrome://tracing, Perfetto, speedscope).
  void write_chrome_trace(std::ostream& os) const;

 private:
  Event& push(SimTime t, Category cat, TracePhase phase,
              const char* name, std::initializer_list<Field> fields);

  std::uint32_t mask_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;   // next write slot
  std::size_t count_ = 0;  // retained events (<= capacity)
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_fields_ = 0;
  std::uint64_t next_trace_id_ = 1;
  std::uint64_t next_span_id_ = 1;
};

}  // namespace vcl::obs
