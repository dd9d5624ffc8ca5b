// FlightRecorder: the always-on, fixed-memory ring sink behind
// obs::Recorder (DESIGN.md §12).
//
// The trace recorder answers "what happened?" only when telemetry was
// switched on before the run; a production incident rarely grants that
// favor. The flight ring is the black box that is ALWAYS running: it keeps
// the vocabulary's ring kinds (event.h) — task terminal transitions,
// failure-detector evictions, lease expiries, quorum degradations, DAG
// backup launches, fault window edges, admission decisions — at the cost
// of one ring write per event. It never touches an RNG stream, never
// allocates after construction, and never changes scheduling, so a run
// with the recorder attached is bit-identical to one without (and across
// any `--jobs` level: each system owns its recorder).
//
// Per-category rings (rather than one shared ring) keep a chatty category
// (task terminals) from evicting the rare one that explains the incident
// (the single lease expiry an hour ago). A global sequence number stamped
// on every event lets `tail()` merge the rings back into one totally
// ordered history — the ordering ties at equal sim time are resolved by
// record order, which is itself deterministic.
//
// Events carry the same named fields as their trace counterparts. The
// trace context is deliberately not kept: trace ids exist only when
// tracing is on, and the ring must read the same either way.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "obs/event.h"
#include "util/time.h"

namespace vcl::obs {

struct FlightEvent {
  SimTime t = 0.0;
  const EventKind* kind = nullptr;
  std::uint8_t n_fields = 0;
  std::array<Field, kMaxFields> fields{};
  std::uint64_t seq = 0;  // global record order across all categories
};

class FlightRecorder {
 public:
  // Up to 256 events per category: cheap enough to leave on for every run
  // (~24 KiB reserved per ring, touched only as it fills), deep enough
  // that the causal chain behind a violation (fault → detection → recovery
  // → failure) survives even when one category is chatty.
  static constexpr std::size_t kDefaultPerCategory = 256;

  explicit FlightRecorder(std::size_t per_category = kDefaultPerCategory);

  // Keeps the first kMaxFields fields. Only ring kinds belong here (the
  // Recorder routes them).
  void record(SimTime t, const EventKind& kind,
              std::initializer_list<Field> fields = {});

  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t recorded(Category c) const {
    return ring(c).recorded;
  }
  [[nodiscard]] std::uint64_t overwritten() const;
  [[nodiscard]] std::uint64_t overwritten(Category c) const {
    const Ring& r = ring(c);
    return r.recorded - r.slots.size();
  }

  // Retained events merged across every category, oldest first (global
  // sequence order). This is the "flight-recorder tail" an incident bundle
  // snapshots.
  [[nodiscard]] std::vector<FlightEvent> tail() const;

 private:
  // Slots grow by push_back up to capacity_ (reserved at construction, so
  // recording never allocates); once full, `head` is the oldest slot and
  // the next one overwritten.
  struct Ring {
    std::vector<FlightEvent> slots;
    std::size_t head = 0;
    std::uint64_t recorded = 0;
  };

  [[nodiscard]] const Ring& ring(Category c) const {
    return rings_[static_cast<std::size_t>(c)];
  }

  std::size_t capacity_;
  std::array<Ring, kCategoryCount> rings_;
  std::uint64_t recorded_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace vcl::obs
