#include "obs/flight_recorder.h"

#include <algorithm>

namespace vcl::obs {

FlightRecorder::FlightRecorder(std::size_t per_category)
    : capacity_(std::max<std::size_t>(1, per_category)) {
  for (Ring& r : rings_) r.slots.reserve(capacity_);
}

void FlightRecorder::record(SimTime t, const EventKind& kind,
                            std::initializer_list<Field> fields) {
  FlightEvent e{.t = t, .kind = &kind, .seq = seq_++};
  for (const Field& f : fields) {
    if (e.n_fields == kMaxFields) break;
    if (f.key != nullptr) e.fields[e.n_fields++] = f;
  }
  Ring& r = rings_[static_cast<std::size_t>(kind.cat)];
  if (r.slots.size() < capacity_) {
    r.slots.push_back(e);
  } else {
    r.slots[r.head] = e;
    r.head = (r.head + 1) % capacity_;
  }
  ++r.recorded;
  ++recorded_;
}

std::uint64_t FlightRecorder::overwritten() const {
  std::uint64_t lost = 0;
  for (const Ring& r : rings_) lost += r.recorded - r.slots.size();
  return lost;
}

std::vector<FlightEvent> FlightRecorder::tail() const {
  std::vector<FlightEvent> merged;
  std::size_t total = 0;
  for (const Ring& r : rings_) total += r.slots.size();
  merged.reserve(total);
  for (const Ring& r : rings_) {
    for (std::size_t i = 0; i < r.slots.size(); ++i) {
      merged.push_back(r.slots[(r.head + i) % r.slots.size()]);
    }
  }
  // The global sequence number is unique, so the merge is a strict total
  // order regardless of per-ring wrap state.
  std::sort(merged.begin(), merged.end(),
            [](const FlightEvent& l, const FlightEvent& r) {
              return l.seq < r.seq;
            });
  return merged;
}

}  // namespace vcl::obs
