#include "obs/recorder.h"

namespace vcl::obs {

void Recorder::record(const EventKind& kind, SimTime t, TraceContext ctx,
                      std::initializer_list<Field> fields) {
  if (kind.ring) flight_.record(t, kind, fields);
  if (tracing(kind.cat)) trace_->record(t, kind.cat, kind.name, ctx, fields);
}

}  // namespace vcl::obs
