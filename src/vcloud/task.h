// Task model and workload generation for vehicular cloud computing.
//
// Lifecycle: kPending -> kRunning -> kCompleted, with three detours.
// A *graceful* worker departure (membership drops the worker while the
// vehicle is still reachable) moves the task to kMigrating while its
// encrypted checkpoint travels to a successor (handover.h). A worker
// *crash* (no handover opportunity; detected only via missed heartbeats)
// moves it to kCrashRecovering: progress rolls back to the last periodic
// checkpoint the broker holds — zero when checkpointing is off — and the
// task re-queues for dispatch. Tasks past their deadline end kExpired;
// tasks with no recovery path end kFailed.
#pragma once

#include <vector>

#include "obs/event.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/time.h"

namespace vcl::vcloud {

enum class TaskState : std::uint8_t {
  kPending,          // queued at the broker
  kRunning,
  kMigrating,        // checkpoint in flight to a new worker (graceful path)
  kCrashRecovering,  // worker crashed/declared dead; re-queued from the last
                     // broker-held checkpoint (crash path)
  kCompleted,
  kFailed,           // worker lost, no handover possible
  kExpired,          // missed its deadline
};

const char* to_string(TaskState s);

struct Task {
  TaskId id;
  double work = 10.0;       // total work units
  double input_mb = 1.0;    // shipped to the worker at dispatch
  double output_mb = 0.1;   // shipped back on completion
  SimTime created = 0.0;
  SimTime deadline = 0.0;   // absolute; 0 = none

  TaskState state = TaskState::kPending;
  VehicleId worker;         // current assignee (when running/migrating)
  double progress = 0.0;    // completed work units
  // Work units persisted at the broker by periodic checkpointing — the
  // crash-survivable floor progress rolls back to (0 = nothing persisted).
  double checkpoint_progress = 0.0;
  SimTime run_started = 0.0;
  int migrations = 0;
  SimTime completed_at = 0.0;

  // Causal tracing (DESIGN.md §8): stamped at submission when tracing is
  // on, zero otherwise. `trace` holds {trace_id, root span id}; the cloud
  // keeps exactly one `task.leg.*` child span open at any time so the legs
  // partition the task's lifetime (queue / dispatch / exec / recover / ...).
  obs::TraceContext trace;
  std::uint64_t open_leg = 0;  // span id of the open leg (0 = none)
  const obs::EventKind* open_leg_kind = nullptr;

  [[nodiscard]] double remaining() const { return work - progress; }
  [[nodiscard]] bool terminal() const {
    return state == TaskState::kCompleted || state == TaskState::kFailed ||
           state == TaskState::kExpired;
  }
};

struct WorkloadConfig {
  double mean_work = 20.0;        // exponential
  double mean_input_mb = 2.0;
  double mean_output_mb = 0.5;
  SimTime relative_deadline = 60.0;  // 0 = no deadlines
};

// Draws task specs (ids are assigned by the cloud on submit).
class WorkloadGenerator {
 public:
  WorkloadGenerator(WorkloadConfig config, Rng rng)
      : config_(config), rng_(rng) {}

  [[nodiscard]] Task next(SimTime now);
  [[nodiscard]] std::vector<Task> batch(SimTime now, std::size_t n);

 private:
  WorkloadConfig config_;
  Rng rng_;
};

}  // namespace vcl::vcloud
