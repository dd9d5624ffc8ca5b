// The event vocabulary (DESIGN.md §6, §12): every event any subsystem
// records is declared here, once, as one row of VCL_OBS_EVENTS that becomes
// a constexpr EventKind — its name, its category, and whether the
// always-on flight ring keeps it. Call sites hand
// an EventKind to obs::Recorder (recorder.h) and never decide retention or
// spell a name; the recorder routes on the kind's flags and never compares
// strings.
//
// Naming rule: an event's category is its name prefix ("storage.put" is a
// storage event, "lease.expire" a lease event), so a trace category mask
// selects exactly the names it appears to. The rule is checked at compile
// time below.
//
// Each row's comment lists the fields its call sites pass (at most
// kMaxFields numeric {key, value} pairs). Span kinds are opened and closed
// with Recorder::begin_span / end_span; their begin and end field sets are
// separated by " / ".
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>

namespace vcl::obs {

enum class Category : std::uint8_t {
  kSim, kNet, kCloud, kTask, kFault, kStorage,
  kDag, kDetector, kLease, kQuorum, kAuth, kAttack,
};
inline constexpr std::array<const char*, 12> kCategoryNames = {
    "sim", "net",      "cloud", "task",   "fault", "storage",
    "dag", "detector", "lease", "quorum", "auth",  "attack"};
inline constexpr std::size_t kCategoryCount = kCategoryNames.size();

[[nodiscard]] constexpr const char* to_string(Category c) {
  return kCategoryNames[static_cast<std::size_t>(c)];
}

[[nodiscard]] constexpr std::uint32_t category_bit(Category c) {
  return 1u << static_cast<std::uint8_t>(c);
}
inline constexpr std::uint32_t kAllCategories = (1u << kCategoryCount) - 1;

// One named numeric payload. Keys are string literals (they must outlive
// every sink — this keeps recording allocation-free).
struct Field {
  const char* key;
  double value;
};
inline constexpr std::size_t kMaxFields = 4;

// Causal context stamped on a traced entity (a task at submission) and
// propagated through everything done on its behalf: broker dispatch, the
// net::Message that carries it, worker execution, retries and recovery.
// `trace_id` names the causal tree; `span_id` the innermost live span (the
// parent for children begun under this context). Zero ids mean "untraced".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] bool valid() const { return trace_id != 0; }
};

// Outcome codes carried on a root span's end event ("outcome" field);
// fields are numeric-only, so the terminal state is encoded, not spelled.
inline constexpr double kOutcomeCompleted = 0.0;
inline constexpr double kOutcomeExpired = 1.0;
inline constexpr double kOutcomeFailed = 2.0;

struct EventKind {
  const char* name;
  Category cat;
  bool ring;  // the always-on flight ring keeps it
};

// The vocabulary, declared once: each X(identifier, name, category, ring)
// row expands to ev::<identifier> below and to one entry of kVocabulary.
// clang-format off
#define VCL_OBS_EVENTS(X) \
  /* sim */ \
  X(kSimStart, "sim.start", kSim, kTraceOnly)                    /* vehicles */ \
  /* net — every unicast carries the sender's trace context */ \
  X(kNetTx, "net.tx", kNet, kTraceOnly)                          /* src, dst, bytes */ \
  X(kNetDrop, "net.drop", kNet, kTraceOnly)                      /* dst, reason (1 gone, 2 range, 3 loss), dist */ \
  X(kNetRx, "net.rx", kNet, kTraceOnly)                          /* dst, delay, bytes */ \
  X(kNetBroadcast, "net.broadcast", kNet, kTraceOnly)            /* src, bytes */ \
  /* cloud — membership and broker churn */ \
  X(kCloudMemberJoin, "cloud.member.join", kCloud, kTraceOnly)   /* worker, [claimed], members */ \
  X(kCloudMemberLeave, "cloud.member.leave", kCloud, kTraceOnly) /* worker, members */ \
  X(kCloudMemberRevoked, "cloud.member.revoked", kCloud, kTraceOnly) /* worker, members */ \
  X(kCloudBrokerChange, "cloud.broker.change", kCloud, kTraceOnly) /* from, to */ \
  X(kCloudCkpt, "cloud.ckpt", kCloud, kTraceOnly)                /* task, progress */ \
  /* task — lifecycle instants, the root span and its contiguous legs */ \
  X(kTaskSubmit, "task.submit", kTask, kTraceOnly)               /* task, work, deadline */ \
  X(kTaskDispatch, "task.dispatch", kTask, kTraceOnly)           /* task, worker, progress */ \
  X(kTaskRetry, "task.retry", kTask, kTraceOnly)                 /* task, attempt, kind (1 dispatch, 2 result) */ \
  X(kTaskReplica, "task.replica", kTask, kTraceOnly)             /* task, worker */ \
  X(kTaskMigrate, "task.migrate", kTask, kTraceOnly)             /* task, to, progress */ \
  X(kTaskComplete, "task.complete", kTask, kRing)                /* task, worker, latency */ \
  X(kTaskExpire, "task.expire", kTask, kRing)                    /* task, worker (0 = queued) */ \
  X(kTaskLife, "task.life", kTask, kTraceOnly)                   /* span: task, work, deadline / outcome */ \
  X(kTaskLegQueue, "task.leg.queue", kTask, kTraceOnly)          /* span */ \
  X(kTaskLegDispatch, "task.leg.dispatch", kTask, kTraceOnly)    /* span: worker / [crashed] */ \
  X(kTaskLegExec, "task.leg.exec", kTask, kTraceOnly)            /* span: worker, input_s / [crashed] */ \
  X(kTaskLegResult, "task.leg.result", kTask, kTraceOnly)        /* span */ \
  X(kTaskLegRecover, "task.leg.recover", kTask, kTraceOnly)      /* span: worker */ \
  X(kTaskLegMigrate, "task.leg.migrate", kTask, kTraceOnly)      /* span: to */ \
  /* detector */ \
  X(kDetectorEvict, "detector.evict", kDetector, kRing)          /* worker, crashed, [latency] */ \
  /* fault — injected causes */ \
  X(kFaultCrash, "fault.crash", kFault, kRing)                   /* vehicle */ \
  X(kFaultBrokerCrash, "fault.broker.crash", kFault, kRing)      /* vehicle */ \
  X(kFaultRsuOutage, "fault.rsu.outage", kFault, kRing)          /* rsu, repair_after */ \
  X(kFaultRsuRepair, "fault.rsu.repair", kFault, kRing)          /* rsu */ \
  X(kFaultBlackoutStart, "fault.blackout.start", kFault, kRing)  /* x, y, radius, duration */ \
  X(kFaultBlackoutEnd, "fault.blackout.end", kFault, kRing)      /* token */ \
  X(kFaultWindow, "fault.window", kFault, kTraceOnly)            /* start, end, radius */ \
  X(kFaultSybilJoin, "fault.sybil.join", kFault, kRing)          /* attack_tag, group */ \
  X(kFaultRevoke, "fault.revoke", kFault, kRing)                 /* attack_tag, group */ \
  X(kFaultCrlDeliver, "fault.crl.deliver", kFault, kRing)        /* attack_tag, group */ \
  X(kFaultReplayInject, "fault.replay.inject", kFault, kRing)    /* attack_tag, group */ \
  /* storage — op spans over the op's virtual timeline, replica sets, repair */ \
  X(kStorageCreate, "storage.create", kStorage, kTraceOnly)      /* object, replicas */ \
  X(kStoragePut, "storage.put", kStorage, kTraceOnly)            /* span: object, client, version, replicas / acked, replicas */ \
  X(kStorageGet, "storage.get", kStorage, kTraceOnly)            /* span: object, client, replicas / ok, degraded, responses */ \
  X(kStorageLegAttempt, "storage.leg.attempt", kStorage, kTraceOnly) /* span: attempt / [backoff] */ \
  X(kStorageReplicaWrite, "storage.replica.write", kStorage, kTraceOnly) /* holder, version */ \
  X(kStorageReplicaRead, "storage.replica.read", kStorage, kTraceOnly) /* holder, version */ \
  X(kStorageWriteAck, "storage.write.ack", kStorage, kTraceOnly) /* object, version, client, replicas */ \
  X(kStorageRepair, "storage.repair", kStorage, kTraceOnly)      /* span: object, replicas / copies, freshened, regranted, pruned */ \
  X(kStorageRepairReplica, "storage.repair.replica", kStorage, kTraceOnly) /* holder, version */ \
  X(kStorageRepairCopy, "storage.repair.copy", kStorage, kTraceOnly) /* object, from, to, version */ \
  X(kStorageRepairPrune, "storage.repair.prune", kStorage, kTraceOnly) /* object, holder */ \
  /* lease */ \
  X(kLeaseExpire, "lease.expire", kLease, kRing)                 /* object, holder */ \
  X(kLeaseRegrant, "lease.regrant", kLease, kTraceOnly)          /* object, holder */ \
  /* quorum — degraded or failed storage quorums */ \
  X(kQuorumWriteFailed, "quorum.write.failed", kQuorum, kRing)   /* object, client, replicas */ \
  X(kQuorumReadFailed, "quorum.read.failed", kQuorum, kRing)     /* object, client */ \
  X(kQuorumReadDegraded, "quorum.read.degraded", kQuorum, kRing) /* object, client, responses, version */ \
  /* dag */ \
  X(kDagRun, "dag.run", kDag, kTraceOnly)                        /* span: graph, nodes, work / outcome, succeeded */ \
  X(kDagEdge, "dag.edge", kDag, kTraceOnly)                      /* from, to, mb */ \
  X(kDagNode, "dag.node", kDag, kTraceOnly)                      /* node, task, attempt */ \
  X(kDagBackup, "dag.backup", kDag, kRing)                       /* graph, node */ \
  X(kDagGraphFail, "dag.graph.fail", kDag, kRing)                /* graph, succeeded */ \
  /* auth — revocation-aware admission decisions */ \
  X(kAuthRevoke, "auth.revoke", kAuth, kRing)                    /* vehicle */ \
  X(kAuthCrlDeliver, "auth.crl.deliver", kAuth, kRing)           /* vehicle, horizon */ \
  X(kAuthArrivalReject, "auth.arrival.reject", kAuth, kRing)     /* vehicle */ \
  X(kAuthEvict, "auth.evict", kAuth, kRing)                      /* vehicle */ \
  /* attack — outcomes of adversarial claims */ \
  X(kAttackSybilAdmit, "attack.sybil.admit", kAttack, kRing)     /* vehicle, fabricated */ \
  X(kAttackSybilQuarantine, "attack.sybil.quarantine", kAttack, kRing) /* vehicle */ \
  X(kAttackClaimAdmit, "attack.claim.admit", kAttack, kRing)     /* vehicle */ \
  X(kAttackClaimReject, "attack.claim.reject", kAttack, kRing)   /* vehicle */ \
  X(kAttackReplayAccept, "attack.replay.accept", kAttack, kRing) /* nonce */ \
  X(kAttackReplayReject, "attack.replay.reject", kAttack, kRing) /* nonce, age */
// clang-format on

namespace ev {

inline constexpr bool kRing = true;
inline constexpr bool kTraceOnly = false;

#define VCL_OBS_DECLARE_EVENT(id, name, cat, ring) \
  inline constexpr EventKind id{name, Category::cat, ring};
VCL_OBS_EVENTS(VCL_OBS_DECLARE_EVENT)
#undef VCL_OBS_DECLARE_EVENT

}  // namespace ev

// Every kind, for tests and tooling that walk the vocabulary. Generated
// from the same list as the ev:: names, so no kind can be left out.
inline constexpr std::array kVocabulary{
#define VCL_OBS_LIST_EVENT(id, name, cat, ring) &ev::id,
    VCL_OBS_EVENTS(VCL_OBS_LIST_EVENT)
#undef VCL_OBS_LIST_EVENT
};

// True when `name` is "<category>.<rest>".
[[nodiscard]] constexpr bool has_category_prefix(std::string_view name,
                                                 Category cat) {
  const std::string_view prefix = to_string(cat);
  return name.size() > prefix.size() && name.starts_with(prefix) &&
         name[prefix.size()] == '.';
}

static_assert(std::all_of(kVocabulary.begin(), kVocabulary.end(),
                          [](const EventKind* k) {
                            return has_category_prefix(k->name, k->cat);
                          }),
              "an event's category must be its name prefix");

}  // namespace vcl::obs
