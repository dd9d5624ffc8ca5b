#include "vcloud/admission.h"

namespace vcl::vcloud {

void AdmissionControl::note_revoked(VehicleId v, SimTime now) {
  ++stats_.revocations;
  obs::record(rec_, obs::ev::kAuthRevoke, now,
              {"vehicle", static_cast<double>(v.value())});
}

void AdmissionControl::deliver_crl(VehicleId v, SimTime visible_at,
                                   SimTime horizon_at, SimTime now) {
  crl_.revoke(v.value());
  deliveries_[v.value()] = Delivery{visible_at, horizon_at};
  ++stats_.crl_deliveries;
  obs::record(rec_, obs::ev::kAuthCrlDeliver, now,
              {"vehicle", static_cast<double>(v.value())},
              {"horizon", horizon_at});
}

void AdmissionControl::lift_revocation(VehicleId v) {
  deliveries_.erase(v.value());
}

bool AdmissionControl::revoked_visible(VehicleId v, SimTime now) const {
  // Bloom fast path first: the common "not revoked" answer never touches
  // the timing map (and a superseded entry erased from the map overrides a
  // surviving Bloom positive — the filter is append-only).
  if (!crl_.is_revoked(v.value())) return false;
  const auto it = deliveries_.find(v.value());
  return it != deliveries_.end() && now >= it->second.visible_at;
}

SimTime AdmissionControl::revocation_horizon(VehicleId v) const {
  const auto it = deliveries_.find(v.value());
  return it == deliveries_.end() ? std::numeric_limits<double>::infinity()
                                 : it->second.horizon_at;
}

bool AdmissionControl::allow_arrival(VehicleId v, SimTime now) {
  if (!config_.defend) return true;
  if (!revoked_visible(v, now)) return true;
  ++stats_.arrivals_rejected;
  obs::record(rec_, obs::ev::kAuthArrivalReject, now,
              {"vehicle", static_cast<double>(v.value())});
  return false;
}

void AdmissionControl::note_evicted(VehicleId v, SimTime now) {
  ++stats_.revoked_evictions;
  obs::record(rec_, obs::ev::kAuthEvict, now,
              {"vehicle", static_cast<double>(v.value())});
}

AdmissionControl::ClaimOutcome AdmissionControl::offer_claim(VehicleId v,
                                                             bool fabricated,
                                                             SimTime now) {
  if (fabricated) ++stats_.sybil_claims;
  if (!config_.defend) {
    // Door wide open: the claim becomes a full member (the pollution the
    // E24 vulnerable baseline measures).
    admitted_claims_.insert(v.value());
    if (fabricated) ++stats_.sybil_admitted;
    obs::record(rec_, obs::ev::kAttackSybilAdmit, now,
                {"vehicle", static_cast<double>(v.value())},
                {"fabricated", fabricated ? 1.0 : 0.0});
    return ClaimOutcome::kAdmitted;
  }
  if (revoked_visible(v, now)) {
    obs::record(rec_, obs::ev::kAttackClaimReject, now,
                {"vehicle", static_cast<double>(v.value())});
    return ClaimOutcome::kRejected;
  }
  if (fabricated) {
    // Verification policy: an unverifiable identity may be admitted only
    // while the configured tolerance lasts; past it, quarantine — the pen
    // costs capacity, never correctness.
    if (unverified_admitted_ < config_.max_unverified_admissions) {
      ++unverified_admitted_;
      ++stats_.sybil_admitted;
      admitted_claims_.insert(v.value());
      obs::record(rec_, obs::ev::kAttackSybilAdmit, now,
                  {"vehicle", static_cast<double>(v.value())},
                  {"fabricated", 1.0});
      return ClaimOutcome::kAdmitted;
    }
    quarantine_.insert(v.value());
    ++stats_.sybil_quarantined;
    obs::record(rec_, obs::ev::kAttackSybilQuarantine, now,
                {"vehicle", static_cast<double>(v.value())});
    return ClaimOutcome::kQuarantined;
  }
  // A genuine identity re-presenting itself (e.g. a fresh join that passed
  // the freshness gate): admit.
  admitted_claims_.insert(v.value());
  obs::record(rec_, obs::ev::kAttackClaimAdmit, now,
              {"vehicle", static_cast<double>(v.value())});
  return ClaimOutcome::kAdmitted;
}

bool AdmissionControl::accept_replay(SimTime original_ts, std::uint64_t nonce,
                                     SimTime now) {
  ++stats_.replays_seen;
  if (!config_.defend) {
    ++stats_.replays_accepted;
    return true;
  }
  // Round-trip the real envelope: timestamp || nonce || (empty body), then
  // the checker's strict-staleness + remembered-nonce verdict.
  const crypto::Bytes payload =
      attack::make_fresh_payload(crypto::Bytes{}, original_ts, nonce);
  if (freshness_.accept(payload, now)) {
    ++stats_.replays_accepted;
    obs::record(rec_, obs::ev::kAttackReplayAccept, now,
                {"nonce", static_cast<double>(nonce)});
    return true;
  }
  ++stats_.replays_rejected;
  obs::record(rec_, obs::ev::kAttackReplayReject, now,
              {"nonce", static_cast<double>(nonce)},
              {"age", now - original_ts});
  return false;
}

}  // namespace vcl::vcloud
