#include "net/channel.h"

#include <algorithm>
#include <cmath>

namespace vcl::net {

Channel::Channel(ChannelConfig config) : config_(config) {
  const double ref = config_.reference_range;
  const double max = config_.max_range;
  const double ref2 = ref * ref;
  const double max2 = max * max;
  const bool finite =
      std::isfinite(ref) && std::isfinite(max2) &&
      std::isfinite(config_.path_loss_exponent) &&
      std::isfinite(config_.shadowing_sigma) &&
      std::isfinite(config_.base_loss) &&
      std::isfinite(config_.contention_per_neighbor);
  // g is non-increasing in d only with a non-negative exponent and sigma,
  // and a bin must be far wider than the rounding of d² for a pair to land
  // within one bin of its true one. Otherwise every pair takes the exact
  // path.
  if (!finite || ref < 0.0 || !(max > ref) ||
      config_.path_loss_exponent < 0.0 || config_.shadowing_sigma < 0.0 ||
      !(max2 - ref2 >= 1e-6 * max2)) {
    return;
  }
  near2_ = ref2 * (1.0 - 1e-9);
  ref2_ = ref2;
  bin_scale_ = static_cast<double>(kBins) / (max2 - ref2);
  table_.assign(kBins + 4, 0.0);
  table_[0] = 1.0;
  for (std::size_t i = 0; i <= kBins; ++i) {
    const double d2 = ref2 + (max2 - ref2) * static_cast<double>(i) /
                                 static_cast<double>(kBins);
    table_[i + 1] = distance_factor(std::min(std::sqrt(d2), max));
  }
}

BeaconReceiver Channel::beacon_receiver(geo::Vec2 pos, std::size_t density,
                                        bool dark) const {
  BeaconReceiver rx;
  rx.pos = pos;
  rx.density = density;
  // The same expressions as reception_probability() at d <= reference.
  const double keep = 1.0 - config_.base_loss;
  const double contention = contention_factor(density);
  rx.keep_c = keep * contention;
  rx.p_near = std::clamp(keep * contention, 0.0, 1.0);
  rx.dark = dark;
  // keep is finite when the table is built, so with contention 0 every p
  // is ±0 and bernoulli() draws nothing.
  rx.saturated = tabulated() && contention <= 0.0;
  return rx;
}

std::uint64_t Channel::add_blackout(BlackoutRegion region) {
  const std::uint64_t token = next_blackout_token_++;
  blackouts_.emplace_back(token, region);
  return token;
}

void Channel::remove_blackout(std::uint64_t token) {
  std::erase_if(blackouts_,
                [token](const auto& entry) { return entry.first == token; });
}

bool Channel::blacked_out(geo::Vec2 pos) const {
  for (const auto& [token, region] : blackouts_) {
    if (geo::distance(pos, region.center) <= region.radius) return true;
  }
  return false;
}

double Channel::reception_probability(geo::Vec2 from, geo::Vec2 to,
                                      std::size_t local_density) const {
  const double d = geo::distance(from, to);
  if (d > config_.max_range) return 0.0;
  if (!blackouts_.empty() && (blacked_out(from) || blacked_out(to))) {
    return 0.0;
  }
  double p = 1.0 - config_.base_loss;
  if (d > config_.reference_range) p *= distance_factor(d);
  p *= contention_factor(local_density);
  return std::clamp(p, 0.0, 1.0);
}

double Channel::distance_factor(double d) const {
  // Log-distance fade: success decays with (d/ref)^(-alpha), smoothed so
  // p -> ~0 at the cutoff. Shadowing sigma widens the transition band.
  const double ratio =
      (d - config_.reference_range) /
      std::max(config_.max_range - config_.reference_range, 1.0);
  const double fade = std::pow(1.0 - ratio, config_.path_loss_exponent / 2.0);
  return std::clamp(fade + 0.02 * config_.shadowing_sigma * (1.0 - ratio),
                    0.0, 1.0);
}

double Channel::contention_factor(std::size_t local_density) const {
  // CSMA contention: every concurrent transmitter in range erodes success.
  return std::max(0.0, 1.0 - config_.contention_per_neighbor *
                                 static_cast<double>(local_density));
}

SimTime Channel::hop_delay(std::size_t size_bytes,
                           std::size_t local_density) const {
  const SimTime tx_time =
      static_cast<double>(size_bytes) * 8.0 / config_.data_rate_bps;
  // Expected backoff grows with contenders (simplified binary backoff).
  const SimTime backoff =
      config_.slot_time * (1.0 + static_cast<double>(local_density) * 0.5);
  return tx_time + backoff;
}

ReceptionResult Channel::attempt(geo::Vec2 from, geo::Vec2 to,
                                 std::size_t size_bytes,
                                 std::size_t local_density, Rng& rng) const {
  ReceptionResult r;
  ++counters_.attempts;
  if (!blackouts_.empty() && (blacked_out(from) || blacked_out(to))) {
    ++counters_.blackout_drops;
  }
  const double p = reception_probability(from, to, local_density);
  if (!rng.bernoulli(p)) return r;
  r.received = true;
  ++counters_.delivered;
  // Jitter the deterministic delay by up to one extra backoff round.
  r.delay = hop_delay(size_bytes, local_density) *
            rng.uniform(1.0, 1.5);
  return r;
}

}  // namespace vcl::net
