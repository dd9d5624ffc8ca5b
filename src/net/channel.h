// Radio channel model for DSRC-class V2V/V2I links.
//
// Reception combines (1) a deterministic range cutoff, (2) log-distance path
// loss with log-normal shadowing mapped to a reception probability, and
// (3) a CSMA-style contention penalty that grows with local transmitter
// density. Per-hop delay is transmission time (size / data rate) plus a
// density-dependent channel-access backoff. This reproduces the phenomena
// the paper's challenges hinge on — lossy links, density collapse, hop
// latency — without a bit-level PHY (see DESIGN.md substitutions).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "geo/vec2.h"
#include "util/rng.h"
#include "util/time.h"

namespace vcl::net {

struct ChannelConfig {
  double max_range = 300.0;        // hard cutoff, meters (DSRC-class)
  double reference_range = 150.0;  // distance where loss starts to bite
  double path_loss_exponent = 2.7;
  double shadowing_sigma = 3.0;    // dB
  double data_rate_bps = 6e6;      // 802.11p nominal 6 Mbit/s
  SimTime slot_time = 50 * kMicroseconds;
  double contention_per_neighbor = 0.004;  // loss added per local transmitter
  double base_loss = 0.02;                 // irreducible packet error rate
};

struct ReceptionResult {
  bool received = false;
  SimTime delay = 0.0;  // valid when received
};

// PHY-level tallies, kept by the channel itself so observability reaches
// below Network's accounting (a drop here distinguishes radio loss from
// there being no handler). Registered as gauges by the telemetry layer.
struct ChannelCounters {
  std::uint64_t attempts = 0;
  std::uint64_t delivered = 0;
  std::uint64_t blackout_drops = 0;  // attempts with an endpoint blacked out
};

// Deterministic operation counts of the beacon rounds (DESIGN.md §4.8).
// Plain tallies, not gauges: exporting them would change every metrics file.
struct BeaconCounters {
  std::uint64_t pairs = 0;              // (transmitter, receiver) in range
  std::uint64_t draws = 0;              // engine draws for receptions
  std::uint64_t exact_evaluations = 0;  // reception_probability() calls
  std::uint64_t saturated_receivers = 0;  // pair loops skipped: every p is 0
};

// Per-receiver terms of a beacon round, from Channel::beacon_receiver().
struct BeaconReceiver {
  geo::Vec2 pos;
  std::size_t density = 0;
  double keep_c = 0.0;  // (1 - base_loss) * contention factor, unclamped
  double p_near = 0.0;  // p of every transmitter nearer than reference_range
  bool dark = false;    // inside a blackout: every p is 0
  bool saturated = false;  // contention factor 0: every p is 0
};

// A circular region where radio reception is dead (jamming, tunnel, urban
// canyon, post-disaster partition). While active, any transmission with an
// endpoint inside the region fails.
struct BlackoutRegion {
  geo::Vec2 center;
  double radius = 0.0;
};

class Channel {
 public:
  explicit Channel(ChannelConfig config = {});

  // Probability that a packet from `from` reaches `to` given `local_density`
  // concurrent transmitters in range (deterministic; no RNG).
  [[nodiscard]] double reception_probability(geo::Vec2 from, geo::Vec2 to,
                                             std::size_t local_density) const;

  // Samples one transmission attempt.
  [[nodiscard]] ReceptionResult attempt(geo::Vec2 from, geo::Vec2 to,
                                        std::size_t size_bytes,
                                        std::size_t local_density,
                                        Rng& rng) const;

  // The beacon round's sampler: the outcome and engine draws of
  // rng.bernoulli(reception_probability(from, rx.pos, rx.density)), where
  // `from_dark` and rx.dark say whether blacked_out() holds at either end.
  // A pair nearer than reference_range draws against rx.p_near; a farther
  // one first compares the draw with bounds on p from the distance table
  // and computes p only when the draw falls between them (DESIGN.md §4.8).
  [[nodiscard]] BeaconReceiver beacon_receiver(geo::Vec2 pos,
                                               std::size_t density,
                                               bool dark) const;
  bool beacon_heard(geo::Vec2 from, bool from_dark, const BeaconReceiver& rx,
                    Rng& rng, BeaconCounters& counters) const {
    if (from_dark || rx.dark) return false;
    const double d2 = (from - rx.pos).norm2();
    if (d2 < near2_) {
      counters.draws += makes_draw(rx.p_near) ? 1 : 0;
      return rng.bernoulli(rx.p_near);
    }
    if (!table_.empty()) {
      const double x = (d2 - ref2_) * bin_scale_;
      const std::size_t j = x >= static_cast<double>(kBins) ? kBins
                            : x > 0.0 ? static_cast<std::size_t>(x)
                                      : 0;
      const double hi = rx.keep_c * table_[j] * (1.0 + kRelMargin) + kAbsMargin;
      const double lo =
          rx.keep_c * table_[j + 3] * (1.0 - kRelMargin) - kAbsMargin;
      if (lo > 0.0 && hi < 1.0) {
        ++counters.draws;
        const double u = rng.canonical();
        if ((u >= lo) & (u < hi)) [[unlikely]] {
          ++counters.exact_evaluations;
          return u < reception_probability(from, rx.pos, rx.density);
        }
        return u < lo;
      }
    }
    ++counters.exact_evaluations;
    const double p = reception_probability(from, rx.pos, rx.density);
    counters.draws += makes_draw(p) ? 1 : 0;
    return rng.bernoulli(p);
  }
  // True when the distance table is built; without it beacon_heard()
  // computes p for every pair.
  [[nodiscard]] bool tabulated() const { return !table_.empty(); }

  // Deterministic per-hop latency (used for expectation-style accounting).
  [[nodiscard]] SimTime hop_delay(std::size_t size_bytes,
                                  std::size_t local_density) const;

  // Read-only: the distance table is built from it once.
  [[nodiscard]] const ChannelConfig& config() const { return config_; }

  // Radio blackout windows (fault injection): while any region covers
  // either endpoint, reception probability is forced to 0. Returns a token
  // for removal when the window ends.
  std::uint64_t add_blackout(BlackoutRegion region);
  void remove_blackout(std::uint64_t token);
  void clear_blackouts() { blackouts_.clear(); }
  [[nodiscard]] bool blacked_out(geo::Vec2 pos) const;
  [[nodiscard]] std::size_t blackout_count() const { return blackouts_.size(); }

  [[nodiscard]] const ChannelCounters& counters() const { return counters_; }

 private:
  // Table points, evenly spaced in d² over [reference², max²].
  static constexpr std::size_t kBins = 1024;
  // Widening of the table bounds: covers pow()'s and the products' ulps.
  static constexpr double kRelMargin = 1e-9;
  static constexpr double kAbsMargin = 1e-12;

  // Whether Rng::bernoulli(p) draws from the engine.
  static bool makes_draw(double p) { return !(p <= 0.0) && !(p >= 1.0); }
  // g(d): the factor p takes at distance d > reference_range, d <= max.
  [[nodiscard]] double distance_factor(double d) const;
  [[nodiscard]] double contention_factor(std::size_t local_density) const;

  ChannelConfig config_;
  // table_[i + 1] = g at d² = reference² + i·(max² − reference²)/kBins for
  // i in [0, kBins]; table_[0] = 1 and the last two entries are 0 (g and p
  // bounds outside the range). Empty when g is not known to be monotone.
  std::vector<double> table_;
  double near2_ = -1.0;  // d² below which d < reference_range for sure
  double ref2_ = 0.0;
  double bin_scale_ = 0.0;  // bins per m² of d²
  std::vector<std::pair<std::uint64_t, BlackoutRegion>> blackouts_;
  std::uint64_t next_blackout_token_ = 1;
  // attempt() is logically const (sampling does not change the model);
  // the tallies are bookkeeping on the side.
  mutable ChannelCounters counters_;
};

}  // namespace vcl::net
