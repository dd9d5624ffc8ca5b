// Deterministic random number generation.
//
// Every stochastic component draws from an `Rng` seeded from the scenario
// seed, so a scenario replays bit-identically. `fork()` derives independent
// child streams (e.g. one per vehicle) without correlated sequences.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace vcl {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  // Derives an independent child stream; `salt` distinguishes siblings.
  [[nodiscard]] Rng fork(std::uint64_t salt) const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  double normal(double mean, double stddev);
  double exponential(double rate);
  // True with probability p. Draw for draw the same as
  // std::bernoulli_distribution(p) on this engine: libstdc++ compares
  // generate_canonical<double, 53> (one 64-bit draw) against p. Inline
  // because the beacon round makes one call per vehicle pair.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return canonical() < p;
  }
  int poisson(double mean);

  // Uniform double in [0, 1) from one engine draw.
  double canonical() { return to_canonical(engine_()); }
  // The value std::generate_canonical<double, 53> returns for a 64-bit
  // engine that drew `bits`: bits / 2^64 rounded to double, with 1.0 (the
  // top 1024 values round up to it) clamped to the largest double below 1.
  // The two 32-bit halves scale exactly, so their sum rounds once, to the
  // same value as converting all 64 bits; unlike that conversion, it needs
  // no branch on the top bit, which is a coin flip.
  static constexpr double to_canonical(std::uint64_t bits) {
    const double scaled =
        static_cast<double>(static_cast<std::uint32_t>(bits >> 32)) * 0x1p-32 +
        static_cast<double>(static_cast<std::uint32_t>(bits)) * 0x1p-64;
    return std::min(scaled, 1.0 - 0x1p-53);
  }

  // Picks a uniformly random element index of a container of size n (n > 0).
  std::size_t index(std::size_t n);

  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[index(items.size())];
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    std::shuffle(items.begin(), items.end(), engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace vcl
