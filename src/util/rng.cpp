#include "util/rng.h"

#include <algorithm>

namespace vcl {
namespace {

// SplitMix64 finalizer: decorrelates derived seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Rng Rng::fork(std::uint64_t salt) const {
  return Rng(mix(seed_ ^ mix(salt)));
}

double Rng::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::exponential(double rate) {
  return std::exponential_distribution<double>(rate)(engine_);
}

int Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  return std::poisson_distribution<int>(mean)(engine_);
}

std::size_t Rng::index(std::size_t n) {
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

}  // namespace vcl
