#include "sim/random.h"

#include <cmath>

namespace ntier::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& w : s_) w = splitmix64(x);
}

Rng Rng::fork(std::uint64_t stream_index) {
  // Mix the child index into fresh entropy drawn from this stream.
  std::uint64_t base = next_u64() ^ (stream_index * 0x9e3779b97f4a7c15ULL + 1);
  return Rng{base};
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  if (n == 0) return 0;
  // Rejection-free modulo is fine here: n is tiny relative to 2^64 in all
  // simulator uses (mix sizes, client counts), so bias is negligible.
  return next_u64() % n;
}

double Rng::exponential(double mean) {
  double u;
  do { u = uniform(); } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double m = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * m;
  have_spare_normal_ = true;
  return mean + stddev * u * m;
}

bool Rng::chance(double p) { return uniform() < p; }

Duration Rng::exp_duration(Duration mean) {
  return Duration::from_seconds(exponential(mean.to_seconds()));
}

}  // namespace ntier::sim
