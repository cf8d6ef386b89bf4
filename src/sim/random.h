// Deterministic random number generation for the simulator.
//
// xoshiro256++ seeded via SplitMix64. Every stochastic component takes an
// Rng (usually forked from one experiment master seed), so a scenario's
// entire artifact set is a pure function of its config — invariant 9 in
// DESIGN.md.
#pragma once

#include <array>
#include <cstdint>

#include "sim/time.h"

namespace ntier::sim {

// A deterministic generator stream: xoshiro256++ state plus the
// distribution samplers every model component draws from.
class Rng {
 public:
  // Seeds the stream (SplitMix64 expansion of `seed` into the state).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Derives an independent stream; children of distinct indices from the
  // same parent are decorrelated (SplitMix64 over seed ^ golden*index).
  Rng fork(std::uint64_t stream_index);

  // Next raw 64-bit draw; all samplers below consume these.
  std::uint64_t next_u64();
  // Uniform in [0, 1).
  double uniform();
  // Uniform in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n);
  // Exponential with the given mean (> 0).
  double exponential(double mean);
  // Standard normal via Marsaglia polar method.
  double normal(double mean, double stddev);
  // Bernoulli.
  bool chance(double p);

  // Duration helpers (never negative, rounded to µs).
  Duration exp_duration(Duration mean);

 private:
  std::array<std::uint64_t, 4> s_;
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace ntier::sim
