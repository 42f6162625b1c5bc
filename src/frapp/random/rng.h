// Deterministic pseudo-random substrate.
//
// Every randomized component in the library (perturbers, synthetic data
// generators, randomized matrices) takes an explicit Rng so that experiments
// are reproducible from a single seed. The generator is PCG64 (PCG-XSL-RR
// 128/64), which is fast, statistically strong and tiny. The per-draw
// methods are defined inline below: the perturbers make several draws per
// record, and an out-of-line call per draw costs as much as the draw.

#ifndef FRAPP_RANDOM_RNG_H_
#define FRAPP_RANDOM_RNG_H_

#include <cstdint>

#include "frapp/common/check.h"

namespace frapp {
namespace random {

/// PCG-XSL-RR 128/64 generator. Satisfies the C++ UniformRandomBitGenerator
/// requirements so it also composes with <random> if ever needed.
class Pcg64 {
 public:
  using result_type = uint64_t;

  /// Seeds the generator; distinct (seed, stream) pairs give independent
  /// sequences.
  explicit Pcg64(uint64_t seed = 0x853c49e6748fea9bULL, uint64_t stream = 1);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// The LCG multiplier: each step is state = state * kMultiplier + increment.
  static constexpr unsigned __int128 kMultiplier =
      (static_cast<unsigned __int128>(2549297995355413924ULL) << 64) |
      4865540595714422341ULL;

  /// PCG-XSL-RR output function: the 64 bits Next() returns once it has
  /// stepped to `state`.
  static uint64_t Output(unsigned __int128 state) {
    const uint64_t xored = static_cast<uint64_t>(state >> 64) ^
                           static_cast<uint64_t>(state);
    const unsigned rot = static_cast<unsigned>(state >> 122);
    return (xored >> rot) | (xored << ((-rot) & 63));
  }

  /// Next 64 random bits.
  uint64_t Next() {
    state_ = state_ * kMultiplier + increment_;
    return Output(state_);
  }
  result_type operator()() { return Next(); }

  /// The raw LCG state and (odd) increment, for bulk kernels that run the
  /// stream outside this object. Such a caller puts the generator where its
  /// draws left it with Advance().
  unsigned __int128 state() const { return state_; }
  unsigned __int128 increment() const { return increment_; }

  /// Coefficients of an n-step jump: n calls of Next() take state s to
  /// (*mult) * s + (*plus) mod 2^128, with
  /// *mult = kMultiplier^n and *plus = increment * (1 + M + ... + M^(n-1)).
  /// O(log n) (Brown, "Random Number Generation with Arbitrary Strides").
  static void JumpCoefficients(uint64_t n, unsigned __int128 increment,
                               unsigned __int128* mult,
                               unsigned __int128* plus);

  /// Skips n draws in O(log n): the generator then stands exactly where n
  /// calls of Next() would have left it.
  void Advance(uint64_t n);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    // 53 high bits -> [0, 1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Uniform integer in [0, bound), bias-free (Lemire rejection).
  uint64_t NextBounded(uint64_t bound) {
    FRAPP_CHECK_GT(bound, 0u);
    // Lemire's multiply-shift with rejection for exact uniformity.
    unsigned __int128 product = static_cast<unsigned __int128>(Next()) * bound;
    uint64_t low = static_cast<uint64_t>(product);
    if (low < bound) {
      const uint64_t threshold = (-bound) % bound;
      while (low < threshold) {
        product = static_cast<unsigned __int128>(Next()) * bound;
        low = static_cast<uint64_t>(product);
      }
    }
    return static_cast<uint64_t>(product >> 64);
  }

  /// Bernoulli trial with success probability p.
  bool NextBernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Integer form of NextBernoulli(p): for every draw x of Next(),
  /// NextBernoulli(p) is true exactly when (x >> 11) < BernoulliThreshold(p).
  /// NextDouble() is (x >> 11) * 2^-53, exact in double precision, so
  /// NextDouble() < p iff (x >> 11) < p * 2^53 iff (x >> 11) < ceil(p * 2^53).
  /// The result lies in [0, 2^53]: NaN and p <= 0 give 0 (never), p >= 1
  /// gives 2^53 (always). The two forms consume the same draws only for p in
  /// (0, 1): outside it NextBernoulli draws nothing.
  static uint64_t BernoulliThreshold(double p);

  /// Derives an independent child generator (for per-worker streams).
  Pcg64 Split();

 private:
  unsigned __int128 state_;
  unsigned __int128 increment_;
};

}  // namespace random
}  // namespace frapp

#endif  // FRAPP_RANDOM_RNG_H_
