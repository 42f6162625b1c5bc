#include "frapp/random/rng.h"

#include <cmath>

namespace frapp {
namespace random {

Pcg64::Pcg64(uint64_t seed, uint64_t stream) {
  increment_ = ((static_cast<unsigned __int128>(stream) << 1) | 1u);
  state_ = 0;
  Next();
  state_ += (static_cast<unsigned __int128>(seed) << 64) | (seed * 0x9e3779b97f4a7c15ULL);
  Next();
}

void Pcg64::JumpCoefficients(uint64_t n, unsigned __int128 increment,
                             unsigned __int128* mult,
                             unsigned __int128* plus) {
  unsigned __int128 acc_mult = 1, acc_plus = 0;
  unsigned __int128 cur_mult = kMultiplier, cur_plus = increment;
  for (; n > 0; n >>= 1) {
    if (n & 1u) {
      acc_mult *= cur_mult;
      acc_plus = acc_plus * cur_mult + cur_plus;
    }
    cur_plus = (cur_mult + 1) * cur_plus;
    cur_mult *= cur_mult;
  }
  *mult = acc_mult;
  *plus = acc_plus;
}

void Pcg64::Advance(uint64_t n) {
  unsigned __int128 mult, plus;
  JumpCoefficients(n, increment_, &mult, &plus);
  state_ = mult * state_ + plus;
}

uint64_t Pcg64::BernoulliThreshold(double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return uint64_t{1} << 53;
  return static_cast<uint64_t>(std::ceil(std::ldexp(p, 53)));
}

Pcg64 Pcg64::Split() {
  // A fresh generator seeded from two outputs of this one; distinct stream
  // constants guarantee different sequences even under seed collision.
  const uint64_t seed = Next();
  const uint64_t stream = Next() | 1u;
  return Pcg64(seed, stream);
}

}  // namespace random
}  // namespace frapp
