#include "frapp/random/distributions.h"

#include <algorithm>
#include <ostream>
#include <unordered_set>

#include "frapp/common/check.h"

namespace frapp {
namespace random {

size_t SampleDiscreteLinear(const std::vector<double>& weights, Pcg64& rng) {
  FRAPP_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += w;
  FRAPP_CHECK_GT(total, 0.0);
  double r = rng.NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  // Floating-point slack: the scan can fall off the end by a few ulps.
  return weights.size() - 1;
}

std::vector<size_t> SampleSubset(size_t n, size_t k, Pcg64& rng) {
  FRAPP_CHECK_LE(k, n);
  // Floyd's algorithm: for j = n-k..n-1 pick t in [0..j]; insert t unless
  // already present, else insert j.
  std::unordered_set<size_t> chosen;
  chosen.reserve(k * 2);
  for (size_t j = n - k; j < n; ++j) {
    const size_t t = static_cast<size_t>(rng.NextBounded(j + 1));
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  std::vector<size_t> out(chosen.begin(), chosen.end());
  std::sort(out.begin(), out.end());
  return out;
}

size_t SampleBinomial(size_t n, double p, Pcg64& rng) {
  if (p <= 0.0 || n == 0) return 0;
  if (p >= 1.0) return n;
  // The library's binomials are small (domain cardinalities); direct trials
  // are exact and fast enough.
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += rng.NextBernoulli(p) ? 1 : 0;
  return count;
}

const char* RandomizationKindName(RandomizationKind kind) {
  switch (kind) {
    case RandomizationKind::kUniform:
      return "uniform";
    case RandomizationKind::kTwoPoint:
      return "two-point";
    case RandomizationKind::kTruncatedGaussian:
      return "trunc-gaussian";
  }
  return "?";
}

void PrintTo(RandomizationKind kind, std::ostream* os) {
  *os << RandomizationKindName(kind);
}

}  // namespace random
}  // namespace frapp
