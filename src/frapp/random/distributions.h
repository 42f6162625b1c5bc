// Distribution helpers on top of Pcg64: CDF-scan discrete sampling (the
// paper's naive Section-5 algorithm), uniform subset selection, binomial,
// and the randomization-parameter distributions used by RAN-GD (Section 4).

#ifndef FRAPP_RANDOM_DISTRIBUTIONS_H_
#define FRAPP_RANDOM_DISTRIBUTIONS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iosfwd>
#include <vector>

#include "frapp/common/check.h"
#include "frapp/common/statusor.h"
#include "frapp/random/rng.h"

namespace frapp {
namespace random {

/// Samples from {0..n-1} with the given (not necessarily normalized) weights
/// by a linear CDF scan — the straightforward algorithm of paper Section 5,
/// O(n) per draw. Kept as a test oracle and for one-shot draws.
size_t SampleDiscreteLinear(const std::vector<double>& weights, Pcg64& rng);

/// Draws a uniformly random k-subset of {0..n-1} (Floyd's algorithm, O(k)
/// expected). Result is in ascending order.
std::vector<size_t> SampleSubset(size_t n, size_t k, Pcg64& rng);

/// Binomial(n, p) by inversion for small n, else by direct trials.
size_t SampleBinomial(size_t n, double p, Pcg64& rng);

/// Distribution family for the randomized perturbation parameter `r` of the
/// randomized gamma-diagonal matrix (paper Section 4 uses Uniform[-alpha,
/// alpha]; the framework allows any zero-mean distribution).
enum class RandomizationKind {
  kUniform,            ///< U[-alpha, alpha] (the paper's choice)
  kTwoPoint,           ///< +alpha or -alpha with probability 1/2 each
  kTruncatedGaussian,  ///< N(0, (alpha/2)^2) truncated to [-alpha, alpha]
};

/// Draws r with E[r] = 0 and support [-alpha, alpha] from the chosen family.
/// `Source` is Pcg64 or another UniformDraws source (RAN-GD's seeded chunk
/// loop draws through a block cursor of the chunk stream).
template <typename Source>
double SampleRandomizationParameter(RandomizationKind kind, double alpha,
                                    Source& rng) {
  FRAPP_CHECK_GE(alpha, 0.0);
  if (alpha == 0.0) return 0.0;
  switch (kind) {
    case RandomizationKind::kUniform:
      return rng.NextDouble(-alpha, alpha);
    case RandomizationKind::kTwoPoint:
      return rng.NextBernoulli(0.5) ? alpha : -alpha;
    case RandomizationKind::kTruncatedGaussian: {
      // Box-Muller with rejection outside [-alpha, alpha].
      const double sigma = alpha / 2.0;
      for (int attempt = 0; attempt < 64; ++attempt) {
        const double u1 = std::max(rng.NextDouble(), 1e-300);
        const double u2 = rng.NextDouble();
        const double z = std::sqrt(-2.0 * std::log(u1)) *
                         std::cos(2.0 * M_PI * u2) * sigma;
        if (z >= -alpha && z <= alpha) return z;
      }
      return 0.0;  // Astronomically unlikely; keep the zero-mean property.
    }
  }
  return 0.0;
}

/// Name for reports ("uniform", "two-point", "trunc-gaussian").
const char* RandomizationKindName(RandomizationKind kind);

/// Prints RandomizationKindName, so parameterised test names read
/// ".../uniform" instead of a raw byte dump (GoogleTest finds it by ADL).
void PrintTo(RandomizationKind kind, std::ostream* os);

}  // namespace random
}  // namespace frapp

#endif  // FRAPP_RANDOM_DISTRIBUTIONS_H_
