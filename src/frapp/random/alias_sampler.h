// Walker/Vose alias method: O(1) sampling from a fixed discrete distribution
// after O(n) setup. Used by the naive CDF perturber's fast path and by the
// synthetic data generators, where the same distribution is sampled N times.

#ifndef FRAPP_RANDOM_ALIAS_SAMPLER_H_
#define FRAPP_RANDOM_ALIAS_SAMPLER_H_

#include <cstddef>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/random/rng.h"

namespace frapp {
namespace random {

/// Immutable sampler over {0, ..., n-1} with probabilities proportional to
/// the weights supplied at construction.
class AliasSampler {
 public:
  /// Builds the alias table. Weights must be non-negative, finite, with a
  /// positive sum.
  static StatusOr<AliasSampler> Create(const std::vector<double>& weights);

  /// Draws one index: a uniform bucket, then that bucket's acceptance coin.
  /// `Source` is Pcg64 or another UniformDraws source of the same stream.
  template <typename Source>
  size_t Sample(Source& rng) const {
    const size_t bucket =
        static_cast<size_t>(rng.NextBounded(probability_.size()));
    // Both outcomes loaded up front so the choice compiles to a select: the
    // coin is a coin, and a branch on it mispredicts often.
    const size_t alias = alias_[bucket];
    return rng.NextDouble() < probability_[bucket] ? bucket : alias;
  }

  size_t size() const { return probability_.size(); }

  /// Normalized probability of outcome i (for tests).
  double Probability(size_t i) const { return normalized_[i]; }

 private:
  AliasSampler(std::vector<double> probability, std::vector<size_t> alias,
               std::vector<double> normalized)
      : probability_(std::move(probability)),
        alias_(std::move(alias)),
        normalized_(std::move(normalized)) {}

  std::vector<double> probability_;  // acceptance probability per bucket
  std::vector<size_t> alias_;        // fallback outcome per bucket
  std::vector<double> normalized_;   // original distribution, normalized
};

}  // namespace random
}  // namespace frapp

#endif  // FRAPP_RANDOM_ALIAS_SAMPLER_H_
