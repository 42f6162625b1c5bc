// The randomized gamma-diagonal mechanism RAN-GD (paper Section 4).
//
// Instead of one fixed matrix, every client perturbs with a private draw of
// the matrix family
//     diagonal  = gamma * x + r,
//     off-diag  = x - r / (n - 1),      r ~ zero-mean on [-alpha, alpha],
// which keeps columns stochastic for every realization. The miner knows only
// the DISTRIBUTION of the matrix, so worst-case posterior computations that
// were exact for DET-GD become ranges (privacy gain); reconstruction uses
// the expected matrix E[A~] = the deterministic gamma-diagonal matrix, and
// the paper's variance analysis (Section 4.2) shows the accuracy loss is
// marginal — randomizing the success probabilities actually shrinks the
// Poisson-binomial variance term while adding a (A-bar - A) X term.

#ifndef FRAPP_CORE_RANDOMIZED_GAMMA_H_
#define FRAPP_CORE_RANDOMIZED_GAMMA_H_

#include "frapp/common/statusor.h"
#include "frapp/core/gamma_diagonal.h"
#include "frapp/core/privacy.h"
#include "frapp/data/sharded_table.h"
#include "frapp/data/table.h"
#include "frapp/random/distributions.h"
#include "frapp/random/rng.h"

namespace frapp {
namespace core {

/// Table-level perturber drawing a fresh matrix realization per record
/// (= per client: each record belongs to a distinct client in the paper's
/// B2C model).
class RandomizedGammaPerturber {
 public:
  /// `alpha` is the randomization half-width, constrained to
  /// [0, gamma * x] as in the paper's Figure 3 sweep; `kind` selects the
  /// randomization distribution (the paper evaluates uniform).
  static StatusOr<RandomizedGammaPerturber> Create(
      const data::CategoricalSchema& schema, double gamma, double alpha,
      random::RandomizationKind kind = random::RandomizationKind::kUniform);

  /// Perturbs every record with an independent matrix realization, consuming
  /// randomness from `rng` sequentially. Per record, the first-divergence
  /// column is inverted from a single uniform against the precomputed
  /// per-column thresholds (see GammaPerturbPlan) — no per-column Bernoulli
  /// chain, no per-row temporaries.
  StatusOr<data::CategoricalTable> Perturb(const data::CategoricalTable& table,
                                           random::Pcg64& rng) const;

  /// Deterministic, optionally multi-threaded variant: output depends only
  /// on (table, seed), never on the thread count (0 = hardware concurrency).
  StatusOr<data::CategoricalTable> PerturbSeeded(const data::CategoricalTable& table,
                                                 uint64_t seed,
                                                 size_t num_threads = 1) const;

  /// Perturbs only rows [range.begin, range.end) of `table` with the GLOBAL
  /// chunk streams of the seeded contract; concatenating the outputs of any
  /// chunk-aligned partition reproduces PerturbSeeded(table, seed) bit for
  /// bit. `range` must satisfy the seeded-chunk alignment.
  StatusOr<data::CategoricalTable> PerturbShardSeeded(
      const data::CategoricalTable& table, const data::RowRange& range,
      uint64_t seed, size_t num_threads = 1) const;

  /// Streaming form over a ShardView (buffer + global position); see
  /// GammaDiagonalPerturber::PerturbShardSeeded.
  StatusOr<data::CategoricalTable> PerturbShardSeeded(
      const data::ShardView& shard, uint64_t seed, size_t num_threads = 1) const;

  /// The expected matrix (what the miner reconstructs with).
  const GammaDiagonalMatrix& expected_matrix() const { return matrix_; }

  double alpha() const { return alpha_; }
  random::RandomizationKind kind() const { return kind_; }

  /// Posterior probability window for a property with prior `prior`
  /// (paper Section 4.1 / Figure 3a).
  StatusOr<PosteriorRange> PosteriorWindow(double prior) const {
    return RandomizedPosteriorRange(prior, matrix_.gamma(), matrix_.domain_size(),
                                    alpha_);
  }

 private:
  RandomizedGammaPerturber(GammaDiagonalMatrix matrix, GammaPerturbPlan plan,
                           double alpha, random::RandomizationKind kind)
      : matrix_(std::move(matrix)),
        plan_(std::move(plan)),
        alpha_(alpha),
        kind_(kind) {}

  /// One record: draw this client's matrix realization, then divergence
  /// column + fill. `Source` is random::Pcg64 or the seeded chunk loop's
  /// internal::BlockDrawCursor over the same stream.
  template <typename Source>
  void PerturbRow(const uint8_t* const* in_cols, uint8_t* const* out_cols,
                  size_t i, Source& rng) const;

  GammaDiagonalMatrix matrix_;
  GammaPerturbPlan plan_;
  double alpha_;
  random::RandomizationKind kind_;
};

}  // namespace core
}  // namespace frapp

#endif  // FRAPP_CORE_RANDOMIZED_GAMMA_H_
