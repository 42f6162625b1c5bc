// The gamma-diagonal perturbation matrix (paper Section 3) and its efficient
// perturbation algorithm (paper Section 5).
//
// For privacy level gamma, the matrix
//     A = x * [gamma on the diagonal, 1 elsewhere],  x = 1 / (gamma + n - 1)
// saturates the amplification constraint (every row ratio is exactly gamma)
// and PROVABLY minimizes the condition number among symmetric
// column-stochastic matrices satisfying the constraint:
//     cond(A) = (gamma + n - 1) / (gamma - 1).
//
// Perturbation does not enumerate the joint domain: the record is perturbed
// column by column (paper Eq. 26). While every previous column has matched
// the original record, column j re-matches with probability q_j / q_{j-1}
// where q_j = d + (n / n_j - 1) o is the probability mass of records
// agreeing with the original on the first j columns (d/o = diagonal and
// off-diagonal entries, n_j = prefix domain size). After the first mismatch
// all remaining columns are uniform. Cost: O(M) per record, versus O(n) for
// the naive CDF scan — this is the Section 5 complexity claim.

#ifndef FRAPP_CORE_GAMMA_DIAGONAL_H_
#define FRAPP_CORE_GAMMA_DIAGONAL_H_

#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/core/perturbation_matrix.h"
#include "frapp/data/sharded_table.h"
#include "frapp/data/table.h"
#include "frapp/linalg/uniform_mixture.h"
#include "frapp/random/alias_sampler.h"
#include "frapp/random/rng.h"

namespace frapp {
namespace core {

/// The gamma-diagonal matrix over a domain of size n.
class GammaDiagonalMatrix : public PerturbationMatrix {
 public:
  /// Requires gamma > 1 (gamma = 1 is the uninformative uniform matrix with
  /// infinite condition number) and n >= 2.
  static StatusOr<GammaDiagonalMatrix> Create(double gamma, uint64_t n);

  double gamma() const { return gamma_; }

  /// x = 1 / (gamma + n - 1).
  double x() const { return x_; }

  /// Diagonal entry gamma * x.
  double DiagonalValue() const { return gamma_ * x_; }

  /// Off-diagonal entry x.
  double OffDiagonalValue() const { return x_; }

  // PerturbationMatrix interface.
  uint64_t domain_size() const override { return n_; }
  double Entry(uint64_t v, uint64_t u) const override {
    return v == u ? DiagonalValue() : OffDiagonalValue();
  }
  /// Closed form (gamma + n - 1) / (gamma - 1); never materializes.
  StatusOr<double> ConditionNumber() const override;
  /// Exactly gamma: the matrix saturates the privacy constraint.
  double Amplification() const override { return gamma_; }
  std::string Name() const override { return "gamma-diagonal"; }

  /// Structured linalg view (a I + b J) for solves.
  linalg::UniformMixtureMatrix ToUniformMixture() const {
    return linalg::UniformMixtureMatrix::FromDiagonalOffDiagonal(
        static_cast<size_t>(n_), DiagonalValue(), OffDiagonalValue());
  }

 private:
  GammaDiagonalMatrix(double gamma, uint64_t n)
      : gamma_(gamma), n_(n), x_(1.0 / (gamma + static_cast<double>(n) - 1.0)) {}

  double gamma_;
  uint64_t n_;
  double x_;
};

/// Lower bound (gamma + n - 1) / (gamma - 1) on the condition number of ANY
/// symmetric column-stochastic matrix with amplification <= gamma (paper
/// Section 3's optimality theorem). The gamma-diagonal matrix attains it.
double MinimumConditionNumberBound(double gamma, uint64_t n);

/// Perturbs one record under a gamma-diagonal-FORM matrix with diagonal `d`
/// and off-diagonal `o` over the product domain given by `cardinalities`
/// (d + (n-1) o must equal 1). Exposed so that the randomized mechanism can
/// reuse it with per-record (d, o). Appends the perturbed values to `out`.
/// This per-column Bernoulli chain is the reference implementation (and test
/// oracle) for the batched divergence-column kernel below.
void PerturbRecordDiagonalForm(const std::vector<uint8_t>& record,
                               const std::vector<size_t>& cardinalities,
                               uint64_t domain_size, double d, double o,
                               random::Pcg64& rng, std::vector<uint8_t>* out);

/// Precomputed, schema-only machinery for gamma-diagonal-form perturbation.
///
/// The sequential Eq. 26 algorithm draws one Bernoulli per column; but the
/// chain has a closed form. With q_j = d + (n / n_j - 1) o the probability
/// that the perturbed record FIRST diverges from the original at column j
/// telescopes to q_{j-1} - q_j (q_{-1} = d + (n-1) o = 1), and the record
/// matches on every column with probability q_{M-1} = d. So a perturbation
/// is: sample the divergence column j* once, copy columns 0..j*-1 from the
/// input, draw one of the card_j - 1 mismatching values at j*, and fill the
/// suffix uniformly. The q_j depend only on the schema and (d, o), never on
/// the record — for a fixed matrix the divergence distribution is tabulated
/// into an AliasSampler and sampled in O(1); for per-record (d, o) (RAN-GD)
/// it is inverted from a single uniform with a short threshold scan.
class GammaPerturbPlan {
 public:
  /// Requires every cardinality >= 1 and domain_size = prod(cardinalities).
  static StatusOr<GammaPerturbPlan> Create(std::vector<size_t> cardinalities,
                                           uint64_t domain_size);

  size_t num_attributes() const { return cardinalities_.size(); }
  const std::vector<size_t>& cardinalities() const { return cardinalities_; }

  /// Divergence-column weights for a fixed (d, o): index j < M is "first
  /// divergence at column j", index M is "full match". Feed to AliasSampler.
  std::vector<double> DivergenceWeights(double d, double o) const;

  /// Divergence column for per-record (d, o): one uniform draw inverted
  /// against the q_j thresholds (O(expected scan) ~ 1 for realistic gamma).
  /// Returns num_attributes() for a full match. `Source`, here and in
  /// FillRow, is random::Pcg64 or a random::UniformDraws source of the same
  /// stream (internal::BlockDrawCursor in the seeded chunk loops).
  template <typename Source>
  size_t SampleDivergenceColumn(double d, double o, Source& rng) const {
    // The q_j decrease in j, so the divergence column is the first j whose
    // threshold q_j falls at or below one uniform draw. Realistic matrices
    // put most mass on column 0 (q_0 << 1), so the scan is short.
    const double u = rng.NextDouble();
    const size_t m = cardinalities_.size();
    for (size_t j = 0; j < m; ++j) {
      if (u >= d + suffix_minus_one_[j] * o) return j;
    }
    return m;
  }

  /// Writes the perturbation of row `i` into the output columns, given the
  /// sampled divergence column: matched prefix copy, one mismatching draw at
  /// the divergence column, uniform suffix.
  template <typename Source>
  void FillRow(size_t divergence_column, const uint8_t* const* in_cols,
               uint8_t* const* out_cols, size_t i, Source& rng) const {
    const size_t m = cardinalities_.size();
    for (size_t j = 0; j < divergence_column; ++j) out_cols[j][i] = in_cols[j][i];
    if (divergence_column >= m) return;
    // All card-1 mismatching values are equally likely (never sampled for
    // cardinality-1 columns: their divergence probability is exactly 0).
    const size_t card = cardinalities_[divergence_column];
    size_t value = static_cast<size_t>(rng.NextBounded(card - 1));
    if (value >= in_cols[divergence_column][i]) ++value;
    out_cols[divergence_column][i] = static_cast<uint8_t>(value);
    for (size_t j = divergence_column + 1; j < m; ++j) {
      out_cols[j][i] = static_cast<uint8_t>(rng.NextBounded(cardinalities_[j]));
    }
  }

 private:
  explicit GammaPerturbPlan(std::vector<size_t> cardinalities,
                            std::vector<double> suffix_minus_one)
      : cardinalities_(std::move(cardinalities)),
        suffix_minus_one_(std::move(suffix_minus_one)) {}

  std::vector<size_t> cardinalities_;
  std::vector<double> suffix_minus_one_;  // n / n_j - 1 per column j
};

/// Table-level perturber using the deterministic gamma-diagonal matrix and
/// the O(1)-divergence-sampling kernel (alias method over the precomputed
/// per-column match probabilities).
class GammaDiagonalPerturber {
 public:
  /// Builds for `schema` at privacy level `gamma`.
  static StatusOr<GammaDiagonalPerturber> Create(const data::CategoricalSchema& schema,
                                                 double gamma);

  /// Perturbs every record of `table` (whose schema must match), consuming
  /// randomness from `rng` sequentially.
  StatusOr<data::CategoricalTable> Perturb(const data::CategoricalTable& table,
                                           random::Pcg64& rng) const;

  /// Deterministic, optionally multi-threaded perturbation: rows are split
  /// into fixed-size chunks, chunk c draws from its own Pcg64 stream derived
  /// from (seed, c), and threads only schedule chunks — so the output is
  /// bit-identical for a fixed seed at EVERY thread count (0 = hardware
  /// concurrency).
  StatusOr<data::CategoricalTable> PerturbSeeded(const data::CategoricalTable& table,
                                                 uint64_t seed,
                                                 size_t num_threads = 1) const;

  /// Perturbs only rows [range.begin, range.end) of `table` into a fresh
  /// table of range-size rows, drawing randomness from the GLOBAL chunk
  /// streams of the seeded contract — so concatenating the outputs of any
  /// chunk-aligned partition reproduces PerturbSeeded(table, seed) bit for
  /// bit. `range` must satisfy the seeded-chunk alignment (begin on a chunk
  /// boundary, end on one or at the table end).
  StatusOr<data::CategoricalTable> PerturbShardSeeded(
      const data::CategoricalTable& table, const data::RowRange& range,
      uint64_t seed, size_t num_threads = 1) const;

  /// Streaming form: perturbs the rows of `shard` (a window whose buffer
  /// need not be the whole table) with the chunk streams of its GLOBAL
  /// position — the primitive behind both the in-memory overload above and
  /// the pipeline's CSV/generator ingest, which never materialize a full
  /// table.
  StatusOr<data::CategoricalTable> PerturbShardSeeded(
      const data::ShardView& shard, uint64_t seed, size_t num_threads = 1) const;

  const GammaDiagonalMatrix& matrix() const { return matrix_; }
  const GammaPerturbPlan& plan() const { return plan_; }

 private:
  GammaDiagonalPerturber(GammaDiagonalMatrix matrix, GammaPerturbPlan plan,
                         random::AliasSampler divergence)
      : matrix_(std::move(matrix)),
        plan_(std::move(plan)),
        divergence_(std::move(divergence)) {}

  GammaDiagonalMatrix matrix_;
  GammaPerturbPlan plan_;
  random::AliasSampler divergence_;  // over {column 0..M-1, full match}
};

}  // namespace core
}  // namespace frapp

#endif  // FRAPP_CORE_GAMMA_DIAGONAL_H_
