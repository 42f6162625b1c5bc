#include "frapp/core/randomized_gamma.h"

#include <algorithm>

#include "frapp/common/parallel.h"
#include "frapp/core/seeded_chunking.h"

namespace frapp {
namespace core {

using internal::ColumnPointers;

StatusOr<RandomizedGammaPerturber> RandomizedGammaPerturber::Create(
    const data::CategoricalSchema& schema, double gamma, double alpha,
    random::RandomizationKind kind) {
  FRAPP_ASSIGN_OR_RETURN(GammaDiagonalMatrix matrix,
                         GammaDiagonalMatrix::Create(gamma, schema.DomainSize()));
  if (alpha < 0.0 || alpha > matrix.DiagonalValue() + 1e-15) {
    return Status::InvalidArgument(
        "alpha must lie in [0, gamma*x]; gamma*x = " +
        std::to_string(matrix.DiagonalValue()));
  }
  // Realizations must keep entries non-negative: off-diagonal
  // x - r/(n-1) >= 0 requires alpha <= (n-1) x, which holds automatically
  // whenever gamma <= n - 1; guard the unusual tiny-domain case.
  const double n = static_cast<double>(matrix.domain_size());
  if (alpha > (n - 1.0) * matrix.x() + 1e-15) {
    return Status::InvalidArgument(
        "alpha would make off-diagonal entries negative for this domain");
  }
  std::vector<size_t> cardinalities(schema.num_attributes());
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    cardinalities[j] = schema.Cardinality(j);
  }
  FRAPP_ASSIGN_OR_RETURN(
      GammaPerturbPlan plan,
      GammaPerturbPlan::Create(std::move(cardinalities), schema.DomainSize()));
  return RandomizedGammaPerturber(std::move(matrix), std::move(plan), alpha,
                                  kind);
}

template <typename Source>
void RandomizedGammaPerturber::PerturbRow(const uint8_t* const* in_cols,
                                          uint8_t* const* out_cols, size_t i,
                                          Source& rng) const {
  // This client's private matrix realization: E[diagonal] = gamma x.
  const double r = random::SampleRandomizationParameter(kind_, alpha_, rng);
  const double d = matrix_.DiagonalValue() + r;
  const double o =
      matrix_.OffDiagonalValue() -
      r / (static_cast<double>(matrix_.domain_size()) - 1.0);
  plan_.FillRow(plan_.SampleDivergenceColumn(d, o, rng), in_cols, out_cols, i,
                rng);
}

StatusOr<data::CategoricalTable> RandomizedGammaPerturber::Perturb(
    const data::CategoricalTable& table, random::Pcg64& rng) const {
  if (table.num_attributes() != plan_.num_attributes()) {
    return Status::InvalidArgument("table schema does not match perturber");
  }
  FRAPP_ASSIGN_OR_RETURN(data::CategoricalTable out,
                         data::CategoricalTable::Create(table.schema()));
  out.AppendZeroRows(table.num_rows());
  ColumnPointers cols(table, &out);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    PerturbRow(cols.in.data(), cols.out.data(), i, rng);
  }
  return out;
}

StatusOr<data::CategoricalTable> RandomizedGammaPerturber::PerturbSeeded(
    const data::CategoricalTable& table, uint64_t seed,
    size_t num_threads) const {
  return PerturbShardSeeded(table, data::RowRange{0, table.num_rows()}, seed,
                            num_threads);
}

StatusOr<data::CategoricalTable> RandomizedGammaPerturber::PerturbShardSeeded(
    const data::CategoricalTable& table, const data::RowRange& range,
    uint64_t seed, size_t num_threads) const {
  FRAPP_RETURN_IF_ERROR(internal::ValidateShardRange(range, table.num_rows()));
  return PerturbShardSeeded(data::ShardView{&table, range, range.begin}, seed,
                            num_threads);
}

StatusOr<data::CategoricalTable> RandomizedGammaPerturber::PerturbShardSeeded(
    const data::ShardView& shard, uint64_t seed, size_t num_threads) const {
  FRAPP_RETURN_IF_ERROR(internal::ValidateShardView(shard));
  const data::CategoricalTable& table = *shard.rows;
  if (table.num_attributes() != plan_.num_attributes()) {
    return Status::InvalidArgument("table schema does not match perturber");
  }
  FRAPP_ASSIGN_OR_RETURN(data::CategoricalTable out,
                         data::CategoricalTable::Create(table.schema()));
  out.AppendZeroRows(shard.size());
  ColumnPointers cols(table, &out, shard.local.begin);
  internal::ForEachSeededChunk(
      shard.size(), shard.global_begin, seed, num_threads,
      [&](size_t begin, size_t end, random::Pcg64& rng) {
        internal::BlockDrawCursor draws(rng);
        for (size_t i = begin; i < end; ++i) {
          PerturbRow(cols.in.data(), cols.out.data(), i, draws);
        }
      });
  return out;
}

}  // namespace core
}  // namespace frapp
