#include "frapp/core/gamma_diagonal.h"

#include <algorithm>

#include "frapp/common/parallel.h"
#include "frapp/core/seeded_chunking.h"

namespace frapp {
namespace core {

StatusOr<GammaDiagonalMatrix> GammaDiagonalMatrix::Create(double gamma, uint64_t n) {
  if (!(gamma > 1.0)) {
    return Status::InvalidArgument("gamma-diagonal matrix requires gamma > 1");
  }
  if (n < 2) {
    return Status::InvalidArgument("gamma-diagonal matrix requires domain size >= 2");
  }
  return GammaDiagonalMatrix(gamma, n);
}

StatusOr<double> GammaDiagonalMatrix::ConditionNumber() const {
  return MinimumConditionNumberBound(gamma_, n_);
}

double MinimumConditionNumberBound(double gamma, uint64_t n) {
  return (gamma + static_cast<double>(n) - 1.0) / (gamma - 1.0);
}

void PerturbRecordDiagonalForm(const std::vector<uint8_t>& record,
                               const std::vector<size_t>& cardinalities,
                               uint64_t domain_size, double d, double o,
                               random::Pcg64& rng, std::vector<uint8_t>* out) {
  const size_t num_attributes = cardinalities.size();
  out->resize(num_attributes);

  // q_prev = probability mass of records matching the original on all
  // columns processed so far; q_0 = d + (n - 1) o = 1 for a stochastic
  // matrix, but we track it exactly to stay correct for any (d, o).
  double q_prev = d + (static_cast<double>(domain_size) - 1.0) * o;
  uint64_t suffix_domain = domain_size;  // n / n_j: records per matched prefix
  bool matched = true;

  for (size_t j = 0; j < num_attributes; ++j) {
    const size_t card = cardinalities[j];
    if (!matched) {
      // Off-diagonal mass is uniform across records, so once the prefix has
      // diverged every remaining column is uniform on its domain.
      (*out)[j] = static_cast<uint8_t>(rng.NextBounded(card));
      continue;
    }
    suffix_domain /= card;
    // Mass of records matching the original through column j.
    const double q_j = d + (static_cast<double>(suffix_domain) - 1.0) * o;
    const double p_match = q_j / q_prev;
    if (rng.NextBernoulli(p_match)) {
      (*out)[j] = record[j];
      q_prev = q_j;
    } else {
      // All card-1 mismatching values are equally likely.
      size_t value = static_cast<size_t>(rng.NextBounded(card - 1));
      if (value >= record[j]) ++value;
      (*out)[j] = static_cast<uint8_t>(value);
      matched = false;
    }
  }
}

StatusOr<GammaPerturbPlan> GammaPerturbPlan::Create(
    std::vector<size_t> cardinalities, uint64_t domain_size) {
  uint64_t product = 1;
  for (size_t card : cardinalities) {
    if (card < 1) return Status::InvalidArgument("empty attribute domain");
    product *= static_cast<uint64_t>(card);
  }
  if (product != domain_size) {
    return Status::InvalidArgument("domain size disagrees with cardinalities");
  }
  // suffix_minus_one_[j] = n / n_j - 1: records per matched prefix through
  // column j, minus the original itself.
  std::vector<double> suffix_minus_one(cardinalities.size());
  uint64_t suffix = domain_size;
  for (size_t j = 0; j < cardinalities.size(); ++j) {
    suffix /= cardinalities[j];
    suffix_minus_one[j] = static_cast<double>(suffix) - 1.0;
  }
  return GammaPerturbPlan(std::move(cardinalities), std::move(suffix_minus_one));
}

std::vector<double> GammaPerturbPlan::DivergenceWeights(double d, double o) const {
  const size_t m = cardinalities_.size();
  std::vector<double> weights(m + 1);
  double q_prev = 1.0;  // q_{-1} = d + (n - 1) o for a stochastic matrix
  for (size_t j = 0; j < m; ++j) {
    const double q_j = d + suffix_minus_one_[j] * o;
    weights[j] = q_prev - q_j;  // P(first divergence at column j)
    q_prev = q_j;
  }
  weights[m] = q_prev;  // q_{M-1} = d: full match
  return weights;
}

StatusOr<GammaDiagonalPerturber> GammaDiagonalPerturber::Create(
    const data::CategoricalSchema& schema, double gamma) {
  FRAPP_ASSIGN_OR_RETURN(GammaDiagonalMatrix matrix,
                         GammaDiagonalMatrix::Create(gamma, schema.DomainSize()));
  std::vector<size_t> cardinalities(schema.num_attributes());
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    cardinalities[j] = schema.Cardinality(j);
  }
  FRAPP_ASSIGN_OR_RETURN(
      GammaPerturbPlan plan,
      GammaPerturbPlan::Create(std::move(cardinalities), schema.DomainSize()));
  FRAPP_ASSIGN_OR_RETURN(
      random::AliasSampler divergence,
      random::AliasSampler::Create(plan.DivergenceWeights(
          matrix.DiagonalValue(), matrix.OffDiagonalValue())));
  return GammaDiagonalPerturber(std::move(matrix), std::move(plan),
                                std::move(divergence));
}

using internal::ColumnPointers;

StatusOr<data::CategoricalTable> GammaDiagonalPerturber::Perturb(
    const data::CategoricalTable& table, random::Pcg64& rng) const {
  if (table.num_attributes() != plan_.num_attributes()) {
    return Status::InvalidArgument("table schema does not match perturber");
  }
  FRAPP_ASSIGN_OR_RETURN(data::CategoricalTable out,
                         data::CategoricalTable::Create(table.schema()));
  out.AppendZeroRows(table.num_rows());
  ColumnPointers cols(table, &out);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    plan_.FillRow(divergence_.Sample(rng), cols.in.data(), cols.out.data(), i, rng);
  }
  return out;
}

StatusOr<data::CategoricalTable> GammaDiagonalPerturber::PerturbSeeded(
    const data::CategoricalTable& table, uint64_t seed,
    size_t num_threads) const {
  return PerturbShardSeeded(table, data::RowRange{0, table.num_rows()}, seed,
                            num_threads);
}

StatusOr<data::CategoricalTable> GammaDiagonalPerturber::PerturbShardSeeded(
    const data::CategoricalTable& table, const data::RowRange& range,
    uint64_t seed, size_t num_threads) const {
  FRAPP_RETURN_IF_ERROR(internal::ValidateShardRange(range, table.num_rows()));
  return PerturbShardSeeded(data::ShardView{&table, range, range.begin}, seed,
                            num_threads);
}

StatusOr<data::CategoricalTable> GammaDiagonalPerturber::PerturbShardSeeded(
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
          plan_.FillRow(divergence_.Sample(draws), cols.in.data(),
                        cols.out.data(), i, draws);
        }
      });
  return out;
}

}  // namespace core
}  // namespace frapp
