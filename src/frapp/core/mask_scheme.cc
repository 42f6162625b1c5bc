#include "frapp/core/mask_scheme.h"

#include <algorithm>
#include <cmath>

#include "frapp/common/parallel.h"
#include "frapp/core/seeded_chunking.h"
#include "frapp/mining/kernels.h"

namespace frapp {
namespace core {

namespace {

/// Writes rows [begin, end) of `in` into the same rows of `out`, each bit
/// flipped with probability q, where threshold = BernoulliThreshold(q). The
/// flips are exactly the draws of the per-bit loop
///   for each row, for each bit b: if (rng.NextBernoulli(q)) flip bit b
/// in the same order: one bulk kernel call writes them as a bit stream, each
/// row takes its num_bits-wide slice of it, and `rng` ends where the loop
/// would have left it.
void FlipRows(const data::BooleanTable& in, size_t begin, size_t end,
              uint64_t threshold, random::Pcg64& rng, data::BooleanTable* out) {
  const size_t bits = in.num_bits();
  const size_t n = (end - begin) * bits;
  // One spare word: a row's slice reads the word after the one it starts in.
  std::vector<uint64_t> stream(n / 64 + 2, 0);
  mining::ActiveKernels().bernoulli_bits(rng.state(), rng.increment(),
                                         threshold, n, stream.data());
  rng.Advance(n);
  for (size_t i = begin, pos = 0; i < end; ++i, pos += bits) {
    const size_t w = pos / 64;
    const unsigned o = pos % 64;
    // (x << 1) << (63 - o) is x << (64 - o), and 0 when o is 0; SetRowBits
    // drops the bits past the row's width.
    const uint64_t flips =
        (stream[w] >> o) | ((stream[w + 1] << 1) << (63 - o));
    out->SetRowBits(i, in.RowBits(i) ^ flips);
  }
}

}  // namespace

StatusOr<MaskScheme> MaskScheme::Create(double p) {
  if (!(p > 0.5) || !(p < 1.0)) {
    return Status::InvalidArgument("MASK requires keep probability p in (0.5, 1)");
  }
  return MaskScheme(p);
}

StatusOr<MaskScheme> MaskScheme::CalibrateForGamma(double gamma,
                                                   size_t num_attributes) {
  if (!(gamma > 1.0)) return Status::InvalidArgument("gamma must exceed 1");
  if (num_attributes == 0) {
    return Status::InvalidArgument("need at least one attribute");
  }
  const double t =
      std::pow(gamma, 1.0 / (2.0 * static_cast<double>(num_attributes)));
  return Create(t / (1.0 + t));
}

double MaskScheme::RecordAmplification(size_t num_attributes) const {
  return std::pow(p_ / (1.0 - p_), 2.0 * static_cast<double>(num_attributes));
}

double MaskScheme::ConditionNumberForLength(size_t itemset_length) const {
  return std::pow(1.0 / (2.0 * p_ - 1.0), static_cast<double>(itemset_length));
}

StatusOr<data::BooleanTable> MaskScheme::Perturb(const data::BooleanTable& table,
                                                 random::Pcg64& rng) const {
  FRAPP_ASSIGN_OR_RETURN(data::BooleanTable out,
                         data::BooleanTable::CreateEmpty(table.num_bits()));
  const size_t len = table.num_rows();
  out.AppendZeroRows(len);
  const uint64_t threshold = random::Pcg64::BernoulliThreshold(1.0 - p_);
  // Blocks only bound the flip stream's size; the draws run on one stream.
  for (size_t begin = 0; begin < len; begin += internal::kPerturbChunkRows) {
    FlipRows(table, begin, std::min(len, begin + internal::kPerturbChunkRows),
             threshold, rng, &out);
  }
  return out;
}

StatusOr<data::BooleanTable> MaskScheme::PerturbSeeded(
    const data::BooleanTable& table, uint64_t seed, size_t num_threads) const {
  return PerturbShardSeeded(table, /*global_begin=*/0, seed, num_threads);
}

StatusOr<data::BooleanTable> MaskScheme::PerturbShardSeeded(
    const data::BooleanTable& onehot, size_t global_begin, uint64_t seed,
    size_t num_threads) const {
  if (global_begin % internal::kPerturbChunkRows != 0) {
    return Status::InvalidArgument(
        "shard does not start on a seeded chunk boundary");
  }
  FRAPP_ASSIGN_OR_RETURN(data::BooleanTable out,
                         data::BooleanTable::CreateEmpty(onehot.num_bits()));
  const size_t len = onehot.num_rows();
  out.AppendZeroRows(len);
  const uint64_t threshold = random::Pcg64::BernoulliThreshold(1.0 - p_);
  internal::ForEachSeededChunk(
      len, global_begin, seed, num_threads,
      [&](size_t begin, size_t end, random::Pcg64& rng) {
        FlipRows(onehot, begin, end, threshold, rng, &out);
      });
  return out;
}

StatusOr<double> MaskScheme::EstimateItemsetSupport(
    const data::BooleanTable& perturbed,
    const std::vector<size_t>& bit_positions) const {
  const size_t k = bit_positions.size();
  if (k == 0) return Status::InvalidArgument("empty itemset");
  if (k > 20) return Status::InvalidArgument("itemset too long for 2^k counting");
  for (size_t pos : bit_positions) {
    if (pos >= perturbed.num_bits()) {
      return Status::OutOfRange("bit position out of range");
    }
  }

  // Count all 2^k observed patterns on the itemset's bit positions.
  const size_t patterns = 1ull << k;
  std::vector<double> counts(patterns, 0.0);
  for (size_t i = 0; i < perturbed.num_rows(); ++i) {
    const uint64_t row = perturbed.RowBits(i);
    size_t idx = 0;
    for (size_t b = 0; b < k; ++b) {
      idx |= static_cast<size_t>((row >> bit_positions[b]) & 1u) << b;
    }
    counts[idx] += 1.0;
  }
  return ReconstructFromPatternCounts(std::move(counts), perturbed.num_rows());
}

StatusOr<double> MaskScheme::ReconstructFromPatternCounts(
    std::vector<double> counts, size_t num_rows) const {
  const size_t patterns = counts.size();
  size_t k = 0;
  while ((1ull << k) < patterns) ++k;
  if ((1ull << k) != patterns || patterns == 0) {
    return Status::InvalidArgument("pattern counts must have 2^k entries");
  }

  // Invert the flip channel one bit-axis at a time. The per-bit matrix is
  // [[p, 1-p], [1-p, p]] with inverse 1/(2p-1) [[p, -(1-p)], [-(1-p), p]].
  const double q = 1.0 - p_;
  const double inv_det = 1.0 / (2.0 * p_ - 1.0);
  for (size_t axis = 0; axis < k; ++axis) {
    const size_t stride = 1ull << axis;
    for (size_t base = 0; base < patterns; base += stride * 2) {
      for (size_t offset = 0; offset < stride; ++offset) {
        const size_t i0 = base + offset;
        const size_t i1 = i0 + stride;
        const double a = counts[i0];
        const double b = counts[i1];
        counts[i0] = inv_det * (p_ * a - q * b);
        counts[i1] = inv_det * (-q * a + p_ * b);
      }
    }
  }

  const double n = static_cast<double>(num_rows);
  if (n == 0.0) return 0.0;
  return counts[patterns - 1] / n;
}

StatusOr<double> MaskSupportEstimator::EstimateSupport(
    const mining::Itemset& itemset) {
  if (itemset.empty()) return Status::InvalidArgument("empty itemset");
  if (itemset.size() > data::BooleanVerticalIndex::kMaxPatternLength) {
    return Status::InvalidArgument("itemset too long for 2^k counting");
  }
  // An empty stream has no bits to resolve against; every support is 0.
  if (source_->num_rows() == 0) return 0.0;
  std::vector<size_t> positions;
  positions.reserve(itemset.size());
  for (const mining::Item& item : itemset.items()) {
    const size_t pos = layout_.BitPosition(item.attribute, item.category);
    if (pos >= source_->num_bits()) {
      return Status::OutOfRange("bit position out of range");
    }
    positions.push_back(pos);
  }
  FRAPP_ASSIGN_OR_RETURN(const std::vector<int64_t> pattern_counts,
                         source_->PatternCounts(positions));
  std::vector<double> counts(pattern_counts.begin(), pattern_counts.end());
  return scheme_.ReconstructFromPatternCounts(std::move(counts),
                                              source_->num_rows());
}

StatusOr<std::vector<double>> MaskSupportEstimator::EstimateSupports(
    const std::vector<mining::Itemset>& itemsets) {
  std::vector<double> supports(itemsets.size(), 0.0);
  std::vector<std::vector<size_t>> candidates;
  candidates.reserve(itemsets.size());
  for (const mining::Itemset& itemset : itemsets) {
    if (itemset.empty()) return Status::InvalidArgument("empty itemset");
    if (itemset.size() > data::BooleanVerticalIndex::kMaxPatternLength) {
      return Status::InvalidArgument("itemset too long for 2^k counting");
    }
    if (source_->num_rows() == 0) continue;  // every support stays 0
    std::vector<size_t> positions;
    positions.reserve(itemset.size());
    for (const mining::Item& item : itemset.items()) {
      const size_t pos = layout_.BitPosition(item.attribute, item.category);
      if (pos >= source_->num_bits()) {
        return Status::OutOfRange("bit position out of range");
      }
      positions.push_back(pos);
    }
    candidates.push_back(std::move(positions));
  }
  if (candidates.empty()) return supports;
  FRAPP_ASSIGN_OR_RETURN(const std::vector<std::vector<int64_t>> pattern_counts,
                         source_->PatternCountsBatch(candidates));
  for (size_t c = 0; c < pattern_counts.size(); ++c) {
    std::vector<double> counts(pattern_counts[c].begin(),
                               pattern_counts[c].end());
    FRAPP_ASSIGN_OR_RETURN(
        supports[c], scheme_.ReconstructFromPatternCounts(
                         std::move(counts), source_->num_rows()));
  }
  return supports;
}

}  // namespace core
}  // namespace frapp
