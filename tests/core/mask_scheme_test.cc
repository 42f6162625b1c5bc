#include "frapp/core/mask_scheme.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "frapp/core/seeded_chunking.h"
#include "frapp/data/census.h"
#include "frapp/linalg/condition.h"
#include "frapp/linalg/kronecker.h"
#include "frapp/mining/kernels.h"

namespace frapp {
namespace core {
namespace {

TEST(MaskSchemeTest, PaperCalibrationValues) {
  // Section 7: p = 0.5610 for CENSUS (M = 6) and 0.5524 for HEALTH (M = 7)
  // at gamma = 19.
  StatusOr<MaskScheme> census = MaskScheme::CalibrateForGamma(19.0, 6);
  ASSERT_TRUE(census.ok());
  EXPECT_NEAR(census->keep_probability(), 0.5610, 5e-4);

  StatusOr<MaskScheme> health = MaskScheme::CalibrateForGamma(19.0, 7);
  ASSERT_TRUE(health.ok());
  EXPECT_NEAR(health->keep_probability(), 0.5524, 5e-4);
}

TEST(MaskSchemeTest, CalibrationSaturatesGamma) {
  StatusOr<MaskScheme> s = MaskScheme::CalibrateForGamma(19.0, 6);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s->RecordAmplification(6), 19.0, 1e-9);
}

TEST(MaskSchemeTest, Validation) {
  EXPECT_FALSE(MaskScheme::Create(0.5).ok());
  EXPECT_FALSE(MaskScheme::Create(1.0).ok());
  EXPECT_FALSE(MaskScheme::Create(0.3).ok());
  EXPECT_TRUE(MaskScheme::Create(0.9).ok());
  EXPECT_FALSE(MaskScheme::CalibrateForGamma(0.9, 5).ok());
  EXPECT_FALSE(MaskScheme::CalibrateForGamma(19.0, 0).ok());
}

TEST(MaskSchemeTest, ConditionNumberGrowsExponentially) {
  StatusOr<MaskScheme> s = MaskScheme::Create(0.561);
  ASSERT_TRUE(s.ok());
  const double base = 1.0 / (2.0 * 0.561 - 1.0);  // ~8.2
  EXPECT_NEAR(s->ConditionNumberForLength(1), base, 1e-9);
  EXPECT_NEAR(s->ConditionNumberForLength(4), std::pow(base, 4.0), 1e-6);
  // The paper observes MASK condition numbers of order 1e5 at high lengths.
  EXPECT_GT(s->ConditionNumberForLength(6), 1e5);
}

TEST(MaskSchemeTest, ConditionNumberMatchesDenseTensorMatrix) {
  const double p = 0.7;
  StatusOr<MaskScheme> s = MaskScheme::Create(p);
  ASSERT_TRUE(s.ok());
  linalg::Matrix flip =
      linalg::Matrix::FromRows({{p, 1.0 - p}, {1.0 - p, p}});
  for (size_t k = 1; k <= 3; ++k) {
    std::vector<linalg::Matrix> factors(k, flip);
    StatusOr<double> dense =
        linalg::SymmetricConditionNumber(linalg::KroneckerProduct(factors));
    ASSERT_TRUE(dense.ok());
    EXPECT_NEAR(s->ConditionNumberForLength(k), *dense, 1e-6) << "k=" << k;
  }
}

TEST(MaskSchemeTest, PerturbFlipsAtExpectedRate) {
  StatusOr<MaskScheme> s = MaskScheme::Create(0.561);
  ASSERT_TRUE(s.ok());
  StatusOr<data::BooleanTable> t = data::BooleanTable::CreateEmpty(23);
  ASSERT_TRUE(t.ok());
  const uint64_t pattern = 0b10110100101101001011010ull & t->ValidMask();
  const size_t rows = 20000;
  for (size_t i = 0; i < rows; ++i) t->AppendRow(pattern);

  random::Pcg64 rng(17);
  StatusOr<data::BooleanTable> out = s->Perturb(*t, rng);
  ASSERT_TRUE(out.ok());
  size_t flipped_bits = 0;
  for (size_t i = 0; i < rows; ++i) {
    flipped_bits +=
        static_cast<size_t>(__builtin_popcountll(out->RowBits(i) ^ pattern));
  }
  const double flip_rate =
      static_cast<double>(flipped_bits) / (static_cast<double>(rows) * 23.0);
  EXPECT_NEAR(flip_rate, 1.0 - 0.561, 0.005);
}

TEST(MaskSchemeTest, EstimateExactOnNoiselessCounts) {
  // Feed the estimator a database whose pattern counts are EXACTLY
  // M^{tensor k} x for a known x; the inverse transform must return x.
  const double p = 0.75;
  StatusOr<MaskScheme> s = MaskScheme::Create(p);
  ASSERT_TRUE(s.ok());

  // Original: 600 records with both bits set, 200 with bit0 only, 200 none.
  // Expected perturbed pattern counts computed with the 2-bit flip channel;
  // we synthesize a table achieving those counts exactly is awkward, so
  // instead test the identity channel limit: p close to 1 keeps patterns.
  StatusOr<data::BooleanTable> t = data::BooleanTable::CreateEmpty(2);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 600; ++i) t->AppendRow(0b11);
  for (int i = 0; i < 200; ++i) t->AppendRow(0b01);
  for (int i = 0; i < 200; ++i) t->AppendRow(0b00);

  // Without perturbation (identity data), reconstruction with the channel
  // inverse is exact only for p -> 1; here we instead verify consistency:
  // estimate on UNPERTURBED data equals applying the inverse to the true
  // pattern distribution.
  StatusOr<double> est = s->EstimateItemsetSupport(*t, {0, 1});
  ASSERT_TRUE(est.ok());
  // Inverse of the tensor channel applied to y = [0.2, 0.2, 0, 0.6]:
  // with q = 1-p, det = (2p-1) per axis.
  const double q = 1.0 - p;
  const double inv = 1.0 / (2.0 * p - 1.0);
  // axis 0 (bit 0): pairs (00,01), (10,11).
  double c00 = inv * (p * 0.2 - q * 0.2);
  double c01 = inv * (-q * 0.2 + p * 0.2);
  double c10 = inv * (p * 0.0 - q * 0.6);
  double c11 = inv * (-q * 0.0 + p * 0.6);
  // axis 1 (bit 1): pairs (00,10), (01,11).
  double expected_all_ones = inv * (-q * c01 + p * c11);
  (void)c00;
  (void)c10;
  EXPECT_NEAR(*est, expected_all_ones, 1e-12);
}

TEST(MaskSchemeTest, EndToEndSingletonEstimateIsAccurate) {
  // Perturb a large one-hot-ish boolean DB and reconstruct a singleton
  // support: short itemsets are where MASK is decent.
  StatusOr<MaskScheme> s = MaskScheme::Create(0.561);
  ASSERT_TRUE(s.ok());
  StatusOr<data::BooleanTable> t = data::BooleanTable::CreateEmpty(10);
  ASSERT_TRUE(t.ok());
  random::Pcg64 data_rng(3);
  const size_t rows = 200000;
  size_t true_count = 0;
  for (size_t i = 0; i < rows; ++i) {
    const bool set = data_rng.NextBernoulli(0.3);
    true_count += set ? 1 : 0;
    t->AppendRow(set ? 1ull : 0ull);
  }
  random::Pcg64 rng(19);
  StatusOr<data::BooleanTable> perturbed = s->Perturb(*t, rng);
  ASSERT_TRUE(perturbed.ok());
  StatusOr<double> est = s->EstimateItemsetSupport(*perturbed, {0});
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(*est, static_cast<double>(true_count) / rows, 0.02);
}

TEST(MaskSchemeTest, EstimateValidation) {
  StatusOr<MaskScheme> s = MaskScheme::Create(0.561);
  ASSERT_TRUE(s.ok());
  StatusOr<data::BooleanTable> t = data::BooleanTable::CreateEmpty(4);
  ASSERT_TRUE(t.ok());
  t->AppendRow(0b1111);
  EXPECT_FALSE(s->EstimateItemsetSupport(*t, {}).ok());
  EXPECT_FALSE(s->EstimateItemsetSupport(*t, {5}).ok());
}

TEST(MaskSchemeTest, ShardSeededConcatenatesToMonolithic) {
  StatusOr<MaskScheme> s = MaskScheme::CalibrateForGamma(19.0, 6);
  ASSERT_TRUE(s.ok());
  StatusOr<data::BooleanTable> table = data::BooleanTable::CreateEmpty(23);
  ASSERT_TRUE(table.ok());
  random::Pcg64 rng(5);
  const size_t rows = 20000;  // three seeded chunks, last one partial
  for (size_t i = 0; i < rows; ++i) table->AppendRow(rng.Next());

  const data::BooleanTable whole = *s->PerturbSeeded(*table, 17, /*num_threads=*/2);
  ASSERT_EQ(whole.num_rows(), rows);
  size_t row = 0;
  for (const data::RowRange& range : data::ShardedTable::Plan(rows, 3)) {
    StatusOr<data::BooleanTable> shard_input = data::BooleanTable::CreateEmpty(23);
    ASSERT_TRUE(shard_input.ok());
    for (size_t i = range.begin; i < range.end; ++i) {
      shard_input->AppendRow(table->RowBits(i));
    }
    const data::BooleanTable shard =
        *s->PerturbShardSeeded(*shard_input, range.begin, 17);
    ASSERT_EQ(shard.num_rows(), range.size());
    for (size_t i = 0; i < shard.num_rows(); ++i, ++row) {
      ASSERT_EQ(shard.RowBits(i), whole.RowBits(row)) << "row " << row;
    }
  }
  EXPECT_EQ(row, rows);

  // Misaligned shards are rejected.
  EXPECT_FALSE(s->PerturbShardSeeded(*table, /*global_begin=*/100, 17).ok());
}

/// The per-bit reference: rows [begin, end) of `in` flipped bit by bit with
/// NextBernoulli(q) draws from `rng`, row-major, bit 0 first.
void PerBitFlips(const data::BooleanTable& in, size_t begin, size_t end,
                 double q, random::Pcg64& rng, std::vector<uint64_t>* out) {
  for (size_t i = begin; i < end; ++i) {
    uint64_t flips = 0;
    for (size_t b = 0; b < in.num_bits(); ++b) {
      if (rng.NextBernoulli(q)) flips |= uint64_t{1} << b;
    }
    out->push_back(in.RowBits(i) ^ flips);
  }
}

std::vector<mining::KernelLevel> SupportedKernelLevels() {
  std::vector<mining::KernelLevel> levels;
  for (mining::KernelLevel level :
       {mining::KernelLevel::kScalar, mining::KernelLevel::kHarleySeal,
        mining::KernelLevel::kAvx2, mining::KernelLevel::kAvx512}) {
    if (mining::KernelLevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

TEST(MaskSchemeTest, ShardSeededMatchesPerBitOracleAtEveryKernelLevel) {
  const MaskScheme s = *MaskScheme::CalibrateForGamma(19.0, 6);
  const double q = s.flip_probability();
  const uint64_t seed = 0x3a5c;
  constexpr size_t kChunk = internal::kPerturbChunkRows;
  for (size_t width : {1, 23, 63, 64}) {
    for (size_t rows : {size_t{0}, size_t{1}, kChunk - 1, kChunk, kChunk + 1,
                        3 * kChunk + 5}) {
      data::BooleanTable onehot = *data::BooleanTable::CreateEmpty(width);
      random::Pcg64 data_rng(width, rows);
      for (size_t i = 0; i < rows; ++i) onehot.AppendRow(data_rng.Next());
      for (size_t global_begin : {size_t{0}, 5 * kChunk}) {
        SCOPED_TRACE("width=" + std::to_string(width) + " rows=" +
                     std::to_string(rows) + " global_begin=" +
                     std::to_string(global_begin));
        std::vector<uint64_t> want;
        for (size_t begin = 0; begin < rows; begin += kChunk) {
          random::Pcg64 rng =
              internal::ChunkRng(seed, (global_begin + begin) / kChunk);
          PerBitFlips(onehot, begin, std::min(rows, begin + kChunk), q, rng,
                      &want);
        }
        for (mining::KernelLevel level : SupportedKernelLevels()) {
          SCOPED_TRACE(mining::KernelLevelName(level));
          mining::internal::SetActiveKernelsForTest(level);
          const data::BooleanTable got =
              *s.PerturbShardSeeded(onehot, global_begin, seed,
                                    /*num_threads=*/2);
          ASSERT_EQ(got.num_bits(), width);
          ASSERT_EQ(got.num_rows(), rows);
          for (size_t i = 0; i < rows; ++i) {
            ASSERT_EQ(got.RowBits(i), want[i]) << "row " << i;
          }
        }
      }
    }
  }
  mining::internal::ResetActiveKernelsForTest();
}

TEST(MaskSchemeTest, PerturbMatchesPerBitOracleAndLeavesRngInPlace) {
  const MaskScheme s = *MaskScheme::CalibrateForGamma(19.0, 6);
  data::BooleanTable onehot = *data::BooleanTable::CreateEmpty(23);
  random::Pcg64 data_rng(31);
  const size_t rows = 2 * internal::kPerturbChunkRows + 77;
  for (size_t i = 0; i < rows; ++i) onehot.AppendRow(data_rng.Next());

  random::Pcg64 oracle(19, 4);
  std::vector<uint64_t> want;
  PerBitFlips(onehot, 0, rows, s.flip_probability(), oracle, &want);
  for (mining::KernelLevel level : SupportedKernelLevels()) {
    SCOPED_TRACE(mining::KernelLevelName(level));
    mining::internal::SetActiveKernelsForTest(level);
    random::Pcg64 rng(19, 4);
    const data::BooleanTable got = *s.Perturb(onehot, rng);
    ASSERT_EQ(got.num_rows(), rows);
    for (size_t i = 0; i < rows; ++i) {
      ASSERT_EQ(got.RowBits(i), want[i]) << "row " << i;
    }
    random::Pcg64 after = oracle;
    EXPECT_EQ(rng.Next(), after.Next());
  }
  mining::internal::ResetActiveKernelsForTest();
}

TEST(MaskSupportEstimatorTest, ResolvesItemsetBits) {
  data::CategoricalSchema schema = data::census::Schema();
  StatusOr<data::CategoricalTable> table = data::census::MakeDataset(20000, 4);
  ASSERT_TRUE(table.ok());
  StatusOr<data::BooleanTable> onehot = data::BooleanTable::FromCategorical(*table);
  ASSERT_TRUE(onehot.ok());

  StatusOr<MaskScheme> s = MaskScheme::CalibrateForGamma(19.0, 6);
  ASSERT_TRUE(s.ok());
  random::Pcg64 rng(23);
  StatusOr<data::BooleanTable> perturbed = s->Perturb(*onehot, rng);
  ASSERT_TRUE(perturbed.ok());

  MaskSupportEstimator estimator(*s, data::BooleanLayout(schema), *perturbed);
  // sex = Male has true support ~0.67; a singleton estimate should be close.
  StatusOr<double> est =
      estimator.EstimateSupport(*mining::Itemset::Create({{4, 1}}));
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(*est, 0.67, 0.08);
}

}  // namespace
}  // namespace core
}  // namespace frapp
