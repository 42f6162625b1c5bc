// The kernel-dispatch invariants:
//
//  1. LEVEL EQUIVALENCE: every supported kernel level returns exactly the
//     same counts as the scalar reference on randomized bitmaps — including
//     sub-vector tails (words % 4, words % 8), empty ranges, all-zero and
//     all-one maps, and intersection arities up to k = 32. Counts are
//     integers, so "equivalent" means equal, not close.
//  2. DISPATCH RESOLUTION: the once-resolved level honors a supported
//     FRAPP_FORCE_KERNEL override and falls back to the best supported
//     level otherwise; names round-trip through the parser.
//  3. E2E BIT-IDENTITY: a full CENSUS 50k exact mine produces identical
//     itemsets and supports under every supported kernel level.
//  4. TRANSPOSE PARITY: every level's byte-column transpose equals a naive
//     bit-at-a-time oracle across block tails, cardinalities up to 256,
//     and VerticalIndex::BuildRange ranges that start mid-word.
//  5. BERNOULLI PARITY: every level's Bernoulli bit stream equals the
//     sequential NextBernoulli(q) loop bit for bit, across lane and word
//     tails and at probabilities on both sides of a threshold step.
//  6. PCG64 BLOCK PARITY: every level's raw block equals n calls of Next(),
//     and leaves the state where Advance(n) does.
//  7. COLUMN DECODE PARITY: every level decodes a u16 cell column like a
//     cell-at-a-time oracle and flags exactly the columns holding an id at
//     or above the cardinality.

#include "frapp/mining/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "frapp/data/census.h"
#include "frapp/mining/apriori.h"
#include "frapp/mining/vertical_index.h"
#include "frapp/random/rng.h"

namespace frapp {
namespace mining {
namespace {

std::vector<KernelLevel> SupportedLevels() {
  std::vector<KernelLevel> levels;
  for (KernelLevel level :
       {KernelLevel::kScalar, KernelLevel::kHarleySeal, KernelLevel::kAvx2,
        KernelLevel::kAvx512}) {
    if (KernelLevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

/// k bitmaps of `words` words each, plus the row of pointers the kernels take.
struct BitmapSet {
  std::vector<std::vector<uint64_t>> storage;
  std::vector<const uint64_t*> maps;

  BitmapSet(size_t k, size_t words, random::Pcg64& rng) {
    storage.resize(k);
    for (auto& map : storage) {
      map.resize(words);
      for (auto& word : map) word = rng.Next();
      maps.push_back(map.data());
    }
  }
};

TEST(KernelsTest, ScalarAlwaysSupportedAndBestLevelRuns) {
  EXPECT_TRUE(KernelLevelSupported(KernelLevel::kScalar));
  EXPECT_TRUE(KernelLevelSupported(BestSupportedLevel()));
  // The active table is one of the named levels and its entries are wired.
  const KernelTable& active = ActiveKernels();
  ASSERT_NE(active.intersect_popcount, nullptr);
  ASSERT_NE(active.popcount_range, nullptr);
  EXPECT_TRUE(KernelLevelSupported(active.level));
}

TEST(KernelsTest, LevelNamesRoundTrip) {
  for (KernelLevel level :
       {KernelLevel::kScalar, KernelLevel::kHarleySeal, KernelLevel::kAvx2,
        KernelLevel::kAvx512}) {
    EXPECT_EQ(ParseKernelLevelName(KernelLevelName(level)), level);
  }
  EXPECT_FALSE(ParseKernelLevelName("").has_value());
  EXPECT_FALSE(ParseKernelLevelName("sse2").has_value());
  EXPECT_FALSE(ParseKernelLevelName("AVX2").has_value());  // case-sensitive
}

TEST(KernelsTest, ResolveKernelLevelHonorsSupportedForceAndFallsBack) {
  EXPECT_EQ(internal::ResolveKernelLevel(std::nullopt), BestSupportedLevel());
  EXPECT_EQ(internal::ResolveKernelLevel(KernelLevel::kScalar),
            KernelLevel::kScalar);
  // Harley-Seal is portable C++: forcible on every host.
  EXPECT_EQ(internal::ResolveKernelLevel(KernelLevel::kHarleySeal),
            KernelLevel::kHarleySeal);
  for (KernelLevel level : {KernelLevel::kAvx2, KernelLevel::kAvx512}) {
    EXPECT_EQ(internal::ResolveKernelLevel(level),
              KernelLevelSupported(level) ? level : BestSupportedLevel());
  }
}

TEST(KernelsTest, KernelsForLevelReportsItsLevel) {
  for (KernelLevel level : SupportedLevels()) {
    EXPECT_EQ(KernelsForLevel(level).level, level);
  }
}

TEST(KernelsTest, RandomizedEquivalenceAcrossLevelsTailsAndArities) {
  const std::vector<KernelLevel> levels = SupportedLevels();
  ASSERT_FALSE(levels.empty());
  const KernelTable& scalar = KernelsForLevel(KernelLevel::kScalar);

  random::Pcg64 rng(0xfeedface, 7);
  // Word counts straddle the AVX2 4-word and AVX-512 8-word strides so
  // every tail length in [0, 8) is exercised, plus longer mixed bodies.
  const size_t word_grid[] = {0, 1, 2, 3,  4,  5,  6,  7,  8,
                              9, 12, 15, 16, 17, 31, 33, 40, 129};
  const size_t k_grid[] = {1, 2, 3, 4, 5, 7, 8, 13, 32};
  for (size_t words : word_grid) {
    for (size_t k : k_grid) {
      SCOPED_TRACE("words=" + std::to_string(words) +
                   " k=" + std::to_string(k));
      const BitmapSet set(k, words, rng);
      const uint64_t want =
          scalar.intersect_popcount(set.maps.data(), k, words);
      const uint64_t want_range =
          words == 0 ? 0 : scalar.popcount_range(set.maps[0], words);
      for (KernelLevel level : levels) {
        SCOPED_TRACE(KernelLevelName(level));
        const KernelTable& table = KernelsForLevel(level);
        EXPECT_EQ(table.intersect_popcount(set.maps.data(), k, words), want);
        if (words != 0) {
          EXPECT_EQ(table.popcount_range(set.maps[0], words), want_range);
        }
      }
    }
  }
}

// The Harley-Seal fold works in 16-word blocks with a word-loop tail, so
// every residue class of the block size must agree with the plain scalar
// sum — exhaustively over word counts 0..129 (two full blocks plus every
// possible tail, including the 129 = 8*16+1 boundary).
TEST(KernelsTest, HarleySealMatchesScalarOnEveryTailLength) {
  const KernelTable& scalar = KernelsForLevel(KernelLevel::kScalar);
  const KernelTable& hs = KernelsForLevel(KernelLevel::kHarleySeal);
  random::Pcg64 rng(0xdecade, 3);
  for (size_t words = 0; words <= 129; ++words) {
    for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{6}}) {
      SCOPED_TRACE("words=" + std::to_string(words) +
                   " k=" + std::to_string(k));
      const BitmapSet set(k, words, rng);
      EXPECT_EQ(hs.intersect_popcount(set.maps.data(), k, words),
                scalar.intersect_popcount(set.maps.data(), k, words));
      if (words != 0) {
        EXPECT_EQ(hs.popcount_range(set.maps[0], words),
                  scalar.popcount_range(set.maps[0], words));
      }
    }
  }
}

TEST(KernelsTest, DegenerateMapsCountExactly) {
  for (KernelLevel level : SupportedLevels()) {
    SCOPED_TRACE(KernelLevelName(level));
    const KernelTable& table = KernelsForLevel(level);
    for (size_t words : {size_t{1}, size_t{5}, size_t{8}, size_t{11}}) {
      const std::vector<uint64_t> ones(words, ~uint64_t{0});
      const std::vector<uint64_t> zeros(words, 0);
      const uint64_t* all_ones[32];
      for (auto& map : all_ones) map = ones.data();
      // Intersecting any number of all-one maps counts every bit.
      for (size_t k : {size_t{1}, size_t{2}, size_t{32}}) {
        EXPECT_EQ(table.intersect_popcount(all_ones, k, words), 64 * words);
      }
      // One all-zero map annihilates the intersection.
      const uint64_t* mixed[3] = {ones.data(), zeros.data(), ones.data()};
      EXPECT_EQ(table.intersect_popcount(mixed, 3, words), 0u);
      EXPECT_EQ(table.popcount_range(zeros.data(), words), 0u);
      EXPECT_EQ(table.popcount_range(ones.data(), words), 64 * words);
    }
  }
}

/// Naive bit-at-a-time transpose: the contract of TransposeBytesFn, one row
/// at a time, into planes pre-filled with `fill`.
std::vector<uint64_t> NaiveTranspose(const std::vector<uint8_t>& col,
                                     size_t cardinality, size_t stride,
                                     uint64_t fill) {
  const size_t words = (col.size() + 63) / 64;
  std::vector<uint64_t> planes(cardinality * stride, fill);
  for (size_t c = 0; c < cardinality; ++c) {
    for (size_t w = 0; w < words; ++w) planes[c * stride + w] = 0;
  }
  for (size_t r = 0; r < col.size(); ++r) {
    if (col[r] < cardinality) {
      planes[col[r] * stride + r / 64] |= uint64_t{1} << (r % 64);
    }
  }
  return planes;
}

TEST(KernelsTest, TransposeBytesMatchesNaiveOracleAtEveryLevel) {
  random::Pcg64 rng(0x7a5e, 11);
  // A fill pattern in the planes' spare word checks that the kernels write
  // exactly words [0, ceil(rows/64)) of each plane.
  const uint64_t fill = 0xa5a5a5a5a5a5a5a5ull;
  for (size_t rows : {0, 1, 63, 64, 65, 8191, 8192, 8193}) {
    for (size_t cardinality : {1, 2, 5, 255, 256}) {
      // In-range ids only, then ids over the whole byte range (ids >=
      // cardinality must set no bit).
      for (size_t id_range : {cardinality, size_t{256}}) {
        SCOPED_TRACE("rows=" + std::to_string(rows) +
                     " cardinality=" + std::to_string(cardinality) +
                     " id_range=" + std::to_string(id_range));
        std::vector<uint8_t> col(rows);
        for (uint8_t& id : col) id = static_cast<uint8_t>(rng.NextBounded(id_range));
        const size_t stride = (rows + 63) / 64 + 1;
        const std::vector<uint64_t> want =
            NaiveTranspose(col, cardinality, stride, fill);
        for (KernelLevel level : SupportedLevels()) {
          SCOPED_TRACE(KernelLevelName(level));
          std::vector<uint64_t> planes(cardinality * stride, fill);
          KernelsForLevel(level).transpose_bytes(col.data(), rows, cardinality,
                                                 planes.data(), stride);
          EXPECT_EQ(planes, want);
        }
      }
    }
  }
}

TEST(KernelsTest, BuildRangeMidWordMatchesNaiveOracleAtEveryLevel) {
  std::vector<data::Attribute> attributes;
  for (size_t cardinality : {1, 2, 5, 255, 256}) {
    std::vector<std::string> categories;
    for (size_t c = 0; c < cardinality; ++c) {
      categories.push_back(std::to_string(c));
    }
    attributes.push_back(
        {"a" + std::to_string(cardinality), std::move(categories)});
  }
  const data::CategoricalSchema schema =
      *data::CategoricalSchema::Create(std::move(attributes));
  data::CategoricalTable table = *data::CategoricalTable::Create(schema);
  random::Pcg64 rng(0xb17d, 5);
  std::vector<uint8_t> row(schema.num_attributes());
  for (size_t i = 0; i < 8300; ++i) {
    for (size_t j = 0; j < row.size(); ++j) {
      row[j] = static_cast<uint8_t>(rng.NextBounded(schema.Cardinality(j)));
    }
    ASSERT_TRUE(table.AppendRow(row).ok());
  }

  for (const data::RowRange range :
       {data::RowRange{37, 37}, data::RowRange{37, 38}, data::RowRange{37, 101},
        data::RowRange{37, 8230}, data::RowRange{100, 8293}}) {
    SCOPED_TRACE("range=[" + std::to_string(range.begin) + ", " +
                 std::to_string(range.end) + ")");
    for (KernelLevel level : SupportedLevels()) {
      SCOPED_TRACE(KernelLevelName(level));
      internal::SetActiveKernelsForTest(level);
      const VerticalIndex index = VerticalIndex::BuildRange(table, range, 2);
      ASSERT_EQ(index.num_rows(), range.size());
      for (size_t j = 0; j < schema.num_attributes(); ++j) {
        std::vector<uint8_t> col(table.Column(j).begin() + range.begin,
                                 table.Column(j).begin() + range.end);
        const std::vector<uint64_t> want =
            NaiveTranspose(col, schema.Cardinality(j), index.words_per_item(),
                           /*fill=*/0);
        for (size_t c = 0; c < schema.Cardinality(j); ++c) {
          const uint64_t* got = index.Bitmap(j, c);
          EXPECT_EQ(std::vector<uint64_t>(got, got + index.words_per_item()),
                    std::vector<uint64_t>(
                        want.begin() + c * index.words_per_item(),
                        want.begin() + (c + 1) * index.words_per_item()))
              << "attribute " << j << " category " << c;
        }
      }
    }
  }
  internal::ResetActiveKernelsForTest();
}

TEST(KernelsTest, BernoulliBitsMatchNextBernoulliLoopAtEveryLevel) {
  // q * 2^53 is an integer for 0.25 and 0.4375; the two neighbours of
  // 0.4389 straddle one step of the threshold; 2^-53 is its smallest step.
  const double probabilities[] = {0.25, 0.4375, std::nextafter(0.4389, 0.0),
                                  std::nextafter(0.4389, 1.0), 0x1.0p-53};
  const size_t lengths[] = {0, 1, 7, 8, 15, 16, 17, 8192 * 23, 8192 * 64};
  // A fill pattern past the written words checks that the kernels write
  // exactly words [0, ceil(n / 64)) and clear the bits past n.
  const uint64_t fill = 0xa5a5a5a5a5a5a5a5ull;
  for (const random::Pcg64& start :
       {random::Pcg64(42, 54), random::Pcg64(0x5eed, 3)}) {
    for (double q : probabilities) {
      for (size_t n : lengths) {
        SCOPED_TRACE("q=" + std::to_string(q) + " n=" + std::to_string(n));
        const size_t words = (n + 63) / 64;
        std::vector<uint64_t> want(words + 1, 0);
        want[words] = fill;
        random::Pcg64 oracle = start;
        for (size_t i = 0; i < n; ++i) {
          if (oracle.NextBernoulli(q)) want[i / 64] |= uint64_t{1} << (i % 64);
        }
        for (KernelLevel level : SupportedLevels()) {
          SCOPED_TRACE(KernelLevelName(level));
          std::vector<uint64_t> got(words + 1, fill);
          KernelsForLevel(level).bernoulli_bits(
              start.state(), start.increment(),
              random::Pcg64::BernoulliThreshold(q), n, got.data());
          EXPECT_EQ(got, want);
        }
      }
    }
  }
}

TEST(KernelsTest, Pcg64BlockMatchesNextLoopAtEveryLevel) {
  const uint64_t fill = 0xa5a5a5a5a5a5a5a5ull;
  for (const random::Pcg64& start :
       {random::Pcg64(42, 54), random::Pcg64(0x5eed, 3)}) {
    for (size_t n : {0, 1, 15, 16, 17, 63, 64, 65, 1000, 65536}) {
      SCOPED_TRACE("n=" + std::to_string(n));
      std::vector<uint64_t> want(n + 1, fill);
      random::Pcg64 oracle = start;
      for (size_t i = 0; i < n; ++i) want[i] = oracle.Next();
      random::Pcg64 advanced = start;
      advanced.Advance(n);
      for (KernelLevel level : SupportedLevels()) {
        SCOPED_TRACE(KernelLevelName(level));
        std::vector<uint64_t> got(n + 1, fill);
        unsigned __int128 state = start.state();
        KernelsForLevel(level).pcg64_block(&state, start.increment(), n,
                                           got.data());
        EXPECT_EQ(got, want);
        EXPECT_TRUE(state == advanced.state());
      }
    }
  }
}

TEST(KernelsTest, DecodeU16ColumnMatchesCellOracleAtEveryLevel) {
  random::Pcg64 rng(0xdec0de);
  for (size_t columns = 1; columns <= 9; ++columns) {
    for (size_t rows : {0, 1, 15, 16, 17, 8192}) {
      SCOPED_TRACE("columns=" + std::to_string(columns) +
                   " rows=" + std::to_string(rows));
      // Cardinalities 2..256 plus slack bytes the decode may read.
      std::vector<uint32_t> cardinality(columns);
      for (uint32_t& c : cardinality) {
        c = 2 + static_cast<uint32_t>(rng.NextBounded(255));
      }
      const uint8_t slack = 0xee;
      std::vector<uint8_t> cells(2 * rows * columns + 2, slack);
      for (size_t i = 0; i < rows; ++i) {
        for (size_t j = 0; j < columns; ++j) {
          const uint64_t id = rng.NextBounded(cardinality[j]);
          cells[2 * (i * columns + j)] = static_cast<uint8_t>(id);
          cells[2 * (i * columns + j) + 1] = 0;
        }
      }
      // Every level must agree with the oracle on clean cells, then on the
      // same grid with one bad id planted in the last column: the smallest
      // bad id, or one with its high byte set.
      for (int planted = 0; planted < 2; ++planted) {
        if (planted == 1) {
          if (rows == 0) continue;
          const size_t bad_row = static_cast<size_t>(rng.NextBounded(rows));
          const uint32_t bad =
              rows % 2 == 0 ? cardinality[columns - 1] : uint32_t{0x7fff};
          const size_t at = 2 * (bad_row * columns + columns - 1);
          cells[at] = static_cast<uint8_t>(bad);
          cells[at + 1] = static_cast<uint8_t>(bad >> 8);
        }
        for (size_t j = 0; j < columns; ++j) {
          std::vector<uint8_t> want(rows);
          bool want_in_range = true;
          for (size_t i = 0; i < rows; ++i) {
            const uint32_t id = cells[2 * (i * columns + j)] |
                                (uint32_t{cells[2 * (i * columns + j) + 1]} << 8);
            want[i] = static_cast<uint8_t>(id);
            want_in_range &= id < cardinality[j];
          }
          EXPECT_EQ(want_in_range, !(planted == 1 && j == columns - 1));
          for (KernelLevel level : SupportedLevels()) {
            SCOPED_TRACE(KernelLevelName(level));
            std::vector<uint8_t> got(rows + 1, 0x5a);
            const bool in_range = KernelsForLevel(level).decode_u16_column(
                cells.data(), rows, columns, j, cardinality[j], got.data());
            EXPECT_EQ(in_range, want_in_range) << "column " << j;
            EXPECT_EQ(got[rows], 0x5a) << "wrote past the column";
            if (want_in_range) {
              got.resize(rows);
              EXPECT_EQ(got, want) << "column " << j;
            }
          }
        }
      }
    }
  }
}

TEST(KernelsTest, EndToEndCensusMineBitIdenticalAcrossLevels) {
  const auto table = data::census::MakeDataset(50000, 77);
  ASSERT_TRUE(table.ok());
  AprioriOptions options;
  options.min_support = 0.02;
  options.count_shards = 3;
  options.num_threads = 2;

  internal::SetActiveKernelsForTest(KernelLevel::kScalar);
  const StatusOr<AprioriResult> reference = MineExact(*table, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (KernelLevel level : SupportedLevels()) {
    SCOPED_TRACE(KernelLevelName(level));
    internal::SetActiveKernelsForTest(level);
    const StatusOr<AprioriResult> run = MineExact(*table, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run->by_length.size(), reference->by_length.size());
    for (size_t k = 0; k < run->by_length.size(); ++k) {
      ASSERT_EQ(run->by_length[k].size(), reference->by_length[k].size())
          << "length " << k + 1;
      for (size_t i = 0; i < run->by_length[k].size(); ++i) {
        ASSERT_TRUE(run->by_length[k][i].itemset ==
                    reference->by_length[k][i].itemset);
        ASSERT_EQ(run->by_length[k][i].support,
                  reference->by_length[k][i].support);
      }
    }
  }
  internal::ResetActiveKernelsForTest();
}

}  // namespace
}  // namespace mining
}  // namespace frapp
