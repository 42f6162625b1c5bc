#include "frapp/data/boolean_vertical_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "frapp/random/rng.h"

namespace frapp {
namespace data {
namespace {

BooleanTable RandomBooleanTable(size_t num_bits, size_t n, random::Pcg64& rng) {
  BooleanTable table = *BooleanTable::CreateEmpty(num_bits);
  for (size_t i = 0; i < n; ++i) table.AppendRow(rng.Next());
  return table;
}

std::vector<int64_t> ScalarPatternCounts(const BooleanTable& table,
                                         const std::vector<size_t>& positions) {
  std::vector<int64_t> counts(1ull << positions.size(), 0);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    size_t idx = 0;
    for (size_t b = 0; b < positions.size(); ++b) {
      idx |= static_cast<size_t>((table.RowBits(i) >> positions[b]) & 1u) << b;
    }
    ++counts[idx];
  }
  return counts;
}

TEST(BooleanVerticalIndexTest, PatternCountsMatchScalarOnRandomTables) {
  random::Pcg64 rng(11);
  for (size_t n : {0u, 1u, 64u, 65u, 500u}) {
    const BooleanTable table = RandomBooleanTable(23, n, rng);
    const BooleanVerticalIndex index(table);
    for (int trial = 0; trial < 10; ++trial) {
      const size_t k =
          1 + rng.NextBounded(BooleanVerticalIndex::kMaxIndexedLength);
      std::vector<size_t> positions;
      for (size_t b = 0; b < k; ++b) {
        size_t pos;
        do {
          pos = rng.NextBounded(23);
        } while (std::find(positions.begin(), positions.end(), pos) !=
                 positions.end());
        positions.push_back(pos);
      }
      EXPECT_EQ(index.PatternCounts(positions), ScalarPatternCounts(table, positions))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(BooleanVerticalIndexTest, HitHistogramMatchesScalar) {
  random::Pcg64 rng(12);
  const BooleanTable table = RandomBooleanTable(20, 333, rng);
  const BooleanVerticalIndex index(table);
  const std::vector<size_t> positions = {2, 7, 13};
  uint64_t mask = 0;
  for (size_t p : positions) mask |= 1ull << p;

  std::vector<int64_t> expected(positions.size() + 1, 0);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    ++expected[static_cast<size_t>(__builtin_popcountll(table.RowBits(i) & mask))];
  }
  EXPECT_EQ(index.HitHistogram(positions), expected);
}

TEST(BooleanVerticalIndexTest, PatternCountsSumToRowCount) {
  random::Pcg64 rng(13);
  const BooleanTable table = RandomBooleanTable(10, 77, rng);
  const BooleanVerticalIndex index(table);
  const std::vector<int64_t> counts = index.PatternCounts({0, 4, 9});
  int64_t total = 0;
  for (int64_t c : counts) {
    EXPECT_GE(c, 0);
    total += c;
  }
  EXPECT_EQ(total, 77);
}

// The constructor transposes full 64-row blocks with a 64x64 bit-matrix
// transpose and scatters the tail rows one bit at a time; both must equal a
// naive bit-at-a-time oracle for every width, around every block boundary,
// and for ranges that start mid-word.
TEST(BooleanVerticalIndexTest, BlockTransposeMatchesNaiveOracle) {
  random::Pcg64 rng(14);
  for (size_t num_bits : {1, 23, 64}) {
    const BooleanTable table = RandomBooleanTable(num_bits, 8300, rng);
    for (const RowRange range :
         {RowRange{0, 0}, RowRange{0, 1}, RowRange{0, 63}, RowRange{0, 64},
          RowRange{0, 65}, RowRange{0, 8191}, RowRange{0, 8192},
          RowRange{0, 8193}, RowRange{37, 37 + 8193}, RowRange{5, 5 + 128}}) {
      SCOPED_TRACE("bits=" + std::to_string(num_bits) + " range=[" +
                   std::to_string(range.begin) + ", " +
                   std::to_string(range.end) + ")");
      const size_t words = (range.size() + 63) / 64;
      std::vector<uint64_t> want(num_bits * words, 0);
      for (size_t i = 0; i < range.size(); ++i) {
        for (size_t p = 0; p < num_bits; ++p) {
          if (table.Get(range.begin + i, p)) {
            want[p * words + i / 64] |= uint64_t{1} << (i % 64);
          }
        }
      }
      const BooleanVerticalIndex index(table, range);
      EXPECT_EQ(index.num_rows(), range.size());
      EXPECT_EQ(index.raw_bits(), want);
    }
  }
}

}  // namespace
}  // namespace data
}  // namespace frapp
