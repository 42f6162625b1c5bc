#include "frapp/data/boolean_vertical_index.h"

#include "frapp/common/check.h"
#include "frapp/mining/kernels.h"

namespace frapp {
namespace data {

namespace {

/// In-place transpose of a 64x64 bit matrix, row r = a[r], column c = bit c:
/// afterwards bit r of a[c] is the old bit c of a[r]. Six stages swap the
/// off-diagonal j x j sub-blocks for j = 32, 16, ..., 1 (the recursive
/// block swap of Hacker's Delight 7-3, with LSB-first columns).
void Transpose64x64(uint64_t a[64]) {
  uint64_t mask = 0x00000000ffffffffull;
  for (size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const uint64_t t = ((a[k] >> j) ^ a[k | j]) & mask;
      a[k | j] ^= t;
      a[k] ^= t << j;
    }
  }
}

}  // namespace

BooleanVerticalIndex::BooleanVerticalIndex(const BooleanTable& table,
                                           const RowRange& range) {
  FRAPP_CHECK_LE(range.begin, range.end);
  FRAPP_CHECK_LE(range.end, table.num_rows());
  num_rows_ = range.size();
  num_bits_ = table.num_bits();
  words_ = (num_rows_ + 63) / 64;
  bits_.assign(num_bits_ * words_, 0);
  // Full 64-row blocks: transpose the block's row words, after which word p
  // is exactly plane p's word for these rows.
  const size_t full_blocks = num_rows_ / 64;
  uint64_t block[64];
  for (size_t w = 0; w < full_blocks; ++w) {
    for (size_t r = 0; r < 64; ++r) {
      block[r] = table.RowBits(range.begin + w * 64 + r);
    }
    Transpose64x64(block);
    for (size_t p = 0; p < num_bits_; ++p) bits_[p * words_ + w] = block[p];
  }
  // Tail rows: scatter each row's set bits.
  for (size_t i = full_blocks * 64; i < num_rows_; ++i) {
    uint64_t row = table.RowBits(range.begin + i);
    const size_t word = i >> 6;
    const uint64_t bit = 1ull << (i & 63);
    while (row != 0) {
      const unsigned p = static_cast<unsigned>(__builtin_ctzll(row));
      bits_[p * words_ + word] |= bit;
      row &= row - 1;
    }
  }
}

BooleanVerticalIndex BooleanVerticalIndex::FromRaw(size_t num_rows,
                                                   size_t num_bits,
                                                   std::vector<uint64_t> bits) {
  BooleanVerticalIndex index;
  index.num_rows_ = num_rows;
  index.num_bits_ = num_bits;
  index.words_ = (num_rows + 63) / 64;
  index.bits_ = std::move(bits);
  return index;
}

void BooleanVerticalIndex::SupersetCounts(const std::vector<size_t>& positions,
                                          size_t begin_pattern,
                                          size_t end_pattern,
                                          int64_t* out) const {
  const size_t k = positions.size();
  // Checked before any caller shifts/allocates 2^k, see PatternCounts.
  FRAPP_CHECK_LE(k, kMaxPatternLength);
  FRAPP_CHECK_LE(end_pattern, 1ull << k);
  for (size_t pos : positions) FRAPP_CHECK_LT(pos, num_bits_);
  const mining::KernelTable& kernels = mining::ActiveKernels();
  // Per pattern S, gather the popcount(S) <= kMaxPatternLength bitmap
  // pointers and fold them through the dispatched intersect+popcount kernel.
  const uint64_t* maps[kMaxPatternLength];
  for (size_t s = begin_pattern; s < end_pattern; ++s) {
    if (s == 0) {
      out[0] = static_cast<int64_t>(num_rows_);
      continue;
    }
    size_t n = 0;
    for (uint64_t rest = s; rest != 0; rest &= rest - 1) {
      maps[n++] = Bitmap(positions[static_cast<size_t>(__builtin_ctzll(rest))]);
    }
    out[s - begin_pattern] =
        static_cast<int64_t>(kernels.intersect_popcount(maps, n, words_));
  }
}

void BooleanVerticalIndex::MobiusExactCounts(std::vector<int64_t>& counts) {
  // Subtract, per bit axis, the count with that bit forced set: "at least S"
  // becomes "exactly S".
  const size_t patterns = counts.size();
  for (size_t bit = 1; bit < patterns; bit <<= 1) {
    for (size_t s = 0; s < patterns; ++s) {
      if ((s & bit) == 0) counts[s] -= counts[s | bit];
    }
  }
}

std::vector<int64_t> BooleanVerticalIndex::PatternCounts(
    const std::vector<size_t>& positions) const {
  // Enforce the length cap BEFORE the 2^k shift/allocation: 64+ positions
  // would be undefined behavior on the shift, 30+ a multi-GiB allocation.
  FRAPP_CHECK_LE(positions.size(), kMaxPatternLength);
  const size_t patterns = 1ull << positions.size();
  std::vector<int64_t> counts(patterns);
  SupersetCounts(positions, 0, patterns, counts.data());
  MobiusExactCounts(counts);
  return counts;
}

std::vector<int64_t> BooleanVerticalIndex::HitHistogram(
    const std::vector<size_t>& positions) const {
  return HistogramFromPatternCounts(PatternCounts(positions),
                                    positions.size());
}

std::vector<int64_t> BooleanVerticalIndex::HistogramFromPatternCounts(
    const std::vector<int64_t>& counts, size_t num_positions) {
  std::vector<int64_t> histogram(num_positions + 1, 0);
  for (size_t a = 0; a < counts.size(); ++a) {
    histogram[static_cast<size_t>(__builtin_popcountll(a))] += counts[a];
  }
  return histogram;
}

}  // namespace data
}  // namespace frapp
