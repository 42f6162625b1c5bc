// Boolean (transaction) view of categorical data.
//
// MASK and Cut-and-Paste operate on boolean databases. The paper maps each
// categorical attribute j to |S_U^j| boolean attributes (one per category),
// for a total of M_b = sum_j |S_U^j| booleans; every original record then
// has exactly M ones (paper Section 7, "Perturbation Mechanisms").

#ifndef FRAPP_DATA_BOOLEAN_VIEW_H_
#define FRAPP_DATA_BOOLEAN_VIEW_H_

#include <cstdint>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/data/sharded_table.h"
#include "frapp/data/table.h"

namespace frapp {
namespace data {

/// Position map from (attribute, category) to a bit index in [0, M_b).
/// Bits are laid out attribute-major: attribute 0's categories first.
class BooleanLayout {
 public:
  explicit BooleanLayout(const CategoricalSchema& schema);

  /// Total boolean attributes M_b.
  size_t num_bits() const { return num_bits_; }

  /// Number of source categorical attributes M.
  size_t num_attributes() const { return offsets_.size(); }

  /// Bit index of (attribute j, category c).
  size_t BitPosition(size_t attribute, size_t category) const {
    return offsets_[attribute] + category;
  }

  /// First bit of attribute j (its categories occupy a contiguous range).
  size_t AttributeOffset(size_t attribute) const { return offsets_[attribute]; }

 private:
  std::vector<size_t> offsets_;
  size_t num_bits_;
};

/// A boolean database of N rows by M_b bits, one uint64 word row-stride
/// (FRAPP's workloads have M_b <= 64; larger layouts are rejected).
class BooleanTable {
 public:
  /// One-hot encodes `table` per the layout. Fails when M_b > 64.
  static StatusOr<BooleanTable> FromCategorical(const CategoricalTable& table);

  /// One-hot encodes only rows [range.begin, range.end) of `table` (the
  /// shard-streaming encoder: a boolean shard never needs the whole table).
  static StatusOr<BooleanTable> FromCategoricalRange(const CategoricalTable& table,
                                                     const RowRange& range);

  /// Empty table with `num_bits` boolean attributes.
  static StatusOr<BooleanTable> CreateEmpty(size_t num_bits);

  size_t num_rows() const { return rows_.size(); }
  size_t num_bits() const { return num_bits_; }

  uint64_t RowBits(size_t i) const { return rows_[i]; }
  void AppendRow(uint64_t bits) { rows_.push_back(bits & mask_); }

  /// Appends n all-zero rows in one allocation, for bulk writers that fill
  /// rows in place via SetRowBits.
  void AppendZeroRows(size_t n) { rows_.resize(rows_.size() + n, 0); }

  /// Overwrites row i (bulk writers that pre-size with AppendZeroRows).
  void SetRowBits(size_t i, uint64_t bits) { rows_[i] = bits & mask_; }

  bool Get(size_t row, size_t bit) const { return (rows_[row] >> bit) & 1u; }

  /// Number of set bits in row i.
  int PopCount(size_t row) const { return __builtin_popcountll(rows_[row]); }

  /// Mask with the low num_bits set.
  uint64_t ValidMask() const { return mask_; }

 private:
  BooleanTable(size_t num_bits)
      : num_bits_(num_bits),
        mask_(num_bits >= 64 ? ~0ull : ((1ull << num_bits) - 1)) {}

  size_t num_bits_;
  uint64_t mask_;
  std::vector<uint64_t> rows_;
};

}  // namespace data
}  // namespace frapp

#endif  // FRAPP_DATA_BOOLEAN_VIEW_H_
