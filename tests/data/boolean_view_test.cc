#include "frapp/data/boolean_view.h"

#include <gtest/gtest.h>

#include "frapp/data/census.h"

namespace frapp {
namespace data {
namespace {

CategoricalSchema TinySchema() {
  StatusOr<CategoricalSchema> s =
      CategoricalSchema::Create({{"a", {"0", "1"}}, {"b", {"0", "1", "2"}}});
  return *std::move(s);
}

TEST(BooleanLayoutTest, OffsetsAndPositions) {
  BooleanLayout layout(TinySchema());
  EXPECT_EQ(layout.num_bits(), 5u);
  EXPECT_EQ(layout.num_attributes(), 2u);
  EXPECT_EQ(layout.AttributeOffset(0), 0u);
  EXPECT_EQ(layout.AttributeOffset(1), 2u);
  EXPECT_EQ(layout.BitPosition(0, 1), 1u);
  EXPECT_EQ(layout.BitPosition(1, 2), 4u);
}

TEST(BooleanTableTest, OneHotEncoding) {
  StatusOr<CategoricalTable> t = CategoricalTable::Create(TinySchema());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->AppendRow({1, 2}).ok());
  ASSERT_TRUE(t->AppendRow({0, 0}).ok());
  StatusOr<BooleanTable> b = BooleanTable::FromCategorical(*t);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->num_rows(), 2u);
  EXPECT_EQ(b->num_bits(), 5u);
  EXPECT_EQ(b->RowBits(0), (1ull << 1) | (1ull << 4));
  EXPECT_EQ(b->RowBits(1), (1ull << 0) | (1ull << 2));
}

TEST(BooleanTableTest, EveryRowHasExactlyMOnes) {
  // The paper's MASK mapping invariant: each record has exactly M ones.
  StatusOr<CategoricalTable> t = census::MakeDataset(1000, 3);
  ASSERT_TRUE(t.ok());
  StatusOr<BooleanTable> b = BooleanTable::FromCategorical(*t);
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < b->num_rows(); ++i) {
    EXPECT_EQ(b->PopCount(i), 6);
  }
}

TEST(BooleanTableTest, GetBit) {
  StatusOr<BooleanTable> b = BooleanTable::CreateEmpty(8);
  ASSERT_TRUE(b.ok());
  b->AppendRow(0b10100101);
  EXPECT_TRUE(b->Get(0, 0));
  EXPECT_FALSE(b->Get(0, 1));
  EXPECT_TRUE(b->Get(0, 7));
}

TEST(BooleanTableTest, AppendRowMasksInvalidHighBits) {
  StatusOr<BooleanTable> b = BooleanTable::CreateEmpty(4);
  ASSERT_TRUE(b.ok());
  b->AppendRow(0xFF);
  EXPECT_EQ(b->RowBits(0), 0x0Full);
}

TEST(BooleanTableTest, CreateEmptyValidation) {
  EXPECT_FALSE(BooleanTable::CreateEmpty(0).ok());
  EXPECT_FALSE(BooleanTable::CreateEmpty(65).ok());
  EXPECT_TRUE(BooleanTable::CreateEmpty(64).ok());
}

TEST(BooleanTableTest, TooManyCategoriesRejected) {
  std::vector<Attribute> attrs;
  for (int i = 0; i < 9; ++i) {
    attrs.push_back(
        {"a" + std::to_string(i), {"0", "1", "2", "3", "4", "5", "6", "7"}});
  }
  StatusOr<CategoricalSchema> s = CategoricalSchema::Create(std::move(attrs));
  ASSERT_TRUE(s.ok());  // 72 bits
  StatusOr<CategoricalTable> t = CategoricalTable::Create(*s);
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(BooleanTable::FromCategorical(*t).ok());
}

TEST(BooleanTableTest, AppendZeroRowsGrowsWithZeroRows) {
  BooleanTable table = *BooleanTable::CreateEmpty(23);
  table.AppendRow(0x5);
  table.AppendZeroRows(3);
  ASSERT_EQ(table.num_rows(), 4u);
  EXPECT_EQ(table.RowBits(0), 0x5u);
  for (size_t i = 1; i < 4; ++i) EXPECT_EQ(table.RowBits(i), 0u);
  table.SetRowBits(3, ~uint64_t{0});
  EXPECT_EQ(table.RowBits(3), table.ValidMask());
}

}  // namespace
}  // namespace data
}  // namespace frapp
