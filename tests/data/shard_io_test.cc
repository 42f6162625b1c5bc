// Binary shard format: round-trips must be exact, the schema fingerprint
// must refuse mismatched schemas, and corrupt/truncated payloads must fail
// loudly instead of producing wrong rows.

#include "frapp/data/shard_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "frapp/data/census.h"
#include "frapp/data/csv.h"
#include "frapp/data/sharded_table.h"

namespace frapp {
namespace data {
namespace {

std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + "/frapp_shard_io_" + stem + "_" +
         std::to_string(::getpid());
}

void ExpectSameTable(const CategoricalTable& a, const CategoricalTable& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t j = 0; j < a.num_attributes(); ++j) {
    ASSERT_EQ(a.Column(j), b.Column(j)) << "column " << j;
  }
}

TEST(SchemaFingerprintTest, DistinguishesSchemas) {
  const uint64_t census = SchemaFingerprint(census::Schema());
  EXPECT_EQ(census, SchemaFingerprint(census::Schema()));  // deterministic

  CategoricalSchema renamed = *CategoricalSchema::Create(
      {{"a", {"x", "y"}}, {"b", {"p", "q"}}});
  CategoricalSchema reordered = *CategoricalSchema::Create(
      {{"a", {"y", "x"}}, {"b", {"p", "q"}}});
  CategoricalSchema renamed_col = *CategoricalSchema::Create(
      {{"a2", {"x", "y"}}, {"b", {"p", "q"}}});
  EXPECT_NE(SchemaFingerprint(renamed), census);
  // Reordering labels remaps every cell id -> must change the fingerprint.
  EXPECT_NE(SchemaFingerprint(renamed), SchemaFingerprint(reordered));
  EXPECT_NE(SchemaFingerprint(renamed), SchemaFingerprint(renamed_col));
}

TEST(ShardIoTest, RoundTripsWholeTable) {
  const CategoricalTable table = *census::MakeDataset(10000, 3);
  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(WriteBinaryTable(table, path).ok());

  StatusOr<BinaryShardReader> reader =
      BinaryShardReader::Open(path, table.schema());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->total_rows(), 10000u);
  StatusOr<CategoricalTable> back =
      reader->ReadShard(std::numeric_limits<size_t>::max());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameTable(table, *back);
  std::remove(path.c_str());
}

TEST(ShardIoTest, ShardedReadsConcatenateToTheWholeTable) {
  const CategoricalTable table = *census::MakeDataset(5000, 9);
  const std::string path = TempPath("sharded");
  ASSERT_TRUE(WriteBinaryTable(table, path).ok());

  BinaryShardReader reader = *BinaryShardReader::Open(path, table.schema());
  CategoricalTable rebuilt = *CategoricalTable::Create(table.schema());
  size_t shards = 0;
  while (true) {
    const size_t before = reader.rows_read();
    CategoricalTable shard = *reader.ReadShard(1024);
    if (shard.num_rows() == 0) break;
    EXPECT_EQ(before + shard.num_rows(), reader.rows_read());
    for (size_t i = 0; i < shard.num_rows(); ++i) {
      ASSERT_TRUE(rebuilt.AppendRow(shard.Row(i)).ok());
    }
    ++shards;
  }
  EXPECT_EQ(shards, 5u);  // 4 x 1024 + 904
  ExpectSameTable(table, rebuilt);
  std::remove(path.c_str());
}

TEST(ShardIoTest, SkipToRowSeeksToTheExactRow) {
  const CategoricalTable table = *census::MakeDataset(5000, 9);
  const std::string path = TempPath("skip");
  ASSERT_TRUE(WriteBinaryTable(table, path).ok());

  BinaryShardReader reader = *BinaryShardReader::Open(path, table.schema());
  ASSERT_TRUE(reader.SkipToRow(3210).ok());
  EXPECT_EQ(reader.rows_read(), 3210u);
  CategoricalTable shard = *reader.ReadShard(100);
  ASSERT_EQ(shard.num_rows(), 100u);
  for (size_t i = 0; i < shard.num_rows(); ++i) {
    for (size_t j = 0; j < table.num_attributes(); ++j) {
      ASSERT_EQ(shard.Value(i, j), table.Value(3210 + i, j))
          << "row " << i << " attr " << j;
    }
  }
  // Backward seeks work too (a fresh session re-reads from its range).
  ASSERT_TRUE(reader.SkipToRow(0).ok());
  EXPECT_EQ(reader.rows_read(), 0u);
  CategoricalTable head = *reader.ReadShard(1);
  ASSERT_EQ(head.num_rows(), 1u);
  EXPECT_EQ(head.Value(0, 0), table.Value(0, 0));

  EXPECT_FALSE(reader.SkipToRow(5001).ok());  // past the end
  std::remove(path.c_str());
}

TEST(ShardIoTest, CsvToBinaryToTableEqualsDirectCsvLoad) {
  // The conversion workflow end to end: CSV -> binary -> table must equal
  // the direct CSV load bit for bit.
  const CategoricalTable table = *census::MakeDataset(3000, 21);
  const std::string csv_path = TempPath("conv") + ".csv";
  const std::string bin_path = TempPath("conv") + ".bin";
  ASSERT_TRUE(WriteCsv(table, csv_path).ok());

  const CategoricalTable from_csv = *ReadCsv(csv_path, table.schema());
  ASSERT_TRUE(WriteBinaryTable(from_csv, bin_path).ok());
  BinaryShardReader reader = *BinaryShardReader::Open(bin_path, table.schema());
  const CategoricalTable from_bin =
      *reader.ReadShard(std::numeric_limits<size_t>::max());

  ExpectSameTable(from_csv, from_bin);
  ExpectSameTable(table, from_bin);
  std::remove(csv_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(ShardIoTest, AppendGrowsTheFileToTheConcatenation) {
  const CategoricalTable table = *census::MakeDataset(9000, 11);
  const CategoricalTable head = *CopyRowRange(table, {0, 6000});
  const CategoricalTable mid = *CopyRowRange(table, {6000, 8000});
  const CategoricalTable rest = *CopyRowRange(table, {8000, 9000});

  const std::string path = TempPath("append");
  ASSERT_TRUE(WriteBinaryTable(head, path).ok());
  ASSERT_TRUE(AppendBinaryTable(mid, path).ok());
  ASSERT_TRUE(AppendBinaryTable(rest, path).ok());

  StatusOr<BinaryShardReader> reader =
      BinaryShardReader::Open(path, table.schema());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->total_rows(), 9000u);
  StatusOr<CategoricalTable> read = reader->ReadShard(9000);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectSameTable(*read, table);

  // Growing the file must equal writing the grown table outright.
  const std::string direct = TempPath("append_direct");
  ASSERT_TRUE(WriteBinaryTable(table, direct).ok());
  std::ifstream a(path, std::ios::binary), b(direct, std::ios::binary);
  const std::string a_bytes((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string b_bytes((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(a_bytes, b_bytes);

  // A schema mismatch refuses before any byte is written.
  const CategoricalSchema other = *CategoricalSchema::Create(
      {{"a", {"x", "y"}}, {"b", {"p", "q"}}});
  CategoricalTable foreign = *CategoricalTable::Create(other);
  EXPECT_FALSE(AppendBinaryTable(foreign, path).ok());
  std::remove(path.c_str());
  std::remove(direct.c_str());
}

TEST(ShardIoTest, RejectsMismatchedSchema) {
  const CategoricalTable table = *census::MakeDataset(100, 1);
  const std::string path = TempPath("fingerprint");
  ASSERT_TRUE(WriteBinaryTable(table, path).ok());

  const CategoricalSchema other = *CategoricalSchema::Create(
      {{"a", {"x", "y"}}, {"b", {"p", "q"}}});
  StatusOr<BinaryShardReader> reader = BinaryShardReader::Open(path, other);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("fingerprint"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ShardIoTest, RejectsNonBinaryFile) {
  const std::string path = TempPath("garbage");
  {
    std::ofstream out(path);
    out << "age,fnlwgt\nthis,is,csv\n";
  }
  StatusOr<BinaryShardReader> reader =
      BinaryShardReader::Open(path, census::Schema());
  ASSERT_FALSE(reader.ok());
  std::remove(path.c_str());
}

TEST(ShardIoTest, TruncatedPayloadNamesTheRow) {
  const CategoricalTable table = *census::MakeDataset(1000, 5);
  const std::string path = TempPath("truncated");
  ASSERT_TRUE(WriteBinaryTable(table, path).ok());
  // Chop the file mid-payload: the header still promises 1000 rows.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() / 2);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  BinaryShardReader reader = *BinaryShardReader::Open(path, table.schema());
  StatusOr<CategoricalTable> shard =
      reader.ReadShard(std::numeric_limits<size_t>::max());
  ASSERT_FALSE(shard.ok());
  EXPECT_NE(shard.status().message().find("truncated"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ShardIoTest, OutOfRangeCellIdNamesRowAndColumn) {
  // 20 rows: one full 16-row decode pass plus a tail, in every column.
  const CategoricalTable table = *census::MakeDataset(20, 5);
  const CategoricalSchema& schema = table.schema();
  const size_t m = table.num_attributes();
  const std::string path = TempPath("corrupt");
  ASSERT_TRUE(WriteBinaryTable(table, path).ok());
  const size_t header = 32;
  auto write_cell = [&](size_t row, size_t column, uint16_t id) {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(header + (row * m + column) * 2));
    const char bytes[2] = {static_cast<char>(id & 0xff),
                           static_cast<char>(id >> 8)};
    file.write(bytes, 2);
  };
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (size_t column = 0; column < m; ++column) {
      // The smallest bad id, or one past every u8 id.
      const uint16_t bad = (row + column) % 2 == 0
                               ? static_cast<uint16_t>(schema.Cardinality(column))
                               : uint16_t{0x7fff};
      SCOPED_TRACE("row " + std::to_string(row) + " column " +
                   std::to_string(column) + " id " + std::to_string(bad));
      write_cell(row, column, bad);
      BinaryShardReader reader = *BinaryShardReader::Open(path, schema);
      StatusOr<CategoricalTable> shard =
          reader.ReadShard(std::numeric_limits<size_t>::max());
      write_cell(row, column, table.Value(row, column));
      ASSERT_FALSE(shard.ok());
      const std::string& message = shard.status().message();
      EXPECT_NE(message.find("row " + std::to_string(row) + ":"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("cell id " + std::to_string(bad) +
                             " exceeds cardinality " +
                             std::to_string(schema.Cardinality(column))),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("column '" + schema.attribute(column).name + "'"),
                std::string::npos)
          << message;
    }
  }
  // Restored, the file reads back whole.
  BinaryShardReader reader = *BinaryShardReader::Open(path, schema);
  StatusOr<CategoricalTable> clean =
      reader.ReadShard(std::numeric_limits<size_t>::max());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ExpectSameTable(*clean, table);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace data
}  // namespace frapp
