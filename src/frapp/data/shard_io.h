// Binary shard format: pre-tokenized categorical rows on disk.
//
// CSV ingest pays a text-parsing tax on every run — splitting lines,
// unquoting cells, resolving labels — even when the same extract is mined
// repeatedly. This format pays it ONCE: a converted file stores category ids
// directly (packed little-endian u16 cells, row-major), so reading a shard
// is one bulk read plus a column scatter, no string work at all.
//
// Layout (all integers little-endian):
//
//   offset  size  field
//   0       8     magic "FRAPPBIN"
//   8       4     u32 format version (currently 1)
//   12      8     u64 schema fingerprint (SchemaFingerprint below)
//   20      4     u32 column count
//   24      8     u64 row count
//   32      ...   rows * columns u16 cells, row-major
//
// The schema fingerprint hashes attribute names, cardinalities and every
// category label IN ORDER, so a file written under one schema refuses to
// open under a different one (renamed column, reordered labels, ...) instead
// of silently mis-labelling cells. Cells are u16 — wider than the in-memory
// u8 table — so the file format will survive a future cardinality bump
// without a version break; values are still validated against the schema's
// cardinalities on read.
//
// BinaryShardReader mirrors ShardedCsvReader (Open validates the header,
// ReadShard pulls bounded row chunks, errors name the offending row), which
// is what lets pipeline::BinaryTableSource slot into the same streaming
// contract as the CSV path. Unlike CSV, the row count is in the header, so
// the reader exposes total_rows() up front.
//
// A pull reads its rows' cells into one buffer the reader keeps for its
// lifetime, then decodes them column by column through the kernel table's
// decode_u16_column (scalar oracle; 16 cells per vpgatherdd at the avx512
// level), which also folds the cardinality check of the whole column into
// one flag. Only a pull whose flag trips walks its cells again, row-major,
// so the error names the first bad cell in file order: its row, id and
// column, exactly as a cell-at-a-time reader would.
//
// Not thread-safe: one reader per stream, advanced by a single producer
// thread (the TableSource contract).

#ifndef FRAPP_DATA_SHARD_IO_H_
#define FRAPP_DATA_SHARD_IO_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/data/table.h"

namespace frapp {
namespace data {

/// Order-sensitive FNV-1a digest of a schema's attribute names,
/// cardinalities and category labels. Two schemas agree on every cell id
/// mapping iff their fingerprints match (modulo hash collisions).
uint64_t SchemaFingerprint(const CategoricalSchema& schema);

/// Writes `table` in the binary shard format. Overwrites `path`.
Status WriteBinaryTable(const CategoricalTable& table, const std::string& path);

/// Appends `rows` to an existing binary shard file in place: validates the
/// header (magic, version, schema fingerprint against `rows`' schema),
/// writes the new cells after the existing ones, then patches the header's
/// row count. This is the producer side of incremental mining — growing a
/// table is O(new rows), and a store-backed mine then pays only the delta.
Status AppendBinaryTable(const CategoricalTable& rows, const std::string& path);

/// Incremental reader over one binary file: header validated on Open, rows
/// materialized in caller-sized chunks (the streaming half the CSV reader
/// also implements).
class BinaryShardReader {
 public:
  /// Opens `path`, validating magic, version, column count and the schema
  /// fingerprint against `schema`.
  static StatusOr<BinaryShardReader> Open(const std::string& path,
                                          const CategoricalSchema& schema);

  /// Materializes up to `max_rows` further rows into a fresh table over the
  /// schema. Returns a zero-row table once the file is exhausted. A file
  /// shorter than its header's row count, or a cell id at or above its
  /// column's cardinality, is a data-corruption error naming the 0-based
  /// row.
  StatusOr<CategoricalTable> ReadShard(size_t max_rows);

  /// Repositions the stream so the next ReadShard starts at global row
  /// `row` (<= total_rows) — one seek, no cells touched. This is what lets a
  /// distributed worker assigned rows [begin, end) of a shared file skip the
  /// preceding workers' rows at zero parse cost.
  Status SkipToRow(size_t row);

  /// Rows materialized so far (the next shard's first global row index).
  size_t rows_read() const { return rows_read_; }

  /// Total rows in the file (from the header — known up front, unlike CSV).
  size_t total_rows() const { return total_rows_; }

  const CategoricalSchema& schema() const { return schema_; }

 private:
  BinaryShardReader(std::string path, CategoricalSchema schema)
      : path_(std::move(path)), schema_(std::move(schema)) {}

  /// The error for the first out-of-range cell, in file order, of the
  /// `rows` rows in raw_ (the pull in progress).
  Status OutOfRangeCellError(size_t rows) const;

  /// Bytes past the last cell that the column decode may read.
  static constexpr size_t kDecodeSlackBytes = 2;

  std::string path_;
  CategoricalSchema schema_;
  std::ifstream in_;
  size_t total_rows_ = 0;
  size_t rows_read_ = 0;
  std::vector<uint8_t> raw_;  // the last pull's cells, plus decode slack
};

}  // namespace data
}  // namespace frapp

#endif  // FRAPP_DATA_SHARD_IO_H_
