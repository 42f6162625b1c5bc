#include "frapp/data/shard_io.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "frapp/mining/kernels.h"

namespace frapp {
namespace data {

namespace {

constexpr char kMagic[8] = {'F', 'R', 'A', 'P', 'P', 'B', 'I', 'N'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderBytes = 8 + 4 + 8 + 4 + 8;

void AppendBytes(std::string& buf, const void* data, size_t n) {
  buf.append(static_cast<const char*>(data), n);
}

void AppendU32(std::string& buf, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  AppendBytes(buf, b, 4);
}

void AppendU64(std::string& buf, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  AppendBytes(buf, b, 8);
}

uint32_t ReadU32(const char* b) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(b[i]);
  return v;
}

uint64_t ReadU64(const char* b) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(b[i]);
  return v;
}

/// FNV-1a, fed length-prefixed strings so "ab"+"c" and "a"+"bc" differ.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;

  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void Mix(const std::string& s) {
    Mix(static_cast<uint64_t>(s.size()));
    for (char c : s) {
      h ^= static_cast<uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
  }
};

}  // namespace

uint64_t SchemaFingerprint(const CategoricalSchema& schema) {
  Fnv fnv;
  fnv.Mix(static_cast<uint64_t>(schema.num_attributes()));
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    const Attribute& attr = schema.attribute(j);
    fnv.Mix(attr.name);
    fnv.Mix(static_cast<uint64_t>(attr.cardinality()));
    for (const std::string& label : attr.categories) fnv.Mix(label);
  }
  return fnv.h;
}

Status WriteBinaryTable(const CategoricalTable& table,
                        const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");

  const CategoricalSchema& schema = table.schema();
  const size_t m = schema.num_attributes();
  const size_t n = table.num_rows();

  std::string header;
  header.reserve(kHeaderBytes);
  AppendBytes(header, kMagic, sizeof(kMagic));
  AppendU32(header, kFormatVersion);
  AppendU64(header, SchemaFingerprint(schema));
  AppendU32(header, static_cast<uint32_t>(m));
  AppendU64(header, n);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));

  // Row-major u16 cells, gathered from the columnar table in bounded row
  // blocks so the write buffer stays small for any table size.
  constexpr size_t kRowsPerBlock = 4096;
  std::vector<char> block(kRowsPerBlock * m * 2);
  for (size_t begin = 0; begin < n; begin += kRowsPerBlock) {
    const size_t end = std::min(n, begin + kRowsPerBlock);
    char* p = block.data();
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = 0; j < m; ++j) {
        const uint16_t v = table.Value(i, j);
        *p++ = static_cast<char>(v & 0xff);
        *p++ = static_cast<char>((v >> 8) & 0xff);
      }
    }
    out.write(block.data(), p - block.data());
  }
  if (!out) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

Status AppendBinaryTable(const CategoricalTable& rows,
                         const std::string& path) {
  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!io) return Status::IOError("cannot open '" + path + "' for appending");

  char header[kHeaderBytes];
  io.read(header, kHeaderBytes);
  if (io.gcount() != static_cast<std::streamsize>(kHeaderBytes)) {
    return Status::InvalidArgument("'" + path +
                                   "' is too short to hold a binary header");
  }
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a FRAPP binary shard file");
  }
  const uint32_t version = ReadU32(header + 8);
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        "'" + path + "' has format version " + std::to_string(version) +
        ", this writer understands " + std::to_string(kFormatVersion));
  }
  const CategoricalSchema& schema = rows.schema();
  if (ReadU64(header + 12) != SchemaFingerprint(schema)) {
    return Status::InvalidArgument(
        "'" + path +
        "' was written under a different schema (fingerprint mismatch); "
        "appended rows would mis-label its cells");
  }
  const size_t m = schema.num_attributes();
  if (ReadU32(header + 20) != m) {
    return Status::InvalidArgument(
        "'" + path + "' has " + std::to_string(ReadU32(header + 20)) +
        " columns, appended rows have " + std::to_string(m));
  }
  const uint64_t old_rows = ReadU64(header + 24);

  io.seekp(static_cast<std::streamoff>(kHeaderBytes + old_rows * m * 2));
  constexpr size_t kRowsPerBlock = 4096;
  std::vector<char> block(kRowsPerBlock * m * 2);
  const size_t n = rows.num_rows();
  for (size_t begin = 0; begin < n; begin += kRowsPerBlock) {
    const size_t end = std::min(n, begin + kRowsPerBlock);
    char* p = block.data();
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = 0; j < m; ++j) {
        const uint16_t v = rows.Value(i, j);
        *p++ = static_cast<char>(v & 0xff);
        *p++ = static_cast<char>((v >> 8) & 0xff);
      }
    }
    io.write(block.data(), p - block.data());
  }
  if (!io) return Status::IOError("write failure on '" + path + "'");

  // Cells land before the count: a crash mid-append leaves the header
  // still describing the old, fully-valid prefix.
  std::string count;
  AppendU64(count, old_rows + n);
  io.seekp(24);
  io.write(count.data(), static_cast<std::streamsize>(count.size()));
  io.flush();
  if (!io) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

StatusOr<BinaryShardReader> BinaryShardReader::Open(
    const std::string& path, const CategoricalSchema& schema) {
  BinaryShardReader reader(path, schema);
  reader.in_.open(path, std::ios::binary);
  if (!reader.in_) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  char header[kHeaderBytes];
  reader.in_.read(header, kHeaderBytes);
  if (reader.in_.gcount() != static_cast<std::streamsize>(kHeaderBytes)) {
    return Status::InvalidArgument("'" + path +
                                   "' is too short to hold a binary header");
  }
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a FRAPP binary shard file");
  }
  const uint32_t version = ReadU32(header + 8);
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        "'" + path + "' has format version " + std::to_string(version) +
        ", this reader understands " + std::to_string(kFormatVersion));
  }
  const uint64_t fingerprint = ReadU64(header + 12);
  if (fingerprint != SchemaFingerprint(schema)) {
    return Status::InvalidArgument(
        "'" + path +
        "' was written under a different schema (fingerprint mismatch); "
        "re-convert the source CSV under the current schema");
  }
  const uint32_t columns = ReadU32(header + 20);
  if (columns != schema.num_attributes()) {
    return Status::InvalidArgument(
        "'" + path + "' has " + std::to_string(columns) +
        " columns, schema expects " +
        std::to_string(schema.num_attributes()));
  }
  reader.total_rows_ = ReadU64(header + 24);
  return reader;
}

Status BinaryShardReader::SkipToRow(size_t row) {
  if (row > total_rows_) {
    return Status::OutOfRange("cannot skip to row " + std::to_string(row) +
                              " of '" + path_ + "' (" +
                              std::to_string(total_rows_) + " rows)");
  }
  const size_t m = schema_.num_attributes();
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(kHeaderBytes + row * m * 2));
  if (!in_) {
    return Status::IOError("seek failure on '" + path_ + "'");
  }
  rows_read_ = row;
  return Status::OK();
}

StatusOr<CategoricalTable> BinaryShardReader::ReadShard(size_t max_rows) {
  FRAPP_ASSIGN_OR_RETURN(CategoricalTable table,
                         CategoricalTable::Create(schema_));
  const size_t m = schema_.num_attributes();
  const size_t want = std::min(max_rows, total_rows_ - rows_read_);
  if (want == 0) return table;

  // One buffer for every pull; the slack past the cells is the column
  // decode's (it loads 4 bytes per 2-byte cell).
  const size_t bytes = want * m * 2;
  if (raw_.size() < bytes + kDecodeSlackBytes) {
    raw_.resize(bytes + kDecodeSlackBytes);
  }
  in_.read(reinterpret_cast<char*>(raw_.data()),
           static_cast<std::streamsize>(bytes));
  const size_t got_bytes = static_cast<size_t>(in_.gcount());
  if (got_bytes != bytes) {
    return Status::InvalidArgument(
        "'" + path_ + "' is truncated: header promises " +
        std::to_string(total_rows_) + " rows but the data ends inside row " +
        std::to_string(rows_read_ + got_bytes / (m * 2)));
  }

  // Decode the row-major u16 cells column by column, validating each id
  // against its column's cardinality (the fingerprint pins the schema, but a
  // corrupt or hand-edited payload must not produce out-of-range ids
  // downstream).
  table.Reserve(want);
  table.AppendZeroRows(want);
  const mining::DecodeU16ColumnFn decode =
      mining::ActiveKernels().decode_u16_column;
  bool in_range = true;
  for (size_t j = 0; j < m; ++j) {
    in_range &= decode(raw_.data(), want, m, j,
                       static_cast<uint32_t>(schema_.Cardinality(j)),
                       table.MutableColumnData(j));
  }
  if (!in_range) return OutOfRangeCellError(want);
  rows_read_ += want;
  return table;
}

Status BinaryShardReader::OutOfRangeCellError(size_t rows) const {
  // Row-major, so the error names the first bad cell in file order.
  const size_t m = schema_.num_attributes();
  const uint8_t* p = raw_.data();
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < m; ++j, p += 2) {
      const uint16_t v = static_cast<uint16_t>(p[0] | (p[1] << 8));
      const size_t cardinality = schema_.Cardinality(j);
      if (v >= cardinality) {
        return Status::InvalidArgument(
            "'" + path_ + "' row " + std::to_string(rows_read_ + i) +
            ": cell id " + std::to_string(v) + " exceeds cardinality " +
            std::to_string(cardinality) + " of column '" +
            schema_.attribute(j).name + "'");
      }
    }
  }
  return Status::Internal("cell decode flagged an id that is in range");
}

}  // namespace data
}  // namespace frapp
