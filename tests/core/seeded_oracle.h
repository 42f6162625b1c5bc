// Test-side oracle for the seeded-chunk perturbers: replays a shard's global
// chunk streams on plain random::Pcg64 generators, one per chunk, and
// checks the library's PerturbShardSeeded output against it at every
// supported kernel level. The library draws its chunk streams through
// kernel-made blocks (core::internal::BlockDrawCursor); the oracle draws
// them one Next() at a time, so agreement means the blocks change how the
// stream is made, never which draws a row gets.

#ifndef FRAPP_TESTS_CORE_SEEDED_ORACLE_H_
#define FRAPP_TESTS_CORE_SEEDED_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "frapp/core/seeded_chunking.h"
#include "frapp/data/census.h"
#include "frapp/mining/kernels.h"
#include "frapp/random/rng.h"

namespace frapp {
namespace core {
namespace testing_oracle {

/// For census rows counts {0, 1, 8191, 8192, 8193, 3 * 8192 + 5} placed at
/// global row 0 and at global row 5 * 8192, and at every supported kernel
/// level, expects perturber.PerturbShardSeeded(view, seed) to equal the
/// oracle: chunk c of the view runs oracle_row(in_cols, out_cols, i, rng)
/// over its rows with rng = ChunkRng(seed, global chunk index).
template <typename Perturber, typename OracleRow>
void ExpectShardSeededMatchesPcg64Oracle(const Perturber& perturber,
                                         uint64_t seed, OracleRow oracle_row) {
  constexpr size_t kChunk = internal::kPerturbChunkRows;
  const data::CategoricalTable source =
      *data::census::MakeDataset(3 * kChunk + 5, 29);
  for (size_t rows : {size_t{0}, size_t{1}, kChunk - 1, kChunk, kChunk + 1,
                      3 * kChunk + 5}) {
    for (size_t global_begin : {size_t{0}, 5 * kChunk}) {
      SCOPED_TRACE("rows=" + std::to_string(rows) +
                   " global_begin=" + std::to_string(global_begin));
      const data::ShardView view{&source, data::RowRange{0, rows},
                                 global_begin};
      data::CategoricalTable want =
          *data::CategoricalTable::Create(source.schema());
      want.AppendZeroRows(rows);
      internal::ColumnPointers cols(source, &want);
      for (size_t begin = 0; begin < rows; begin += kChunk) {
        random::Pcg64 rng =
            internal::ChunkRng(seed, (global_begin + begin) / kChunk);
        for (size_t i = begin; i < std::min(rows, begin + kChunk); ++i) {
          oracle_row(cols.in.data(), cols.out.data(), i, rng);
        }
      }
      for (mining::KernelLevel level :
           {mining::KernelLevel::kScalar, mining::KernelLevel::kHarleySeal,
            mining::KernelLevel::kAvx2, mining::KernelLevel::kAvx512}) {
        if (!mining::KernelLevelSupported(level)) continue;
        SCOPED_TRACE(mining::KernelLevelName(level));
        mining::internal::SetActiveKernelsForTest(level);
        const StatusOr<data::CategoricalTable> got =
            perturber.PerturbShardSeeded(view, seed, /*num_threads=*/2);
        mining::internal::ResetActiveKernelsForTest();
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got->num_rows(), rows);
        for (size_t j = 0; j < source.num_attributes(); ++j) {
          ASSERT_EQ(got->Column(j), want.Column(j)) << "column " << j;
        }
      }
    }
  }
}

}  // namespace testing_oracle
}  // namespace core
}  // namespace frapp

#endif  // FRAPP_TESTS_CORE_SEEDED_ORACLE_H_
