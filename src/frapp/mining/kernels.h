// Vectorized bitmap kernels with runtime CPU dispatch.
//
// Every reconstructing estimator in the stack bottoms out in one of two
// folds over uint64_t bitmaps: popcount of a single bitmap (1-itemset
// supports) and popcount of the word-wise AND of k bitmaps (k-itemset
// supports, boolean superset counts). Every categorical index build bottoms
// out in one transpose: a byte column of category ids into one bitmap plane
// per category. MASK's perturbation bottoms out in one stream of Bernoulli
// bits: one PCG64 draw per one-hot bit, packed LSB-first. The gamma
// perturbers bottom out in raw PCG64 blocks, and FRAPPBIN ingest in the
// decode of one u16 cell column into category bytes. This header exposes
// all six as function pointers resolved ONCE per process into the widest
// implementation the host supports:
//
//   scalar       portable word loop + __builtin_popcountll (always compiled);
//                the transpose ORs each 64-row block into a small per-block
//                accumulator array and stores each plane word once; the
//                Bernoulli bits and PCG64 blocks run the plain one-stream
//                LCG loop; the column decode reads one cell at a time
//   harley-seal  portable carry-save-adder accumulation: 16-word blocks fold
//                into a bit-sliced counter network, so only one popcount is
//                paid per 16 words — the long-bitmap-run rung for hosts
//                without wide SIMD (always compiled, never auto-picked over
//                a SIMD level); scalar everything else
//   avx2         256-bit AND chains, nibble-lookup (vpshufb) popcount folded
//                with vpsadbw — the Mula technique; the transpose compares
//                64 ids against each category (vpcmpeqb) and packs the
//                result with vpmovmskb; scalar Bernoulli bits, PCG64 blocks
//                and column decode
//   avx512       512-bit AND chains + native vpopcntq (AVX-512 VPOPCNTDQ),
//                masked loads for the tail; the transpose is one AVX-512BW
//                byte compare into a 64-bit mask per category; the Bernoulli
//                bits and PCG64 blocks run 16 jump-ahead lanes of the one
//                stream (below), with AVX-512DQ's vpmullq in the 128-bit
//                multiply; the column decode gathers 16 cells per vpgatherdd
//                and narrows them with vpmovdb
//
// Counts are INTEGERS, so every level returns bit-identical results on any
// input — vectorization reorders only additions of non-negative word
// popcounts, never changes them — and the transpose is a pure bit
// permutation. That makes the dispatch level invisible to the seeded-chunk
// grid-bit-identity invariant, and testable by direct equality
// (tests/mining/kernels_test.cc).
//
// The Bernoulli bits are exact too, by two identities. The threshold:
// NextDouble() < q holds exactly when (Next() >> 11) < T with
// T = ceil(q * 2^53) (random::Pcg64::BernoulliThreshold), so a draw is one
// integer compare. The jump-ahead: the PCG64 state L steps on is
// M^L * s + inc * (1 + M + ... + M^(L-1)) mod 2^128
// (random::Pcg64::JumpCoefficients), so L lanes started on consecutive
// states and each stepped L at a time walk the one stream in order, lane j
// making draws j, j + L, j + 2L, ... Every level therefore writes the same
// bits the sequential NextBernoulli(q) loop decides, and the same raw draws,
// in the same order, as n calls of Next().
//
// The column decode is exact by construction: every level reads the same
// two bytes per cell and folds the same `>= cardinality` test, so only the
// load width differs.
//
// The environment variable FRAPP_FORCE_KERNEL={scalar,harley-seal,avx2,
// avx512} pins the dispatch for testing and benchmarking; forcing a level the
// host cannot run falls back to the best supported one (with a one-time
// stderr warning) instead of crashing on SIGILL. The SIMD bodies are compiled via GCC/Clang
// `target` attributes, so no special compiler flags are needed and the
// binary stays runnable on any x86-64; non-x86 builds compile the scalar
// level only. The dispatch table is the seam future backends (NEON, GPU
// count offload) plug into.

#ifndef FRAPP_MINING_KERNELS_H_
#define FRAPP_MINING_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace frapp {
namespace mining {

/// Dispatch levels. Values index internal tables; preference order is
/// kAvx512 > kAvx2 > kHarleySeal > kScalar (BestSupportedLevel), NOT the
/// numeric order — kHarleySeal was appended to keep existing values stable.
enum class KernelLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
  kHarleySeal = 3,
};

/// popcount(maps[0][w] & ... & maps[k-1][w]) summed over w in [0, words).
/// Requires k >= 1; maps[j] must each hold `words` words.
using IntersectPopcountFn = uint64_t (*)(const uint64_t* const* maps,
                                         size_t k, size_t words);

/// popcount of one word range.
using PopcountRangeFn = uint64_t (*)(const uint64_t* data, size_t words);

/// Byte-column to bitmap-plane transpose of rows [0, rows): for every
/// category c < cardinality (<= 256), overwrites words [0, ceil(rows/64)) of
/// plane c, which starts at planes + c * stride, so that bit r of word w is
/// set iff col[64 * w + r] == c. Bits past `rows` are 0, and ids >=
/// cardinality set no bit. Requires stride >= ceil(rows/64).
using TransposeBytesFn = void (*)(const uint8_t* col, size_t rows,
                                  size_t cardinality, uint64_t* planes,
                                  size_t stride);

/// Bernoulli bit stream of n PCG64 draws: from LCG `state` and `increment`
/// (random::Pcg64::state() / increment()), draw i is the output of the state
/// i + 1 steps on, and bit i of out (bit i % 64 of word i / 64) is set iff
/// that draw x has (x >> 11) < threshold. Writes words [0, ceil(n / 64)) of
/// out; bits past n are 0. Requires threshold <= 2^53. Leaves the caller's
/// generator untouched: it advances by n itself (random::Pcg64::Advance).
using BernoulliBitsFn = void (*)(unsigned __int128 state,
                                 unsigned __int128 increment,
                                 uint64_t threshold, size_t n, uint64_t* out);

/// Raw PCG64 block: writes the n outputs that n calls of Next() on the
/// generator at LCG `*state` with `increment` would return, out[i] being
/// draw i, and leaves *state where those n calls leave it (unchanged for
/// n = 0). The gamma perturbers' per-row loops read their chunk streams
/// through such blocks (core::internal::BlockDrawCursor).
using Pcg64BlockFn = void (*)(unsigned __int128* state,
                              unsigned __int128 increment, size_t n,
                              uint64_t* out);

/// One column of a row-major little-endian u16 cell grid of `rows` rows by
/// `columns` cells: out[i] = low byte of cell (i, column), the cell starting
/// at byte 2 * (i * columns + column) of `cells`. Returns false iff some
/// cell id of the column is >= cardinality (out then holds unspecified
/// bytes). Wider levels load 4 bytes per cell, so `cells` must stay
/// readable for 2 bytes past the last cell of the grid.
using DecodeU16ColumnFn = bool (*)(const uint8_t* cells, size_t rows,
                                   size_t columns, size_t column,
                                   uint32_t cardinality, uint8_t* out);

/// One resolved implementation set. All members non-null.
struct KernelTable {
  IntersectPopcountFn intersect_popcount;
  PopcountRangeFn popcount_range;
  TransposeBytesFn transpose_bytes;
  BernoulliBitsFn bernoulli_bits;
  Pcg64BlockFn pcg64_block;
  DecodeU16ColumnFn decode_u16_column;
  KernelLevel level;
};

/// The process-wide dispatch table: resolved once on first use from the
/// host's ISA features and FRAPP_FORCE_KERNEL, immutable afterwards (except
/// via the test-only override below).
const KernelTable& ActiveKernels();

/// "scalar" / "harley-seal" / "avx2" / "avx512".
const char* KernelLevelName(KernelLevel level);

/// Parses a FRAPP_FORCE_KERNEL value; nullopt for anything unknown.
std::optional<KernelLevel> ParseKernelLevelName(const std::string& name);

/// True when `level` is both compiled in and runnable on this host.
bool KernelLevelSupported(KernelLevel level);

/// The widest supported level (what ActiveKernels resolves to absent a
/// force override).
KernelLevel BestSupportedLevel();

/// The implementation set of one level; level must be supported. Lets the
/// equivalence tests compare levels directly without touching dispatch.
const KernelTable& KernelsForLevel(KernelLevel level);

namespace internal {
/// Pure resolution rule: the forced level when supported, otherwise the
/// best supported one. Exposed for unit tests; `ActiveKernels` applies it
/// to FRAPP_FORCE_KERNEL once.
KernelLevel ResolveKernelLevel(std::optional<KernelLevel> forced);

/// Test-only: swaps the active dispatch table (e.g. to prove end-to-end
/// mines are bit-identical across levels inside ONE process). Not safe
/// concurrently with counting; tests restore with ResetActiveKernels.
void SetActiveKernelsForTest(KernelLevel level);
void ResetActiveKernelsForTest();
}  // namespace internal

}  // namespace mining
}  // namespace frapp

#endif  // FRAPP_MINING_KERNELS_H_
