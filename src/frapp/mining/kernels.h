// Vectorized bitmap kernels with runtime CPU dispatch.
//
// Every reconstructing estimator in the stack bottoms out in one of two
// folds over uint64_t bitmaps: popcount of a single bitmap (1-itemset
// supports) and popcount of the word-wise AND of k bitmaps (k-itemset
// supports, boolean superset counts). Every categorical index build bottoms
// out in one transpose: a byte column of category ids into one bitmap plane
// per category. This header exposes all three as function pointers resolved
// ONCE per process into the widest implementation the host supports:
//
//   scalar       portable word loop + __builtin_popcountll (always compiled);
//                the transpose ORs each 64-row block into a small per-block
//                accumulator array and stores each plane word once
//   harley-seal  portable carry-save-adder accumulation: 16-word blocks fold
//                into a bit-sliced counter network, so only one popcount is
//                paid per 16 words — the long-bitmap-run rung for hosts
//                without wide SIMD (always compiled, never auto-picked over
//                a SIMD level)
//   avx2         256-bit AND chains, nibble-lookup (vpshufb) popcount folded
//                with vpsadbw — the Mula technique; the transpose compares
//                64 ids against each category (vpcmpeqb) and packs the
//                result with vpmovmskb
//   avx512       512-bit AND chains + native vpopcntq (AVX-512 VPOPCNTDQ),
//                masked loads for the tail; the transpose is one AVX-512BW
//                byte compare into a 64-bit mask per category
//
// Counts are INTEGERS, so every level returns bit-identical results on any
// input — vectorization reorders only additions of non-negative word
// popcounts, never changes them — and the transpose is a pure bit
// permutation. That makes the dispatch level invisible to the seeded-chunk
// grid-bit-identity invariant, and testable by direct equality
// (tests/mining/kernels_test.cc).
//
// The environment variable FRAPP_FORCE_KERNEL={scalar,avx2,avx512} pins the
// dispatch for testing and benchmarking; forcing a level the host cannot run
// falls back to the best supported one (with a one-time stderr warning)
// instead of crashing on SIGILL. The SIMD bodies are compiled via GCC/Clang
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

/// One resolved implementation set. All members non-null.
struct KernelTable {
  IntersectPopcountFn intersect_popcount;
  PopcountRangeFn popcount_range;
  TransposeBytesFn transpose_bytes;
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
