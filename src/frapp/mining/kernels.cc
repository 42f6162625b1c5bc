#include "frapp/mining/kernels.h"

#include <atomic>
#include <climits>
#include <cstdlib>
#include <iostream>
#include <mutex>

#include "frapp/common/cpuinfo.h"
#include "frapp/random/rng.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FRAPP_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace frapp {
namespace mining {

namespace {

// ------------------------------------------------------------------ scalar --

uint64_t PopcountRangeScalar(const uint64_t* data, size_t words) {
  uint64_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    count += static_cast<uint64_t>(__builtin_popcountll(data[w]));
  }
  return count;
}

uint64_t IntersectPopcountScalar(const uint64_t* const* maps, size_t k,
                                 size_t words) {
  if (k == 1) return PopcountRangeScalar(maps[0], words);
  uint64_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t acc = maps[0][w] & maps[1][w];
    for (size_t j = 2; j < k; ++j) acc &= maps[j][w];
    count += static_cast<uint64_t>(__builtin_popcountll(acc));
  }
  return count;
}

void TransposeBytesScalar(const uint8_t* col, size_t rows, size_t cardinality,
                          uint64_t* planes, size_t stride) {
  // One accumulator word per possible id, so out-of-range ids land in slots
  // that are never stored. Only the [0, cardinality) slots are stored and
  // reset per block.
  uint64_t acc[256] = {};
  for (size_t w = 0; w * 64 < rows; ++w) {
    const uint8_t* block = col + w * 64;
    const size_t n = rows - w * 64 < 64 ? rows - w * 64 : 64;
    for (size_t r = 0; r < n; ++r) acc[block[r]] |= 1ull << r;
    for (size_t c = 0; c < cardinality; ++c) {
      planes[c * stride + w] = acc[c];
      acc[c] = 0;
    }
  }
}

void BernoulliBitsScalar(unsigned __int128 state, unsigned __int128 increment,
                         uint64_t threshold, size_t n, uint64_t* out) {
  for (size_t w = 0; w * 64 < n; ++w) {
    const size_t bits = n - w * 64 < 64 ? n - w * 64 : 64;
    uint64_t word = 0;
    for (size_t b = 0; b < bits; ++b) {
      state = state * random::Pcg64::kMultiplier + increment;
      const uint64_t draw = random::Pcg64::Output(state);
      word |= static_cast<uint64_t>((draw >> 11) < threshold) << b;
    }
    out[w] = word;
  }
}

void Pcg64BlockScalar(unsigned __int128* state, unsigned __int128 increment,
                      size_t n, uint64_t* out) {
  unsigned __int128 s = *state;
  for (size_t i = 0; i < n; ++i) {
    s = s * random::Pcg64::kMultiplier + increment;
    out[i] = random::Pcg64::Output(s);
  }
  *state = s;
}

bool DecodeU16ColumnScalar(const uint8_t* cells, size_t rows, size_t columns,
                           size_t column, uint32_t cardinality, uint8_t* out) {
  const uint8_t* cell = cells + 2 * column;
  bool out_of_range = false;
  for (size_t i = 0; i < rows; ++i, cell += 2 * columns) {
    const uint32_t id = cell[0] | (static_cast<uint32_t>(cell[1]) << 8);
    out_of_range |= id >= cardinality;
    out[i] = static_cast<uint8_t>(id);
  }
  return !out_of_range;
}

// ------------------------------------------------------------- harley-seal --
//
// Carry-save-adder accumulation (Harley-Seal, as popularized by Mula,
// Kurz & Lemire, "Faster Population Counts"): sixteen words at a time are
// folded through a CSA network into bit-sliced counters ones/twos/fours/
// eights, and only the `sixteens` plane pays a popcount — 1 popcount per 16
// words instead of 16, traded for ~5 cheap logic ops per word. Pure integer
// arithmetic, so the result is exactly the scalar sum for any input; the
// win is on very long bitmap runs on hosts without wide SIMD.

/// One carry-save adder: (h, l) = a + b + c as (carry, sum) bit planes.
inline void CsaFold(uint64_t& h, uint64_t& l, uint64_t a, uint64_t b,
                    uint64_t c) {
  const uint64_t u = a ^ b;
  h = (a & b) | (u & c);
  l = u ^ c;
}

/// Harley-Seal fold over `words` words produced by `load(w)` (the w-th
/// word of the conceptual stream). Shared by the range and intersect
/// kernels so the accumulation network exists exactly once.
template <typename LoadWord>
inline uint64_t HarleySealFold(size_t words, LoadWord load) {
  uint64_t total = 0;
  uint64_t ones = 0, twos = 0, fours = 0, eights = 0;
  uint64_t twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
  size_t w = 0;
  for (; w + 16 <= words; w += 16) {
    CsaFold(twos_a, ones, ones, load(w + 0), load(w + 1));
    CsaFold(twos_b, ones, ones, load(w + 2), load(w + 3));
    CsaFold(fours_a, twos, twos, twos_a, twos_b);
    CsaFold(twos_a, ones, ones, load(w + 4), load(w + 5));
    CsaFold(twos_b, ones, ones, load(w + 6), load(w + 7));
    CsaFold(fours_b, twos, twos, twos_a, twos_b);
    CsaFold(eights_a, fours, fours, fours_a, fours_b);
    CsaFold(twos_a, ones, ones, load(w + 8), load(w + 9));
    CsaFold(twos_b, ones, ones, load(w + 10), load(w + 11));
    CsaFold(fours_a, twos, twos, twos_a, twos_b);
    CsaFold(twos_a, ones, ones, load(w + 12), load(w + 13));
    CsaFold(twos_b, ones, ones, load(w + 14), load(w + 15));
    CsaFold(fours_b, twos, twos, twos_a, twos_b);
    CsaFold(eights_b, fours, fours, fours_a, fours_b);
    CsaFold(sixteens, eights, eights, eights_a, eights_b);
    total += static_cast<uint64_t>(__builtin_popcountll(sixteens));
  }
  total = 16 * total +
          8 * static_cast<uint64_t>(__builtin_popcountll(eights)) +
          4 * static_cast<uint64_t>(__builtin_popcountll(fours)) +
          2 * static_cast<uint64_t>(__builtin_popcountll(twos)) +
          static_cast<uint64_t>(__builtin_popcountll(ones));
  for (; w < words; ++w) {
    total += static_cast<uint64_t>(__builtin_popcountll(load(w)));
  }
  return total;
}

uint64_t PopcountRangeHarleySeal(const uint64_t* data, size_t words) {
  return HarleySealFold(words, [data](size_t w) { return data[w]; });
}

uint64_t IntersectPopcountHarleySeal(const uint64_t* const* maps, size_t k,
                                     size_t words) {
  if (k == 1) return PopcountRangeHarleySeal(maps[0], words);
  return HarleySealFold(words, [maps, k](size_t w) {
    uint64_t acc = maps[0][w] & maps[1][w];
    for (size_t j = 2; j < k; ++j) acc &= maps[j][w];
    return acc;
  });
}

#ifdef FRAPP_KERNELS_X86

// -------------------------------------------------------------------- avx2 --
//
// Popcount via the nibble-lookup (vpshufb) technique: each byte of the AND
// result is split into two nibbles whose set-bit counts come from a 16-entry
// in-register table, then vpsadbw folds the 32 byte-counts into 4 u64 lanes
// added into a vector accumulator. Exact integer arithmetic throughout; the
// u64 lane sums cannot overflow before words ~ 2^56.

__attribute__((target("avx2"))) inline __m256i Popcount256(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline uint64_t HorizontalSum256(__m256i acc) {
  uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

__attribute__((target("avx2"))) uint64_t PopcountRangeAvx2(const uint64_t* data,
                                                           size_t words) {
  __m256i acc = _mm256_setzero_si256();
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + w));
    acc = _mm256_add_epi64(acc, Popcount256(v));
  }
  uint64_t count = HorizontalSum256(acc);
  for (; w < words; ++w) {
    count += static_cast<uint64_t>(__builtin_popcountll(data[w]));
  }
  return count;
}

__attribute__((target("avx2"))) uint64_t IntersectPopcountAvx2(
    const uint64_t* const* maps, size_t k, size_t words) {
  if (k == 1) return PopcountRangeAvx2(maps[0], words);
  __m256i acc = _mm256_setzero_si256();
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(maps[0] + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(maps[1] + w)));
    for (size_t j = 2; j < k; ++j) {
      v = _mm256_and_si256(
          v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(maps[j] + w)));
    }
    acc = _mm256_add_epi64(acc, Popcount256(v));
  }
  uint64_t count = HorizontalSum256(acc);
  for (; w < words; ++w) {
    uint64_t word = maps[0][w] & maps[1][w];
    for (size_t j = 2; j < k; ++j) word &= maps[j][w];
    count += static_cast<uint64_t>(__builtin_popcountll(word));
  }
  return count;
}

__attribute__((target("avx2"))) void TransposeBytesAvx2(const uint8_t* col,
                                                        size_t rows,
                                                        size_t cardinality,
                                                        uint64_t* planes,
                                                        size_t stride) {
  const size_t blocks = rows / 64;
  for (size_t w = 0; w < blocks; ++w) {
    const __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + w * 64));
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + w * 64 + 32));
    for (size_t c = 0; c < cardinality; ++c) {
      const __m256i id = _mm256_set1_epi8(static_cast<char>(c));
      const uint32_t lo_bits = static_cast<uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, id)));
      const uint32_t hi_bits = static_cast<uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, id)));
      planes[c * stride + w] = (static_cast<uint64_t>(hi_bits) << 32) | lo_bits;
    }
  }
  TransposeBytesScalar(col + blocks * 64, rows - blocks * 64, cardinality,
                       planes + blocks, stride);
}

// ------------------------------------------------------------------ avx512 --
//
// Native per-lane popcount (vpopcntq, AVX-512 VPOPCNTDQ) over 512-bit AND
// chains; the sub-8-word tail is handled with a masked load so the whole
// fold stays in vector registers.
//
// GCC's avx512fintrin.h trips -Wmaybe-uninitialized on every maskz load
// (PR105593: the zero-fill source operand looks uninitialized after
// inlining); masked-out lanes are zeroed by the instruction, so silence it
// for these bodies only.

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

__attribute__((target("avx512f,avx512vpopcntdq"))) uint64_t PopcountRangeAvx512(
    const uint64_t* data, size_t words) {
  __m512i acc = _mm512_setzero_si512();
  size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_loadu_si512(data + w)));
  }
  const size_t tail = words - w;
  if (tail != 0) {
    const __mmask8 mask = static_cast<__mmask8>((1u << tail) - 1u);
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(_mm512_maskz_loadu_epi64(mask, data + w)));
  }
  return static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
}

__attribute__((target("avx512f,avx512vpopcntdq"))) uint64_t
IntersectPopcountAvx512(const uint64_t* const* maps, size_t k, size_t words) {
  if (k == 1) return PopcountRangeAvx512(maps[0], words);
  __m512i acc = _mm512_setzero_si512();
  size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    __m512i v = _mm512_and_si512(_mm512_loadu_si512(maps[0] + w),
                                 _mm512_loadu_si512(maps[1] + w));
    for (size_t j = 2; j < k; ++j) {
      v = _mm512_and_si512(v, _mm512_loadu_si512(maps[j] + w));
    }
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  const size_t tail = words - w;
  if (tail != 0) {
    const __mmask8 mask = static_cast<__mmask8>((1u << tail) - 1u);
    __m512i v = _mm512_and_si512(_mm512_maskz_loadu_epi64(mask, maps[0] + w),
                                 _mm512_maskz_loadu_epi64(mask, maps[1] + w));
    for (size_t j = 2; j < k; ++j) {
      v = _mm512_and_si512(v, _mm512_maskz_loadu_epi64(mask, maps[j] + w));
    }
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  return static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
}

#pragma GCC diagnostic pop

__attribute__((target("avx512f,avx512bw"))) void TransposeBytesAvx512(
    const uint8_t* col, size_t rows, size_t cardinality, uint64_t* planes,
    size_t stride) {
  const size_t blocks = rows / 64;
  for (size_t w = 0; w < blocks; ++w) {
    const __m512i ids = _mm512_loadu_si512(col + w * 64);
    for (size_t c = 0; c < cardinality; ++c) {
      planes[c * stride + w] = static_cast<uint64_t>(
          _mm512_cmpeq_epi8_mask(ids, _mm512_set1_epi8(static_cast<char>(c))));
    }
  }
  TransposeBytesScalar(col + blocks * 64, rows - blocks * 64, cardinality,
                       planes + blocks, stride);
}

// Bernoulli bits and PCG64 blocks: 16 lanes of the one PCG64 stream in two
// zmm groups of 8 (two independent multiply chains). Lane j starts on the
// state j + 1 steps on and then jumps 16 steps at a time, so one pass over
// both groups makes draws [16t, 16t + 16) in lane order. A 128-bit state is a (lo, hi) pair
// of 64-bit lanes. Of the product with the jump multiplier (a_lo, a_hi),
// lo * a_lo is needed in full (128 bits), built from four 32x32 vpmuludq
// partials; the cross terms lo * a_hi and hi * a_lo only in their low 64
// bits, which is AVX-512DQ's vpmullq.

// Same GCC false positive as above, here on the unmasked shift, multiply,
// rotate, gather and narrowing intrinsics.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// One 128-bit constant broadcast for StepLcgLanes: its low and high words,
/// and the high 32 bits of the low word where vpmuludq reads (the low 32
/// bits of each 64-bit lane).
struct Broadcast128 {
  __m512i lo, lo_h, hi;
};

__attribute__((target("avx512f"))) inline Broadcast128 BroadcastWords(
    unsigned __int128 x) {
  const uint64_t lo = static_cast<uint64_t>(x);
  return {_mm512_set1_epi64(static_cast<long long>(lo)),
          _mm512_set1_epi64(static_cast<long long>(lo >> 32)),
          _mm512_set1_epi64(
              static_cast<long long>(static_cast<uint64_t>(x >> 64)))};
}

/// state = mult * state + plus (mod 2^128) on 8 lanes.
__attribute__((target("avx512f,avx512dq"))) inline void StepLcgLanes(
    __m512i& lo, __m512i& hi, const Broadcast128& mult, __m512i plus_lo,
    __m512i plus_hi) {
  const __m512i low32 = _mm512_set1_epi64(0xffffffffLL);
  const __m512i lo_h = _mm512_srli_epi64(lo, 32);
  const __m512i p00 = _mm512_mul_epu32(lo, mult.lo);
  const __m512i p01 = _mm512_mul_epu32(lo, mult.lo_h);
  const __m512i p10 = _mm512_mul_epu32(lo_h, mult.lo);
  const __m512i p11 = _mm512_mul_epu32(lo_h, mult.lo_h);
  // Schoolbook carries; neither sum can overflow 64 bits.
  const __m512i t = _mm512_add_epi64(p10, _mm512_srli_epi64(p00, 32));
  const __m512i u = _mm512_add_epi64(p01, _mm512_and_si512(t, low32));
  const __m512i prod_hi = _mm512_add_epi64(
      _mm512_add_epi64(p11, _mm512_srli_epi64(t, 32)), _mm512_srli_epi64(u, 32));
  // Low 32 bits from p00, high 32 from u.
  const __m512i prod_lo =
      _mm512_mask_blend_epi32(0xaaaa, p00, _mm512_slli_epi64(u, 32));
  const __m512i cross = _mm512_add_epi64(_mm512_mullo_epi64(lo, mult.hi),
                                         _mm512_mullo_epi64(hi, mult.lo));
  lo = _mm512_add_epi64(prod_lo, plus_lo);
  const __mmask8 carry = _mm512_cmplt_epu64_mask(lo, plus_lo);
  hi = _mm512_add_epi64(_mm512_add_epi64(prod_hi, cross), plus_hi);
  hi = _mm512_mask_add_epi64(hi, carry, hi, _mm512_set1_epi64(1));
}

/// 16 lanes of one PCG64 stream in two groups of 8 (a: lanes 0-7, b: lanes
/// 8-15): lane j starts on the state j + 1 steps on, and StepLanes moves
/// every lane 16 steps, so each pass over a then b makes the next 16 draws
/// in lane order.
struct LcgLanes {
  __m512i lo_a, hi_a, lo_b, hi_b;
  Broadcast128 jump;
  __m512i plus_lo, plus_hi;
};

__attribute__((target("avx512f"))) inline LcgLanes StartLcgLanes(
    unsigned __int128 state, unsigned __int128 increment) {
  constexpr size_t kLanes = 16;
  alignas(64) uint64_t lo[kLanes], hi[kLanes];
  for (size_t j = 0; j < kLanes; ++j) {
    state = state * random::Pcg64::kMultiplier + increment;
    lo[j] = static_cast<uint64_t>(state);
    hi[j] = static_cast<uint64_t>(state >> 64);
  }
  unsigned __int128 mult, plus;
  random::Pcg64::JumpCoefficients(kLanes, increment, &mult, &plus);
  return {_mm512_load_si512(lo),
          _mm512_load_si512(hi),
          _mm512_load_si512(lo + 8),
          _mm512_load_si512(hi + 8),
          BroadcastWords(mult),
          _mm512_set1_epi64(static_cast<long long>(static_cast<uint64_t>(plus))),
          _mm512_set1_epi64(
              static_cast<long long>(static_cast<uint64_t>(plus >> 64)))};
}

__attribute__((target("avx512f,avx512dq"))) inline void StepLanes(
    LcgLanes& lanes) {
  StepLcgLanes(lanes.lo_a, lanes.hi_a, lanes.jump, lanes.plus_lo,
               lanes.plus_hi);
  StepLcgLanes(lanes.lo_b, lanes.hi_b, lanes.jump, lanes.plus_lo,
               lanes.plus_hi);
}

/// PCG-XSL-RR output of 8 lanes (random::Pcg64::Output): xor-fold, then
/// rotate right by the state's top 6 bits.
__attribute__((target("avx512f"))) inline __m512i OutputLanes(__m512i lo,
                                                              __m512i hi) {
  return _mm512_rorv_epi64(_mm512_xor_si512(hi, lo), _mm512_srli_epi64(hi, 58));
}

/// Bit j set iff lane j's PCG-XSL-RR output x has (x >> 11) < threshold.
__attribute__((target("avx512f"))) inline unsigned BernoulliLanes(
    __m512i lo, __m512i hi, __m512i threshold) {
  return _mm512_cmplt_epu64_mask(_mm512_srli_epi64(OutputLanes(lo, hi), 11),
                                 threshold);
}

__attribute__((target("avx512f,avx512dq"))) void BernoulliBitsAvx512(
    unsigned __int128 state, unsigned __int128 increment, uint64_t threshold,
    size_t n, uint64_t* out) {
  if (n == 0) return;
  LcgLanes lanes = StartLcgLanes(state, increment);
  const __m512i t = _mm512_set1_epi64(static_cast<long long>(threshold));
  const size_t words = (n + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    uint64_t word = 0;
    for (unsigned k = 0; k < 4; ++k) {
      const unsigned bits = BernoulliLanes(lanes.lo_a, lanes.hi_a, t) |
                            (BernoulliLanes(lanes.lo_b, lanes.hi_b, t) << 8);
      word |= static_cast<uint64_t>(bits) << (16 * k);
      StepLanes(lanes);
    }
    out[w] = word;
  }
  // The last word's draws past n were made but are not part of the stream.
  if (n % 64 != 0) out[words - 1] &= (uint64_t{1} << (n % 64)) - 1;
}

__attribute__((target("avx512f,avx512dq"))) void Pcg64BlockAvx512(
    unsigned __int128* state, unsigned __int128 increment, size_t n,
    uint64_t* out) {
  // Below a few lane passes, starting the lanes costs more than they save.
  if (n < 64) {
    Pcg64BlockScalar(state, increment, n, out);
    return;
  }
  LcgLanes lanes = StartLcgLanes(*state, increment);
  // Every pass but the last stores 16 draws straight from the lanes. The
  // last 1-16 draws are read off the lanes' states, which also hold the
  // state draw n - 1 left: after `passes` steps lane j stands on state
  // 16 * passes + j + 1, the one draw 16 * passes + j is the output of.
  const size_t passes = (n - 1) / 16;
  for (size_t p = 0; p < passes; ++p) {
    _mm512_storeu_si512(out + 16 * p, OutputLanes(lanes.lo_a, lanes.hi_a));
    _mm512_storeu_si512(out + 16 * p + 8, OutputLanes(lanes.lo_b, lanes.hi_b));
    StepLanes(lanes);
  }
  alignas(64) uint64_t lo[16], hi[16];
  _mm512_store_si512(lo, lanes.lo_a);
  _mm512_store_si512(lo + 8, lanes.lo_b);
  _mm512_store_si512(hi, lanes.hi_a);
  _mm512_store_si512(hi + 8, lanes.hi_b);
  const size_t rest = n - 16 * passes;  // 1..16
  unsigned __int128 lane_state = 0;
  for (size_t j = 0; j < rest; ++j) {
    lane_state = (static_cast<unsigned __int128>(hi[j]) << 64) | lo[j];
    out[16 * passes + j] = random::Pcg64::Output(lane_state);
  }
  *state = lane_state;
}

// Column decode: vpgatherdd loads the 4 bytes at each of 16 rows' cells
// (the cell and the next one's low half, hence the 2 bytes of slack the
// contract asks for), the low 16 bits are the id, one unsigned compare per
// pass ORs the range check into a mask, and vpmovdb narrows the 16 ids to
// bytes.
__attribute__((target("avx512f"))) bool DecodeU16ColumnAvx512(
    const uint8_t* cells, size_t rows, size_t columns, size_t column,
    uint32_t cardinality, uint8_t* out) {
  const size_t row_bytes = 2 * columns;
  // The gather's indices are int32 byte offsets of 16 consecutive rows.
  if (row_bytes > INT32_MAX / 16) {
    return DecodeU16ColumnScalar(cells, rows, columns, column, cardinality,
                                 out);
  }
  const __m512i offsets = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int>(row_bytes)));
  const __m512i low16 = _mm512_set1_epi32(0xffff);
  const __m512i bound = _mm512_set1_epi32(static_cast<int>(cardinality));
  __mmask16 out_of_range = 0;
  const uint8_t* cell = cells + 2 * column;
  size_t i = 0;
  for (; i + 16 <= rows; i += 16, cell += 16 * row_bytes) {
    const __m512i ids =
        _mm512_and_si512(_mm512_i32gather_epi32(offsets, cell, 1), low16);
    out_of_range |= _mm512_cmpge_epu32_mask(ids, bound);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm512_cvtepi32_epi8(ids));
  }
  const bool tail_in_range =
      DecodeU16ColumnScalar(cells + i * row_bytes, rows - i, columns, column,
                            cardinality, out + i);
  return tail_in_range && out_of_range == 0;
}

#pragma GCC diagnostic pop

#endif  // FRAPP_KERNELS_X86

constexpr KernelTable kScalarTable = {
    IntersectPopcountScalar, PopcountRangeScalar,   TransposeBytesScalar,
    BernoulliBitsScalar,     Pcg64BlockScalar,      DecodeU16ColumnScalar,
    KernelLevel::kScalar};
constexpr KernelTable kHarleySealTable = {
    IntersectPopcountHarleySeal, PopcountRangeHarleySeal, TransposeBytesScalar,
    BernoulliBitsScalar,         Pcg64BlockScalar,        DecodeU16ColumnScalar,
    KernelLevel::kHarleySeal};
#ifdef FRAPP_KERNELS_X86
constexpr KernelTable kAvx2Table = {
    IntersectPopcountAvx2, PopcountRangeAvx2, TransposeBytesAvx2,
    BernoulliBitsScalar,   Pcg64BlockScalar,  DecodeU16ColumnScalar,
    KernelLevel::kAvx2};
constexpr KernelTable kAvx512Table = {
    IntersectPopcountAvx512, PopcountRangeAvx512, TransposeBytesAvx512,
    BernoulliBitsAvx512,     Pcg64BlockAvx512,    DecodeU16ColumnAvx512,
    KernelLevel::kAvx512};
#endif

/// The resolved default table (dispatch decision applied once).
std::once_flag g_resolve_once;
/// Current active table; swapped only by the test-only override.
std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* ResolveDefaultTable() {
  const char* forced_env = std::getenv("FRAPP_FORCE_KERNEL");
  std::optional<KernelLevel> forced;
  if (forced_env != nullptr && forced_env[0] != '\0') {
    forced = ParseKernelLevelName(forced_env);
    if (!forced.has_value()) {
      std::cerr << "frapp: ignoring unknown FRAPP_FORCE_KERNEL value '"
                << forced_env << "' (want scalar|harley-seal|avx2|avx512)\n";
    } else if (!KernelLevelSupported(*forced)) {
      std::cerr << "frapp: FRAPP_FORCE_KERNEL=" << forced_env
                << " is not runnable on this host; falling back to "
                << KernelLevelName(BestSupportedLevel()) << "\n";
    }
  }
  return &KernelsForLevel(internal::ResolveKernelLevel(forced));
}

}  // namespace

const char* KernelLevelName(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
      return "scalar";
    case KernelLevel::kAvx2:
      return "avx2";
    case KernelLevel::kAvx512:
      return "avx512";
    case KernelLevel::kHarleySeal:
      return "harley-seal";
  }
  return "unknown";
}

std::optional<KernelLevel> ParseKernelLevelName(const std::string& name) {
  if (name == "scalar") return KernelLevel::kScalar;
  if (name == "avx2") return KernelLevel::kAvx2;
  if (name == "avx512") return KernelLevel::kAvx512;
  if (name == "harley-seal") return KernelLevel::kHarleySeal;
  return std::nullopt;
}

bool KernelLevelSupported(KernelLevel level) {
  if (level == KernelLevel::kScalar) return true;
  if (level == KernelLevel::kHarleySeal) return true;  // portable C++
#ifdef FRAPP_KERNELS_X86
  const common::CpuFeatures& features = common::GetCpuInfo().features;
  if (level == KernelLevel::kAvx2) return features.avx2;
  if (level == KernelLevel::kAvx512) {
    // The transpose needs AVX-512BW byte compares and the Bernoulli bits
    // AVX-512DQ's vpmullq; every VPOPCNTDQ part except Knights Mill has
    // both, and those fall back to avx2.
    return features.avx512f && features.avx512vpopcntdq && features.avx512bw &&
           features.avx512dq;
  }
#endif
  return false;
}

KernelLevel BestSupportedLevel() {
  if (KernelLevelSupported(KernelLevel::kAvx512)) return KernelLevel::kAvx512;
  if (KernelLevelSupported(KernelLevel::kAvx2)) return KernelLevel::kAvx2;
  // Without wide SIMD the accumulated-popcount rung beats the plain word
  // loop on long runs and ties it on short ones.
  return KernelLevel::kHarleySeal;
}

const KernelTable& KernelsForLevel(KernelLevel level) {
#ifdef FRAPP_KERNELS_X86
  if (level == KernelLevel::kAvx512) return kAvx512Table;
  if (level == KernelLevel::kAvx2) return kAvx2Table;
#endif
  if (level == KernelLevel::kHarleySeal) return kHarleySealTable;
  return kScalarTable;
}

const KernelTable& ActiveKernels() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table != nullptr) return *table;
  std::call_once(g_resolve_once, [] {
    g_active.store(ResolveDefaultTable(), std::memory_order_release);
  });
  return *g_active.load(std::memory_order_acquire);
}

namespace internal {

KernelLevel ResolveKernelLevel(std::optional<KernelLevel> forced) {
  if (forced.has_value() && KernelLevelSupported(*forced)) return *forced;
  return BestSupportedLevel();
}

void SetActiveKernelsForTest(KernelLevel level) {
  g_active.store(&KernelsForLevel(level), std::memory_order_release);
}

void ResetActiveKernelsForTest() {
  g_active.store(ResolveDefaultTable(), std::memory_order_release);
}

}  // namespace internal

}  // namespace mining
}  // namespace frapp
