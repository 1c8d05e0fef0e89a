#include "util/fnv1a_fold.hpp"

#include <array>

#include "util/rng.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define CLOUDRTT_FNV1A_WIDE 1
#else
#define CLOUDRTT_FNV1A_WIDE 0
#endif

namespace cloudrtt::util {
namespace {

#if CLOUDRTT_FNV1A_WIDE

// GCC 12's AVX-512 headers start some results from _mm512_undefined_*(),
// which -Wmaybe-uninitialized (and, in sanitizer builds, -Wuninitialized)
// reports once inlined here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

#define CLOUDRTT_FNV1A_TARGET                                         \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl,"        \
                        "avx512vbmi,gfni,vpclmulqdq")))

constexpr std::uint64_t kPrime = 0x100000001b3ULL;

/// The superblock: 8 blocks of 64 bytes, block k in lane k of a register.
constexpr std::size_t kBlocks = 8;
constexpr std::size_t kBlockBytes = kFnv1aFoldBlock / kBlocks;
/// The dot product runs on 16-bit limbs: each P^(512 - i) is the sum of
/// four signed ones times 2^(16t), mod 2^64.
constexpr std::size_t kLimbs = 4;

/// The 16-bit lanes of one block's limb-t weights, in the order the dot
/// product's vpmaddwd meets the positions: words 8L .. 8L + 7 are
/// positions 16L .. 16L + 7 of the block in the low half (`high` = 0), and
/// 16L + 8 .. 16L + 15 in the high half.
struct alignas(64) Weights {
  std::array<std::int16_t, 32> at{};
};
using WeightTable = std::array<Weights, kBlocks * 2 * kLimbs>;

/// Block k's limb-t weights for the low (`high` = 0) or high half sit in
/// row (k * 2 + high) * kLimbs + t.
constexpr WeightTable make_weights() {
  std::array<std::uint64_t, kFnv1aFoldBlock> power{};
  std::uint64_t step = kPrime;
  for (std::size_t i = kFnv1aFoldBlock; i-- > 0;) {
    power[i] = step;  // P^(512 - i)
    step *= kPrime;
  }
  WeightTable table{};
  for (std::size_t k = 0; k < kBlocks; ++k) {
    for (std::size_t high = 0; high < 2; ++high) {
      for (std::size_t w = 0; w < 32; ++w) {
        std::uint64_t rest =
            power[k * kBlockBytes + (w / 8) * 16 + high * 8 + w % 8];
        for (std::size_t t = 0; t < kLimbs; ++t) {
          // Balanced digit: the low 16 bits as a signed value; what it
          // borrows comes back from the next limb.
          const auto limb = static_cast<std::int16_t>(rest & 0xffff);
          table[(k * 2 + high) * kLimbs + t].at[w] = limb;
          rest = (rest - static_cast<std::uint64_t>(std::int64_t{limb})) >> 16;
        }
      }
    }
  }
  return table;
}
constexpr WeightTable kWeights = make_weights();

/// P^512, which carries the hash across a superblock.
constexpr std::uint64_t kCarry = [] {
  std::uint64_t power = 1;
  for (std::size_t i = 0; i < kFnv1aFoldBlock; ++i) power *= kPrime;
  return power;
}();

/// vpermb index of the 8x8 byte transpose inside each register: byte 8m + t
/// to byte 8t + m.
struct alignas(64) ByteIndex {
  std::array<std::uint8_t, 64> at{};
};
constexpr ByteIndex kSwapBytes = [] {
  ByteIndex index;
  for (unsigned p = 0; p < 64; ++p) {
    index.at[p] = static_cast<std::uint8_t>((p % 8) * 8 + p / 8);
  }
  return index;
}();

/// As a GFNI matrix operand, a qword's bytes are the rows, last byte first.
/// So this constant (byte t = 1 << t) is both the one-hot probe that reads
/// a qword's 8x8 bit matrix out by columns and the matrix that reverses the
/// bits of a byte.
constexpr auto kOneHot = static_cast<long long>(0x8040201008040201ULL);

constexpr int kXor3 = 0x96;      // vpternlog: a ^ b ^ c
constexpr int kMajority = 0xe8;  // vpternlog: at least two of a, b, c

CLOUDRTT_FNV1A_TARGET inline __m512i load(const void* at) {
  return _mm512_loadu_si512(at);
}

/// Per qword: byte t of the result holds bit t of the qword's eight bytes,
/// byte 7 - i's in bit i.
CLOUDRTT_FNV1A_TARGET inline __m512i transpose_bits(__m512i value) {
  return _mm512_gf2p8affine_epi64_epi8(_mm512_set1_epi64(kOneHot), value, 0);
}

CLOUDRTT_FNV1A_TARGET inline __m512i reverse_bits(__m512i value) {
  return _mm512_gf2p8affine_epi64_epi8(value, _mm512_set1_epi64(kOneHot), 0);
}

/// The 8x8 transpose of qwords across eight registers: qword q of register
/// r trades places with qword r of register q.
CLOUDRTT_FNV1A_TARGET inline void transpose_qwords(__m512i (&regs)[kBlocks]) {
  __m512i pairs[kBlocks] = {};
#pragma GCC unroll 4
  for (std::size_t r = 0; r < kBlocks; r += 2) {
    pairs[r] = _mm512_unpacklo_epi64(regs[r], regs[r + 1]);
    pairs[r + 1] = _mm512_unpackhi_epi64(regs[r], regs[r + 1]);
  }
  __m512i quads[kBlocks] = {};
#pragma GCC unroll 2
  for (std::size_t r = 0; r < kBlocks; r += 4) {
#pragma GCC unroll 2
    for (std::size_t odd = 0; odd < 2; ++odd) {
      quads[r + odd] =
          _mm512_shuffle_i64x2(pairs[r + odd], pairs[r + odd + 2], 0x88);
      quads[r + odd + 2] =
          _mm512_shuffle_i64x2(pairs[r + odd], pairs[r + odd + 2], 0xdd);
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < 4; ++r) {
    regs[r] = _mm512_shuffle_i64x2(quads[r], quads[r + 4], 0x88);
    regs[r + 4] = _mm512_shuffle_i64x2(quads[r], quads[r + 4], 0xdd);
  }
}

/// Folds `superblocks` x 512 bytes from `at` into `hash`.
///
/// Bit plane j of the low bytes l_i obeys l_(i+1),j = l_i,j ^ c_i,j with
/// c_i,j = b_i,j ^ g_j(x_i), x_i = l_i ^ b_i, where g_j depends only on the
/// bits of x_i below j: x * 0xb3 = 3x + (3x << 4) + (x << 7), two ripple
/// carries. Plane by plane, the toggles c_j are known for all 512 positions
/// once the planes below are, and plane j is their exclusive prefix XOR:
/// one carry-less multiply by all-ones per 64-bit lane, then each lane's
/// start bit (the XOR of the lanes before it and the incoming low byte).
/// With the planes, a_i = l_i & b_i goes back to bytes, and the superblock
/// adds sum_i (b_i - 2 a_i) P^(512 - i) to hash * P^512.
CLOUDRTT_FNV1A_TARGET std::uint64_t fold_superblocks(
    std::uint64_t hash, const unsigned char* at, std::size_t superblocks) {
  const __m512i ones = _mm512_set1_epi64(-1);
  const __m512i zero = _mm512_setzero_si512();
  const __m512i swap_bytes = load(kSwapBytes.at.data());
  // vpmaddubsw weights: b_i once, a_i minus twice.
  const __m512i minus_two_a = _mm512_set1_epi16(static_cast<short>(0xfe01));
  const __m512i carry = _mm512_set1_epi64(static_cast<long long>(kCarry));
  // The hash as the sum of eight lanes, lane 0 holding it at the start.
  __m512i sum = _mm512_maskz_set1_epi64(1, static_cast<long long>(hash));
  unsigned low = static_cast<unsigned>(hash & 0xff);

  for (; superblocks > 0; --superblocks, at += kFnv1aFoldBlock) {
    __m512i bytes[kBlocks] = {};
    __m512i plane[kBlocks] = {};
#pragma GCC unroll 8
    for (std::size_t k = 0; k < kBlocks; ++k) {
      bytes[k] = load(at + k * kBlockBytes);
      // Byte 8m + t: plane t of bytes 8m .. 8m + 7, byte 8m + i in bit i.
      plane[k] = _mm512_permutexvar_epi8(
          swap_bytes, reverse_bits(transpose_bits(bytes[k])));
    }
    transpose_qwords(plane);  // lane k of plane[j]: plane j of block k

    // x_j, t_j = (3x)_j, and the carries of 3x and of 3x + (3x << 4).
    __m512i x_below = zero;
    __m512i x0 = zero;
    __m512i carry3 = zero;
    __m512i carry51 = zero;
    __m512i triple[kBlocks] = {};
    __m512i anded[kBlocks] = {};  // a = l & b, plane 7 - j in register j
    unsigned next_low = 0;
#pragma GCC unroll 8
    for (unsigned j = 0; j < kBlocks; ++j) {
      __m512i toggle =
          _mm512_ternarylogic_epi64(plane[j], x_below, carry3, kXor3);
      if (j >= 4) {
        toggle = _mm512_ternarylogic_epi64(toggle, triple[j - 4], carry51,
                                           kXor3);
      }
      if (j == 7) toggle = _mm512_xor_si512(toggle, x0);
      const __m512i inclusive =
          _mm512_unpacklo_epi64(_mm512_clmulepi64_epi128(toggle, ones, 0x00),
                                _mm512_clmulepi64_epi128(toggle, ones, 0x01));
      const unsigned parity = _cvtmask8_u32(_mm512_movepi64_mask(inclusive));
      unsigned start = ((parity << 1) | ((low >> j) & 1)) & 0xff;
      start ^= start << 1;
      start ^= start << 2;
      start ^= start << 4;
      next_low |= (((start ^ parity) >> 7) & 1) << j;
      const __m512i exclusive = _mm512_slli_epi64(inclusive, 1);
      const __m512i lows = _mm512_mask_xor_epi64(
          exclusive, _cvtu32_mask8(start & 0xff), exclusive, ones);
      const __m512i x = _mm512_xor_si512(lows, plane[j]);
      anded[kBlocks - 1 - j] = _mm512_and_si512(lows, plane[j]);
      if (j == 0) x0 = x;
      triple[j] = _mm512_ternarylogic_epi64(x, x_below, carry3, kXor3);
      carry3 = _mm512_ternarylogic_epi64(x, x_below, carry3, kMajority);
      if (j >= 4) {
        carry51 = _mm512_ternarylogic_epi64(triple[j], triple[j - 4],
                                            carry51, kMajority);
      }
      x_below = x;
    }
    low = next_low;

    transpose_qwords(anded);
    __m512i dot[kLimbs] = {zero, zero, zero, zero};
#pragma GCC unroll 8
    for (std::size_t k = 0; k < kBlocks; ++k) {
      // Byte u of qword m: a at 64k + 8m + u.
      const __m512i a = transpose_bits(_mm512_permutexvar_epi8(
          swap_bytes, anded[k]));
      const Weights* weights = &kWeights[k * 2 * kLimbs];
      const __m512i delta_low = _mm512_maddubs_epi16(
          _mm512_unpacklo_epi8(bytes[k], a), minus_two_a);
      const __m512i delta_high = _mm512_maddubs_epi16(
          _mm512_unpackhi_epi8(bytes[k], a), minus_two_a);
#pragma GCC unroll 4
      for (std::size_t t = 0; t < kLimbs; ++t) {
        dot[t] = _mm512_add_epi32(
            dot[t],
            _mm512_add_epi32(
                _mm512_madd_epi16(delta_low, load(weights[t].at.data())),
                _mm512_madd_epi16(delta_high,
                                  load(weights[kLimbs + t].at.data()))));
      }
    }
    // Each 32-bit lane holds at most 16 * 2 * 255 * 2^15 < 2^29 in size:
    // widen the even and odd ones and weigh the limbs.
    __m512i total = _mm512_mullo_epi64(sum, carry);
#pragma GCC unroll 4
    for (std::size_t t = 0; t < kLimbs; ++t) {
      const __m512i even = _mm512_srai_epi64(_mm512_slli_epi64(dot[t], 32), 32);
      const __m512i odd = _mm512_srai_epi64(dot[t], 32);
      total = _mm512_add_epi64(
          total, _mm512_slli_epi64(_mm512_add_epi64(even, odd),
                                   static_cast<unsigned>(16 * t)));
    }
    sum = total;
  }
  // Summed as unsigned lanes: _mm512_reduce_add_epi64 adds signed ones.
  alignas(64) std::array<std::uint64_t, kBlocks> lanes{};
  _mm512_store_si512(lanes.data(), sum);
  std::uint64_t folded = 0;
  for (const std::uint64_t lane : lanes) folded += lane;
  return folded;
}

#undef CLOUDRTT_FNV1A_TARGET
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // CLOUDRTT_FNV1A_WIDE

bool wide_kernel() noexcept {
#if CLOUDRTT_FNV1A_WIDE
  static const bool wide = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl") &&
           __builtin_cpu_supports("avx512vbmi") &&
           __builtin_cpu_supports("gfni") &&
           __builtin_cpu_supports("vpclmulqdq");
  }();
  return wide;
#else
  return false;
#endif
}

}  // namespace

std::uint64_t fnv1a_fold(std::uint64_t hash, std::string_view bytes) noexcept {
  const std::size_t wide = fnv1a_fold_wide_bytes(bytes.size());
#if CLOUDRTT_FNV1A_WIDE
  if (wide != 0) {
    hash = fold_superblocks(
        hash, reinterpret_cast<const unsigned char*>(bytes.data()),
        wide / kFnv1aFoldBlock);
  }
#endif
  return fnv1a_accum(hash, bytes.substr(wide));
}

std::size_t fnv1a_fold_wide_bytes(std::size_t size) noexcept {
  return wide_kernel() ? size - size % kFnv1aFoldBlock : 0;
}

}  // namespace cloudrtt::util
