#pragma once
// FNV-1a folded 512 bytes per step, bit for bit the byte loop.
//
// FNV-1a is h <- (h ^ b) * P mod 2^64. For a byte b < 256 and l = h mod 256,
// h ^ b = h + b - 2(l & b), so the hash is linear in everything but its low
// byte: after n bytes it is h * P^n + sum_i (b_i - 2(l_i & b_i)) * P^(n-i).
// The low byte alone runs serially, l' = ((l ^ b) * 0xb3) mod 256, and bit j
// of that product is bit j of (l ^ b) xor a function of its lower bits. So
// the low bytes of 512 positions come out one bit plane at a time, each a
// prefix XOR (fnv1a_fold.cpp), and the rest is a dot product with the
// constants P^(512-i).
//
// The wide kernel needs x86-64 with AVX-512 F/BW/DQ/VL, VBMI, GFNI and
// VPCLMULQDQ, checked once at run time; it is compiled for those features
// alone, so the build takes no flag. Elsewhere, and for the tail of a fold,
// fnv1a_fold is util::fnv1a_accum.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cloudrtt::util {

/// Bytes the wide kernel folds per step.
inline constexpr std::size_t kFnv1aFoldBlock = 512;

/// fnv1a_accum(hash, bytes), bit for bit: every whole kFnv1aFoldBlock of
/// `bytes` through the wide kernel when the CPU has it, the rest byte by
/// byte.
[[nodiscard]] std::uint64_t fnv1a_fold(std::uint64_t hash,
                                       std::string_view bytes) noexcept;

/// How many bytes of a `size`-byte fnv1a_fold the wide kernel folds: the
/// whole blocks, or 0 on a CPU without the kernel's features.
[[nodiscard]] std::size_t fnv1a_fold_wide_bytes(std::size_t size) noexcept;

}  // namespace cloudrtt::util
