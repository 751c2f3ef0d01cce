//===- support/Watermarks.h - Wide watermark-array primitives ---*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three inner loops every vector-clock representation in the system
/// shares - domination (is clock A pointwise <= clock B?), max-join
/// (B |= A), and all-zero - over contiguous uint32_t watermark arrays.
///
/// Each primitive has up to three tiers selected at compile time:
///
///  - AVX2 (x86-64 with -mavx2, see the WR_ENABLE_AVX2 CMake option):
///    8 watermarks per 256-bit step via unaligned loads, epu32 max and
///    compare, and movemask/testz reductions.
///  - NEON (aarch64, always available there): 4 watermarks per 128-bit
///    step via vld1q_u32, vcleq/vmaxq, and the vminv/vmaxv horizontal
///    reductions.
///  - SWAR fallback (detail::*Swar below): two packed watermarks per
///    uint64_t assembled with memcpy - no alignment requirement, no
///    strict-aliasing UB - with a scalar tail. The vector tiers delegate
///    their sub-width tails here, so the SWAR bodies are always compiled
///    and stay the reference semantics (support_test checks the public
///    entry points against them lane-for-lane on randomized inputs).
///
/// Used by the domination check and slab merges of hb/ClockIndex.h, the
/// one clock index every order builds on. bench/hb_scaling prints the
/// measured bytes/ns per join for whichever tier this build selected.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_SUPPORT_WATERMARKS_H
#define WEBRACER_SUPPORT_WATERMARKS_H

#include <cstdint>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#define WEBRACER_WATERMARKS_AVX2 1
#elif defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define WEBRACER_WATERMARKS_NEON 1
#endif

namespace wr::support {

/// Human-readable name of the vector tier this translation unit compiled
/// in; surfaced by bench/hb_scaling so saved tables say what they measured.
inline const char *watermarksIsa() {
#if defined(WEBRACER_WATERMARKS_AVX2)
  return "avx2";
#elif defined(WEBRACER_WATERMARKS_NEON)
  return "neon";
#else
  return "swar";
#endif
}

namespace detail {

/// True iff A[I] <= B[I] for every I in [0, Len). The wide step compares
/// both packed halves of one uint64_t load; equal words (the common case
/// under copy-on-write slabs, which share long identical prefixes) pass
/// without unpacking.
inline bool watermarksDominatedSwar(const uint32_t *A, const uint32_t *B,
                                    size_t Len) {
  size_t I = 0;
  for (; I + 2 <= Len; I += 2) {
    uint64_t Wa, Wb;
    std::memcpy(&Wa, A + I, sizeof(Wa));
    std::memcpy(&Wb, B + I, sizeof(Wb));
    if (Wa == Wb)
      continue;
    if (static_cast<uint32_t>(Wa) > static_cast<uint32_t>(Wb) ||
        static_cast<uint32_t>(Wa >> 32) > static_cast<uint32_t>(Wb >> 32))
      return false;
  }
  for (; I < Len; ++I) // Scalar tail (odd Len).
    if (A[I] > B[I])
      return false;
  return true;
}

/// Dst[I] = max(Dst[I], Src[I]) for every I in [0, Len). Dst and Src must
/// not overlap. The wide step skips zero and already-dominated source
/// words without unpacking.
inline void watermarksJoinMaxSwar(uint32_t *Dst, const uint32_t *Src,
                                  size_t Len) {
  size_t I = 0;
  for (; I + 2 <= Len; I += 2) {
    uint64_t Wd, Ws;
    std::memcpy(&Wd, Dst + I, sizeof(Wd));
    std::memcpy(&Ws, Src + I, sizeof(Ws));
    if (Ws == 0 || Wd == Ws)
      continue;
    uint32_t D0 = static_cast<uint32_t>(Wd);
    uint32_t D1 = static_cast<uint32_t>(Wd >> 32);
    uint32_t S0 = static_cast<uint32_t>(Ws);
    uint32_t S1 = static_cast<uint32_t>(Ws >> 32);
    if (S0 > D0)
      D0 = S0;
    if (S1 > D1)
      D1 = S1;
    uint64_t Out =
        static_cast<uint64_t>(D0) | (static_cast<uint64_t>(D1) << 32);
    std::memcpy(Dst + I, &Out, sizeof(Out));
  }
  for (; I < Len; ++I) // Scalar tail.
    if (Src[I] > Dst[I])
      Dst[I] = Src[I];
}

/// True iff every entry of A[0, Len) is zero (two watermarks per
/// uint64_t OR step).
inline bool watermarksAllZeroSwar(const uint32_t *A, size_t Len) {
  size_t I = 0;
  for (; I + 2 <= Len; I += 2) {
    uint64_t W;
    std::memcpy(&W, A + I, sizeof(W));
    if (W != 0)
      return false;
  }
  for (; I < Len; ++I)
    if (A[I] != 0)
      return false;
  return true;
}

} // namespace detail

/// True iff A[I] <= B[I] for every I in [0, Len).
inline bool watermarksDominated(const uint32_t *A, const uint32_t *B,
                                size_t Len) {
#if defined(WEBRACER_WATERMARKS_AVX2)
  size_t I = 0;
  for (; I + 8 <= Len; I += 8) {
    __m256i Va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(A + I));
    __m256i Vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(B + I));
    // Unsigned A <= B per lane as max(A, B) == B; any lane where the
    // compare misses breaks domination.
    __m256i Le = _mm256_cmpeq_epi32(_mm256_max_epu32(Va, Vb), Vb);
    if (_mm256_movemask_epi8(Le) != -1)
      return false;
  }
  return detail::watermarksDominatedSwar(A + I, B + I, Len - I);
#elif defined(WEBRACER_WATERMARKS_NEON)
  size_t I = 0;
  for (; I + 4 <= Len; I += 4) {
    uint32x4_t Va = vld1q_u32(A + I);
    uint32x4_t Vb = vld1q_u32(B + I);
    // vcleq yields all-ones lanes where A <= B; a zero minimum means some
    // lane failed.
    if (vminvq_u32(vcleq_u32(Va, Vb)) == 0)
      return false;
  }
  return detail::watermarksDominatedSwar(A + I, B + I, Len - I);
#else
  return detail::watermarksDominatedSwar(A, B, Len);
#endif
}

/// Dst[I] = max(Dst[I], Src[I]) for every I in [0, Len). Dst and Src must
/// not overlap.
inline void watermarksJoinMax(uint32_t *Dst, const uint32_t *Src,
                              size_t Len) {
#if defined(WEBRACER_WATERMARKS_AVX2)
  size_t I = 0;
  for (; I + 8 <= Len; I += 8) {
    __m256i Vd =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Dst + I));
    __m256i Vs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Src + I));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(Dst + I),
                        _mm256_max_epu32(Vd, Vs));
  }
  detail::watermarksJoinMaxSwar(Dst + I, Src + I, Len - I);
#elif defined(WEBRACER_WATERMARKS_NEON)
  size_t I = 0;
  for (; I + 4 <= Len; I += 4)
    vst1q_u32(Dst + I, vmaxq_u32(vld1q_u32(Dst + I), vld1q_u32(Src + I)));
  detail::watermarksJoinMaxSwar(Dst + I, Src + I, Len - I);
#else
  detail::watermarksJoinMaxSwar(Dst, Src, Len);
#endif
}

/// True iff every entry of A[0, Len) is zero.
inline bool watermarksAllZero(const uint32_t *A, size_t Len) {
#if defined(WEBRACER_WATERMARKS_AVX2)
  size_t I = 0;
  for (; I + 8 <= Len; I += 8) {
    __m256i V =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(A + I));
    if (!_mm256_testz_si256(V, V))
      return false;
  }
  return detail::watermarksAllZeroSwar(A + I, Len - I);
#elif defined(WEBRACER_WATERMARKS_NEON)
  size_t I = 0;
  for (; I + 4 <= Len; I += 4)
    if (vmaxvq_u32(vld1q_u32(A + I)) != 0)
      return false;
  return detail::watermarksAllZeroSwar(A + I, Len - I);
#else
  return detail::watermarksAllZeroSwar(A, Len);
#endif
}

} // namespace wr::support

#endif // WEBRACER_SUPPORT_WATERMARKS_H
