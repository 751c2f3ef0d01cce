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
/// Each is SWAR code: two packed watermarks per uint64_t assembled with
/// memcpy - no alignment requirement, no strict-aliasing UB - with a
/// scalar tail. It is portable to every target and compiler flag; corpus
/// clocks are at most ~200 chains wide, too narrow for wider vector
/// kernels to pay end to end (DESIGN.md "Near-linear HB index").
///
/// Used by the domination check and slab merges of hb/ClockIndex.h, the
/// one clock index every order builds on. bench/hb_scaling prints the
/// measured bytes/ns per join.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_SUPPORT_WATERMARKS_H
#define WEBRACER_SUPPORT_WATERMARKS_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace wr::support {

/// Name of the kernel implementation, recorded by the benchmarks so
/// saved tables say what they measured.
inline const char *watermarksIsa() { return "swar"; }

/// True iff A[I] <= B[I] for every I in [0, Len). The wide step compares
/// both packed halves of one uint64_t load; equal words (the common case
/// under copy-on-write slabs, which share long identical prefixes) pass
/// without unpacking.
inline bool watermarksDominated(const uint32_t *A, const uint32_t *B,
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
inline void watermarksJoinMax(uint32_t *Dst, const uint32_t *Src,
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
inline bool watermarksAllZero(const uint32_t *A, size_t Len) {
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

} // namespace wr::support

#endif // WEBRACER_SUPPORT_WATERMARKS_H
