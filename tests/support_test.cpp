//===- tests/support_test.cpp - support library tests ----------------------===//

#include "support/Format.h"
#include "support/InlineVec.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/Watermarks.h"

#include <gtest/gtest.h>

#include <set>

using namespace wr;

TEST(RngTest, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.nextBelow(17);
    EXPECT_LT(V, 17u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.nextBelow(5));
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng R(3);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.nextInRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo |= V == -2;
    SawHi |= V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng R(11);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RngTest, BoolProbabilityExtremes) {
  Rng R(5);
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(R.nextBool(0.0));
    EXPECT_TRUE(R.nextBool(1.0));
  }
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng R(13);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7};
  auto Orig = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Orig);
}

TEST(RngTest, ForkIndependent) {
  Rng A(1);
  Rng Child = A.fork();
  EXPECT_NE(A.next(), Child.next());
}

TEST(StringUtilsTest, ToLower) {
  EXPECT_EQ(toLower("AbC dEf"), "abc def");
  EXPECT_EQ(toLower(""), "");
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtilsTest, Split) {
  auto Parts = split("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
}

TEST(StringUtilsTest, SplitEmpty) {
  auto Parts = split("", ',');
  ASSERT_EQ(Parts.size(), 1u);
  EXPECT_EQ(Parts[0], "");
}

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
}

TEST(StringUtilsTest, StartsWith) {
  EXPECT_TRUE(startsWith("javascript:foo()", "javascript:"));
  EXPECT_FALSE(startsWith("java", "javascript"));
  EXPECT_TRUE(startsWithIgnoreCase("JavaScript:foo", "javascript:"));
}

TEST(StringUtilsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(equalsIgnoreCase("DIV", "div"));
  EXPECT_FALSE(equalsIgnoreCase("div", "span"));
  EXPECT_FALSE(equalsIgnoreCase("div", "divx"));
}

TEST(StringUtilsTest, EscapeForReport) {
  EXPECT_EQ(escapeForReport("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(escapeForReport(std::string_view("\x01", 1)), "\\u0001");
}

TEST(StringUtilsTest, ReplaceAll) {
  EXPECT_EQ(replaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(replaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replaceAll("abc", "", "x"), "abc");
}

TEST(FormatTest, Basic) {
  EXPECT_EQ(strFormat("x=%d y=%s", 42, "hi"), "x=42 y=hi");
  EXPECT_EQ(strFormat("%.2f", 1.234), "1.23");
  EXPECT_EQ(strFormat("empty"), "empty");
}

TEST(FormatTest, LongOutput) {
  std::string Long(500, 'a');
  EXPECT_EQ(strFormat("%s!", Long.c_str()).size(), 501u);
}

TEST(StringUtilsTest, ParseUint64Accepts) {
  uint64_t V = 0;
  EXPECT_TRUE(parseUint64("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUint64("42", V));
  EXPECT_EQ(V, 42u);
  EXPECT_TRUE(parseUint64("18446744073709551615", V)); // UINT64_MAX.
  EXPECT_EQ(V, ~static_cast<uint64_t>(0));
  EXPECT_TRUE(parseUint64("007", V)); // Leading zeros are still digits.
  EXPECT_EQ(V, 7u);
}

TEST(StringUtilsTest, ParseUint64Rejects) {
  uint64_t V = 123;
  EXPECT_FALSE(parseUint64("", V));
  EXPECT_FALSE(parseUint64("-1", V));
  EXPECT_FALSE(parseUint64("+1", V));
  EXPECT_FALSE(parseUint64(" 1", V));
  EXPECT_FALSE(parseUint64("1 ", V));
  EXPECT_FALSE(parseUint64("12abc", V));
  EXPECT_FALSE(parseUint64("abc", V));
  EXPECT_FALSE(parseUint64("1.5", V));
  EXPECT_FALSE(parseUint64("0x10", V));
  EXPECT_FALSE(parseUint64("18446744073709551616", V)); // UINT64_MAX + 1.
  EXPECT_FALSE(parseUint64("99999999999999999999", V));
  EXPECT_EQ(V, 123u) << "failed parses must not touch the out-param";
}

TEST(InlineVecTest, StaysInlineUpToN) {
  InlineVec<uint32_t, 2> V;
  EXPECT_TRUE(V.empty());
  EXPECT_EQ(V.capacity(), 2u);
  V.push_back(10);
  V.push_back(20);
  EXPECT_EQ(V.size(), 2u);
  EXPECT_EQ(V.heapBytes(), 0u) << "within inline capacity, no heap";
  EXPECT_EQ(V[0], 10u);
  EXPECT_EQ(V.front(), 10u);
  EXPECT_EQ(V.back(), 20u);
}

TEST(InlineVecTest, SpillsToHeapAndPreservesContents) {
  InlineVec<uint32_t, 2> V;
  for (uint32_t I = 0; I < 100; ++I)
    V.push_back(I * 3);
  EXPECT_EQ(V.size(), 100u);
  EXPECT_GT(V.heapBytes(), 0u);
  for (uint32_t I = 0; I < 100; ++I)
    EXPECT_EQ(V[I], I * 3);
  // Range-for works over both storage modes.
  uint32_t Sum = 0;
  for (uint32_t X : V)
    Sum += X;
  EXPECT_EQ(Sum, 3 * (99 * 100 / 2));
}

TEST(InlineVecTest, PushBackAliasingOwnStorageSurvivesGrowth) {
  // Pushing an element of the vector itself must not read freed memory
  // when the push triggers reallocation.
  InlineVec<uint32_t, 2> V;
  V.push_back(7);
  V.push_back(8);             // Now exactly full.
  V.push_back(V[0]);          // Grows; argument aliases old storage.
  ASSERT_EQ(V.size(), 3u);
  EXPECT_EQ(V[2], 7u);
  while (V.size() < V.capacity())
    V.push_back(1);
  V.push_back(V.back());      // Heap-to-heap growth, same hazard.
  EXPECT_EQ(V.back(), 1u);
}

TEST(InlineVecTest, CopyAndMoveSemantics) {
  InlineVec<uint32_t, 2> Small;
  Small.push_back(1);
  InlineVec<uint32_t, 2> Big;
  for (uint32_t I = 0; I < 10; ++I)
    Big.push_back(I);

  InlineVec<uint32_t, 2> CopySmall(Small);
  InlineVec<uint32_t, 2> CopyBig(Big);
  EXPECT_EQ(CopySmall.size(), 1u);
  EXPECT_EQ(CopySmall[0], 1u);
  ASSERT_EQ(CopyBig.size(), 10u);
  EXPECT_EQ(CopyBig[9], 9u);
  EXPECT_EQ(Big.size(), 10u) << "copy must not disturb the source";

  InlineVec<uint32_t, 2> MovedBig(std::move(Big));
  ASSERT_EQ(MovedBig.size(), 10u);
  EXPECT_EQ(MovedBig[5], 5u);
  EXPECT_TRUE(Big.empty()) << "moved-from is empty and reusable";
  Big.push_back(42);
  EXPECT_EQ(Big[0], 42u);

  CopySmall = CopyBig; // Inline -> heap copy assignment.
  ASSERT_EQ(CopySmall.size(), 10u);
  EXPECT_EQ(CopySmall[7], 7u);
  CopyBig = InlineVec<uint32_t, 2>(); // Shrink by move assignment.
  EXPECT_TRUE(CopyBig.empty());
}

TEST(InlineVecTest, ClearKeepsCapacity) {
  InlineVec<uint32_t, 2> V;
  for (uint32_t I = 0; I < 50; ++I)
    V.push_back(I);
  uint32_t Cap = V.capacity();
  V.clear();
  EXPECT_TRUE(V.empty());
  EXPECT_EQ(V.capacity(), Cap) << "clear() must not release storage";
  V.reserve(Cap + 100);
  EXPECT_GE(V.capacity(), Cap + 100);
  EXPECT_TRUE(V.empty());
}

TEST(WatermarksTest, DominatedBasics) {
  using wr::support::watermarksDominated;
  uint32_t A[] = {1, 2, 3, 4, 5};
  uint32_t B[] = {1, 2, 3, 4, 5};
  EXPECT_TRUE(watermarksDominated(A, B, 5)); // Equal arrays dominate.
  B[4] = 6;
  EXPECT_TRUE(watermarksDominated(A, B, 5));
  EXPECT_FALSE(watermarksDominated(B, A, 5)); // Tail entry decides.
  B[4] = 5;
  B[0] = 0;
  EXPECT_FALSE(watermarksDominated(A, B, 5)); // Wide-word low half.
  B[0] = 1;
  B[1] = 0;
  EXPECT_FALSE(watermarksDominated(A, B, 5)); // Wide-word high half.
  EXPECT_TRUE(watermarksDominated(A, A, 0));  // Empty range.
}

TEST(WatermarksTest, DominatedMatchesScalarReference) {
  // Randomized cross-check over every length 0..9 and unaligned offsets
  // (the helpers take raw pointers into slab arenas, so odd starting
  // offsets must behave identically to aligned ones).
  wr::Rng Rng(7);
  std::vector<uint32_t> A(16), B(16);
  for (int Iter = 0; Iter < 500; ++Iter) {
    for (size_t I = 0; I < A.size(); ++I) {
      A[I] = static_cast<uint32_t>(Rng.next()) % 4;
      B[I] = static_cast<uint32_t>(Rng.next()) % 4;
    }
    size_t Off = Rng.next() % 3;
    size_t Len = Rng.next() % 10;
    bool Ref = true;
    for (size_t I = 0; I < Len; ++I)
      Ref = Ref && A[Off + I] <= B[Off + I];
    EXPECT_EQ(wr::support::watermarksDominated(A.data() + Off,
                                               B.data() + Off, Len),
              Ref);
  }
}

TEST(WatermarksTest, JoinMaxMatchesScalarReference) {
  wr::Rng Rng(11);
  std::vector<uint32_t> Dst(16), Src(16), Ref(16);
  for (int Iter = 0; Iter < 500; ++Iter) {
    for (size_t I = 0; I < Dst.size(); ++I) {
      Dst[I] = static_cast<uint32_t>(Rng.next()) % 5;
      Src[I] = static_cast<uint32_t>(Rng.next()) % 5;
    }
    Ref = Dst;
    size_t Off = Rng.next() % 3;
    size_t Len = Rng.next() % 10;
    for (size_t I = 0; I < Len; ++I)
      Ref[Off + I] = std::max(Ref[Off + I], Src[Off + I]);
    wr::support::watermarksJoinMax(Dst.data() + Off, Src.data() + Off, Len);
    EXPECT_EQ(Dst, Ref);
  }
}

TEST(WatermarksTest, AllZero) {
  uint32_t A[] = {0, 0, 0, 0, 0};
  EXPECT_TRUE(wr::support::watermarksAllZero(A, 5));
  EXPECT_TRUE(wr::support::watermarksAllZero(A, 0));
  A[4] = 1; // Scalar tail.
  EXPECT_FALSE(wr::support::watermarksAllZero(A, 5));
  EXPECT_TRUE(wr::support::watermarksAllZero(A, 4));
  A[4] = 0;
  A[1] = 1; // Wide-word high half.
  EXPECT_FALSE(wr::support::watermarksAllZero(A, 5));
}

TEST(WatermarksTest, FullRangeMatchesScalarLoops) {
  // Lane-for-lane parity with plain scalar loops over lengths past
  // several packed words, unaligned offsets, and values up to UINT32_MAX
  // - each uint64_t word packs two watermarks, so high-bit watermarks
  // must not leak into or flip the neighbouring lane's comparison.
  wr::Rng Rng(23);
  std::vector<uint32_t> A(48), B(48), Dst(48), RefDst(48);
  for (int Iter = 0; Iter < 800; ++Iter) {
    bool Extreme = Iter % 3 == 0; // Exercise the 2^31.. range often.
    for (size_t I = 0; I < A.size(); ++I) {
      A[I] = Extreme ? static_cast<uint32_t>(Rng.next())
                     : static_cast<uint32_t>(Rng.next()) % 6;
      B[I] = Extreme ? static_cast<uint32_t>(Rng.next())
                     : static_cast<uint32_t>(Rng.next()) % 6;
    }
    // Equal runs hit the dominated/join fast paths; zero runs hit allzero.
    if (Iter % 5 == 0)
      std::copy(A.begin(), A.begin() + 20, B.begin());
    if (Iter % 7 == 0)
      std::fill(A.begin(), A.begin() + 24, 0u);
    size_t Off = Rng.next() % 5;
    size_t Len = Rng.next() % 41;
    bool RefDominated = true, RefAllZero = true;
    for (size_t I = Off; I < Off + Len; ++I) {
      RefDominated = RefDominated && A[I] <= B[I];
      RefAllZero = RefAllZero && A[I] == 0;
    }
    EXPECT_EQ(wr::support::watermarksDominated(A.data() + Off,
                                               B.data() + Off, Len),
              RefDominated);
    EXPECT_EQ(wr::support::watermarksAllZero(A.data() + Off, Len),
              RefAllZero);
    Dst = RefDst = B;
    for (size_t I = Off; I < Off + Len; ++I)
      RefDst[I] = std::max(RefDst[I], A[I]);
    wr::support::watermarksJoinMax(Dst.data() + Off, A.data() + Off, Len);
    EXPECT_EQ(Dst, RefDst);
  }
}
