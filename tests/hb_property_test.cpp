//===- tests/hb_property_test.cpp - happens-before property tests -------------===//
//
// Parameterized property checks over randomly generated DAGs: the clocks
// must agree with explainPath's breadth-first search everywhere; the
// relation must be a strict partial order; CHC must be symmetric and
// irreflexive; and answers must be stable as the graph grows.
//
//===----------------------------------------------------------------------===//

#include "hb/HbGraph.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace wr;

namespace {

/// Generates a random DAG honoring the builder contract (edges ascend).
void buildRandomDag(HbGraph &G, Rng &R, size_t N, double EdgeDensity) {
  Operation Meta;
  for (size_t I = 0; I < N; ++I) {
    OpId Op = G.addOperation(Meta);
    if (Op == 1)
      continue;
    // Each new op picks a few random predecessors.
    size_t Preds = static_cast<size_t>(R.nextBelow(4));
    for (size_t P = 0; P < Preds; ++P)
      if (R.nextBool(EdgeDensity))
        G.addEdge(static_cast<OpId>(R.nextInRange(
                      1, static_cast<int64_t>(Op) - 1)),
                  Op, HbRule::RProgram);
  }
}

class HbPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HbPropertyTest, DfsAndVectorClockAgree) {
  Rng R(GetParam());
  HbGraph G;
  buildRandomDag(G, R, 150, 0.7);
  size_t N = G.numOperations();
  for (OpId A = 1; A <= N; ++A)
    for (OpId B = 1; B <= N; B += 3) // Sampled to keep runtime sane.
      ASSERT_EQ(G.happensBefore(A, B), !G.explainPath(A, B).empty())
          << "seed " << GetParam() << " pair " << A << "," << B;
}

TEST_P(HbPropertyTest, StrictPartialOrder) {
  Rng R(GetParam());
  HbGraph G;
  buildRandomDag(G, R, 100, 0.6);
  size_t N = G.numOperations();
  // Irreflexive + asymmetric.
  for (OpId A = 1; A <= N; ++A) {
    EXPECT_FALSE(G.happensBefore(A, A));
    for (OpId B = A + 1; B <= N; B += 5)
      EXPECT_FALSE(G.happensBefore(A, B) && G.happensBefore(B, A));
  }
  // Transitive (sampled triples).
  Rng Sampler(GetParam() ^ 0xabcdef);
  for (int I = 0; I < 500; ++I) {
    OpId A = static_cast<OpId>(Sampler.nextInRange(1, 98));
    OpId B = static_cast<OpId>(
        Sampler.nextInRange(A + 1, 99));
    OpId C = static_cast<OpId>(
        Sampler.nextInRange(B + 1, 100));
    if (G.happensBefore(A, B) && G.happensBefore(B, C))
      EXPECT_TRUE(G.happensBefore(A, C))
          << A << "->" << B << "->" << C;
  }
}

TEST_P(HbPropertyTest, ChcSymmetricAndIrreflexive) {
  Rng R(GetParam());
  HbGraph G;
  buildRandomDag(G, R, 80, 0.5);
  size_t N = G.numOperations();
  for (OpId A = 1; A <= N; A += 2) {
    EXPECT_FALSE(G.canHappenConcurrently(A, A));
    for (OpId B = 1; B <= N; B += 3)
      EXPECT_EQ(G.canHappenConcurrently(A, B),
                G.canHappenConcurrently(B, A));
  }
}

TEST_P(HbPropertyTest, EdgesImplyOrder) {
  Rng R(GetParam());
  HbGraph G;
  buildRandomDag(G, R, 120, 0.8);
  for (OpId Op = 1; Op <= G.numOperations(); ++Op)
    for (OpId Succ : G.successors(Op)) {
      EXPECT_TRUE(G.happensBefore(Op, Succ));
      EXPECT_FALSE(G.canHappenConcurrently(Op, Succ));
    }
}

TEST_P(HbPropertyTest, MemoStableUnderGrowth) {
  Rng R(GetParam());
  HbGraph G;
  buildRandomDag(G, R, 60, 0.6);
  size_t N = G.numOperations();
  // Record all answers, grow the graph, re-check.
  std::vector<std::vector<bool>> Before(N + 1,
                                        std::vector<bool>(N + 1, false));
  for (OpId A = 1; A <= N; ++A)
    for (OpId B = 1; B <= N; ++B)
      Before[A][B] = G.happensBefore(A, B);
  buildRandomDag(G, R, 40, 0.6); // 40 more ops with edges into them.
  for (OpId A = 1; A <= N; ++A)
    for (OpId B = 1; B <= N; ++B)
      ASSERT_EQ(G.happensBefore(A, B), Before[A][B])
          << "growth changed " << A << "->" << B;
}

TEST_P(HbPropertyTest, ExplainPathIsRealPath) {
  Rng R(GetParam());
  HbGraph G;
  buildRandomDag(G, R, 100, 0.7);
  Rng Sampler(GetParam() + 1);
  for (int I = 0; I < 50; ++I) {
    OpId A = static_cast<OpId>(Sampler.nextInRange(1, 50));
    OpId B = static_cast<OpId>(Sampler.nextInRange(51, 100));
    std::vector<OpId> Path = G.explainPath(A, B);
    if (!G.happensBefore(A, B)) {
      EXPECT_TRUE(Path.empty());
      continue;
    }
    ASSERT_GE(Path.size(), 2u);
    EXPECT_EQ(Path.front(), A);
    EXPECT_EQ(Path.back(), B);
    for (size_t Step = 0; Step + 1 < Path.size(); ++Step) {
      const auto &Succ = G.successors(Path[Step]);
      EXPECT_NE(std::find(Succ.begin(), Succ.end(), Path[Step + 1]),
                Succ.end())
          << "gap in path at " << Path[Step];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HbPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

} // namespace
