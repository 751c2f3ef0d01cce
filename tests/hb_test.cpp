//===- tests/hb_test.cpp - happens-before graph tests ------------------------===//

#include "hb/HbGraph.h"

#include <gtest/gtest.h>

using namespace wr;

namespace {

Operation op(const char *Label) {
  Operation O;
  O.Kind = OperationKind::ExecuteScript;
  O.Label = Label;
  return O;
}

TEST(HbGraphTest, DirectEdge) {
  HbGraph G;
  OpId A = G.addOperation(op("a"));
  OpId B = G.addOperation(op("b"));
  G.addEdge(A, B, HbRule::RProgram);
  EXPECT_TRUE(G.happensBefore(A, B));
  EXPECT_FALSE(G.happensBefore(B, A));
  EXPECT_FALSE(G.canHappenConcurrently(A, B));
}

TEST(HbGraphTest, NoEdgeMeansConcurrent) {
  HbGraph G;
  OpId A = G.addOperation(op("a"));
  OpId B = G.addOperation(op("b"));
  EXPECT_FALSE(G.happensBefore(A, B));
  EXPECT_FALSE(G.happensBefore(B, A));
  EXPECT_TRUE(G.canHappenConcurrently(A, B));
}

TEST(HbGraphTest, BottomNeverConcurrent) {
  HbGraph G;
  OpId A = G.addOperation(op("a"));
  EXPECT_FALSE(G.canHappenConcurrently(InvalidOpId, A));
  EXPECT_FALSE(G.canHappenConcurrently(A, InvalidOpId));
  EXPECT_FALSE(G.canHappenConcurrently(A, A));
}

TEST(HbGraphTest, Transitivity) {
  HbGraph G;
  OpId A = G.addOperation(op("a"));
  OpId B = G.addOperation(op("b"));
  OpId C = G.addOperation(op("c"));
  G.addEdge(A, B, HbRule::RProgram);
  G.addEdge(B, C, HbRule::RProgram);
  EXPECT_TRUE(G.happensBefore(A, C));
  EXPECT_FALSE(G.happensBefore(C, A));
}

TEST(HbGraphTest, Diamond) {
  HbGraph G;
  OpId A = G.addOperation(op("a"));
  OpId B = G.addOperation(op("b"));
  OpId C = G.addOperation(op("c"));
  OpId D = G.addOperation(op("d"));
  G.addEdge(A, B, HbRule::RProgram);
  G.addEdge(A, C, HbRule::RProgram);
  G.addEdge(B, D, HbRule::RProgram);
  G.addEdge(C, D, HbRule::RProgram);
  EXPECT_TRUE(G.happensBefore(A, D));
  EXPECT_TRUE(G.canHappenConcurrently(B, C));
}

TEST(HbGraphTest, DuplicateEdgesIgnored) {
  HbGraph G;
  OpId A = G.addOperation(op("a"));
  OpId B = G.addOperation(op("b"));
  G.addEdge(A, B, HbRule::RProgram);
  G.addEdge(A, B, HbRule::RProgram);
  EXPECT_EQ(G.numEdges(), 1u);
}

TEST(HbGraphTest, DfsAndVectorClockAgree) {
  // Random-ish DAG: every op gets edges from some earlier ops. The clocks
  // must agree with explainPath's breadth-first search on every pair.
  HbGraph G;
  const int N = 120;
  std::vector<OpId> Ops;
  for (int I = 0; I < N; ++I) {
    OpId Op2 = G.addOperation(op("n"));
    if (I > 0 && I % 3 != 0)
      G.addEdge(Ops[static_cast<size_t>(I / 2)], Op2, HbRule::RProgram);
    if (I > 4 && I % 5 == 0)
      G.addEdge(Ops[static_cast<size_t>(I - 4)], Op2, HbRule::RProgram);
    Ops.push_back(Op2);
  }
  for (int A = 0; A < N; ++A)
    for (int B = 0; B < N; ++B) {
      OpId OA = Ops[static_cast<size_t>(A)], OB = Ops[static_cast<size_t>(B)];
      EXPECT_EQ(G.happensBefore(OA, OB), !G.explainPath(OA, OB).empty())
          << "mismatch for " << OA << " -> " << OB;
    }
}

TEST(HbGraphTest, ChainDecompositionIsCompact) {
  // A pure chain should use exactly one chain.
  HbGraph G;
  OpId Prev = G.addOperation(op("head"));
  for (int I = 0; I < 50; ++I) {
    OpId Next = G.addOperation(op("link"));
    G.addEdge(Prev, Next, HbRule::RProgram);
    Prev = Next;
  }
  EXPECT_TRUE(G.happensBefore(1, Prev));
  EXPECT_EQ(G.numChains(), 1u);
}

TEST(HbGraphTest, ExplainPath) {
  HbGraph G;
  OpId A = G.addOperation(op("a"));
  OpId B = G.addOperation(op("b"));
  OpId C = G.addOperation(op("c"));
  G.addEdge(A, B, HbRule::R16_SetTimeout);
  G.addEdge(B, C, HbRule::R3_ExeBeforeLoad);
  auto Path = G.explainPath(A, C);
  ASSERT_EQ(Path.size(), 3u);
  EXPECT_EQ(Path[0], A);
  EXPECT_EQ(Path[2], C);
  EXPECT_TRUE(G.explainPath(C, A).empty());
  HbRule Rule;
  ASSERT_TRUE(G.findDirectEdgeRule(A, B, Rule));
  EXPECT_EQ(Rule, HbRule::R16_SetTimeout);
  EXPECT_FALSE(G.findDirectEdgeRule(A, C, Rule));
}

TEST(HbGraphTest, ExplainPathEndpointsAndConsecutiveEdges) {
  // On a diamond with a long tail, any witness path must start at A, end
  // at B, and consist purely of direct edges.
  HbGraph G;
  OpId A = G.addOperation(op("a"));
  OpId L = G.addOperation(op("left"));
  OpId R = G.addOperation(op("right"));
  OpId M = G.addOperation(op("merge"));
  G.addEdge(A, L, HbRule::R1a_ParseOrder);
  G.addEdge(A, R, HbRule::R16_SetTimeout);
  G.addEdge(L, M, HbRule::RProgram);
  G.addEdge(R, M, HbRule::RProgram);
  OpId Prev = M;
  for (int I = 0; I < 10; ++I) {
    OpId Next = G.addOperation(op("tail"));
    G.addEdge(Prev, Next, HbRule::RProgram);
    Prev = Next;
  }
  std::vector<OpId> Path = G.explainPath(A, Prev);
  ASSERT_GE(Path.size(), 2u);
  EXPECT_EQ(Path.front(), A);
  EXPECT_EQ(Path.back(), Prev);
  for (size_t I = 0; I + 1 < Path.size(); ++I) {
    HbRule Rule;
    EXPECT_TRUE(G.findDirectEdgeRule(Path[I], Path[I + 1], Rule))
        << "no direct edge " << Path[I] << " -> " << Path[I + 1];
  }
}

TEST(HbGraphTest, ExplainPathUnreachablePairsAreEmpty) {
  HbGraph G;
  OpId A = G.addOperation(op("a"));
  OpId B = G.addOperation(op("b"));
  OpId C = G.addOperation(op("c"));
  G.addEdge(A, C, HbRule::RProgram);
  G.addEdge(B, C, HbRule::RProgram);
  // A and B are concurrent: no witness either way.
  EXPECT_TRUE(G.explainPath(A, B).empty());
  EXPECT_TRUE(G.explainPath(B, A).empty());
  // Against the flow of edges.
  EXPECT_TRUE(G.explainPath(C, A).empty());
  HbRule Rule;
  EXPECT_FALSE(G.findDirectEdgeRule(A, B, Rule));
  EXPECT_FALSE(G.findDirectEdgeRule(C, A, Rule));
}

TEST(HbGraphTest, FindDirectEdgeRuleRecoversEachRule) {
  // A graph mixing several HB rules must report the rule that created
  // each specific edge, not just any rule.
  HbGraph G;
  OpId A = G.addOperation(op("a"));
  OpId B = G.addOperation(op("b"));
  OpId C = G.addOperation(op("c"));
  OpId D = G.addOperation(op("d"));
  G.addEdge(A, B, HbRule::R10_AjaxSend);
  G.addEdge(A, C, HbRule::R17_SetInterval);
  G.addEdge(B, D, HbRule::R3_ExeBeforeLoad);
  G.addEdge(C, D, HbRule::RA_InlineSplit);
  HbRule Rule;
  ASSERT_TRUE(G.findDirectEdgeRule(A, B, Rule));
  EXPECT_EQ(Rule, HbRule::R10_AjaxSend);
  ASSERT_TRUE(G.findDirectEdgeRule(A, C, Rule));
  EXPECT_EQ(Rule, HbRule::R17_SetInterval);
  ASSERT_TRUE(G.findDirectEdgeRule(B, D, Rule));
  EXPECT_EQ(Rule, HbRule::R3_ExeBeforeLoad);
  ASSERT_TRUE(G.findDirectEdgeRule(C, D, Rule));
  EXPECT_EQ(Rule, HbRule::RA_InlineSplit);
}

TEST(HbGraphTest, MemoizedQueriesStableUnderGrowth) {
  // Adding later operations must not change reachability between
  // existing pairs (why clocks built lazily, in id order, stay sound).
  HbGraph G;
  OpId A = G.addOperation(op("a"));
  OpId B = G.addOperation(op("b"));
  EXPECT_FALSE(G.happensBefore(A, B)); // Builds the clocks through B.
  OpId C = G.addOperation(op("c"));
  G.addEdge(A, C, HbRule::RProgram);
  G.addEdge(B, C, HbRule::RProgram);
  // Still unreachable: edges only point at the new op.
  EXPECT_FALSE(G.happensBefore(A, B));
  EXPECT_TRUE(G.happensBefore(A, C));
}

//===----------------------------------------------------------------------===//
// ClockIndex joins (the predictive orders' write-read edges)
//===----------------------------------------------------------------------===//

/// Ops 1 and 2 share chain 0 (edge 1 -> 2); op 3 starts chain 1.
struct ThreeOps {
  std::vector<ClockIndex::OpList> Preds{3};
  ClockIndex Index;

  ThreeOps() {
    Preds[1].push_back(1);
    Index.ensure(3, Preds);
  }
};

TEST(ClockIndexTest, JoinLiftsOwnChainAboveOwnPosition) {
  // Op 2 took op 1's chain; joining op 2's clock into op 1 orders each
  // before the other, while op 1 keeps its epoch.
  ThreeOps T;
  T.Index.join(1, T.Index.rep(2));
  EXPECT_EQ(T.Index.epochOf(1).Pos, 1u);
  EXPECT_EQ(T.Index.watermark(1, 0), 2u);
  EXPECT_TRUE(T.Index.ordered(T.Index.epochOf(2), 1));
  EXPECT_TRUE(T.Index.ordered(T.Index.epochOf(1), 2));
  EXPECT_FALSE(T.Index.ordered(T.Index.epochOf(3), 1));
}

TEST(ClockIndexTest, DominatedJoinWritesNothing) {
  ThreeOps T;
  uint64_t Bytes = T.Index.bytes();
  T.Index.join(2, T.Index.rep(1));        // Already ordered.
  T.Index.join(3, ClockIndex::ClockRep()); // The empty clock.
  T.Index.join(3, T.Index.rep(3));         // Itself.
  EXPECT_EQ(T.Index.bytes(), Bytes);
  T.Index.join(3, T.Index.rep(1));
  EXPECT_GT(T.Index.bytes(), Bytes);
  EXPECT_TRUE(T.Index.ordered(T.Index.epochOf(1), 3));
}

TEST(ClockIndexTest, SnapshotsKeepTheirClockAndSlabColumnsCount) {
  ThreeOps T;
  ClockIndex::ClockRep Before = T.Index.rep(3); // Op 3 knows only itself.
  T.Index.join(3, T.Index.rep(2));
  // The earlier snapshot does not see op 3's later join.
  T.Index.join(1, Before);
  EXPECT_EQ(T.Index.watermark(1, 1), 1u);
  EXPECT_EQ(T.Index.watermark(1, 0), 1u);
  // Op 1 already holds op 3's epoch, so only the snapshot's slab column
  // on op 1's own chain (op 2's position) makes this join matter.
  T.Index.join(1, T.Index.rep(3));
  EXPECT_EQ(T.Index.watermark(1, 0), 2u);
  EXPECT_TRUE(T.Index.ordered(T.Index.epochOf(2), 1));
}

} // namespace
