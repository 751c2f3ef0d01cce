//===- tests/cfg_test.cpp - MiniJS CFG lowering unit tests --------------------===//
//
// Exercises the control-flow lowering (analysis/Cfg.h) two ways:
// hand-written programs check the structural shape of each construct
// (branch/merge edges, loop back edges, short-circuit decomposition,
// switch dispatch), and a property-style pass runs the full invariant
// suite over every script of the first corpus sites plus a grab bag of
// tricky bodies.
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "js/AstVisitor.h"
#include "js/Parser.h"
#include "sites/Corpus.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace wr;
using namespace wr::analysis;

namespace {

js::ParseResult parseJs(const std::string &Src) {
  js::ParseResult R = js::Parser::parseProgram(Src);
  EXPECT_TRUE(R.ok()) << "parse failed: " << Src;
  return R;
}

/// Collects every statement of one body, NOT descending into nested
/// function literals (they get their own Cfg).
class StmtCollector : public js::ConstAstVisitor {
public:
  std::vector<const js::Stmt *> Stmts;

protected:
  bool beforeStmt(const js::Stmt &S) override {
    Stmts.push_back(&S);
    return true;
  }
  bool enterFunction(const js::FunctionLiteral &Fn) override {
    (void)Fn;
    return false;
  }
};

/// The full invariant suite from the Cfg.h file comment, applied to one
/// lowered program.
void checkInvariants(const js::Program &P, const Cfg &G,
                     const std::string &Label) {
  SCOPED_TRACE(Label);
  ASSERT_GE(G.Blocks.size(), 2u);
  EXPECT_EQ(G.entry().Id, Cfg::EntryId);
  EXPECT_EQ(G.exit().Id, Cfg::ExitId);
  // The exit block terminates the graph.
  EXPECT_TRUE(G.exit().Succs.empty());

  // Every statement of the body maps to exactly one valid block, and
  // every anchored statement appears in that block's statement list or
  // is a control statement whose condition starts there.
  StmtCollector C;
  C.walk(P);
  for (const js::Stmt *S : C.Stmts) {
    auto It = G.BlockOf.find(S);
    ASSERT_NE(It, G.BlockOf.end())
        << "statement not lowered: " << js::astKindName(S->kind());
    EXPECT_LT(It->second, G.Blocks.size());
  }
  // ... and BlockOf holds nothing outside the body (same count; the map
  // keys are unique by construction).
  EXPECT_EQ(G.BlockOf.size(), C.Stmts.size());

  std::set<std::pair<uint32_t, uint32_t>> Edges;
  for (const CfgBlock &B : G.Blocks) {
    // Edge targets are valid and mirrored in the predecessor lists.
    for (const CfgEdge &E : B.Succs) {
      ASSERT_LT(E.To, G.Blocks.size());
      const std::vector<uint32_t> &Preds = G.Blocks[E.To].Preds;
      EXPECT_NE(std::find(Preds.begin(), Preds.end(), B.Id), Preds.end())
          << "edge b" << B.Id << " -> b" << E.To << " missing from preds";
      Edges.insert({B.Id, E.To});
    }
    // Conditional edges come in (true, false) pairs sharing one atomic
    // condition; the condition is never a Logical (short-circuit
    // operators decompose into chained blocks).
    std::map<const js::Expr *, std::pair<int, int>> Polarity;
    for (const CfgEdge &E : B.Succs) {
      if (!E.Cond)
        continue;
      EXPECT_FALSE(js::isa<js::Logical>(E.Cond))
          << "short-circuit condition leaked onto an edge";
      if (E.WhenTrue)
        ++Polarity[E.Cond].first;
      else
        ++Polarity[E.Cond].second;
    }
    for (const auto &[Cond, Counts] : Polarity) {
      (void)Cond;
      EXPECT_EQ(Counts.first, 1);
      EXPECT_EQ(Counts.second, 1);
    }
  }

  // Back edges are real edges.
  for (const auto &[From, To] : G.BackEdges)
    EXPECT_TRUE(Edges.count({From, To}))
        << "phantom back edge b" << From << " -> b" << To;

  // Reverse postorder covers only reachable blocks, each once, with the
  // entry first.
  std::vector<uint32_t> Rpo = G.rpo();
  ASSERT_FALSE(Rpo.empty());
  EXPECT_EQ(Rpo.front(), Cfg::EntryId);
  std::set<uint32_t> Seen(Rpo.begin(), Rpo.end());
  EXPECT_EQ(Seen.size(), Rpo.size());
}

/// Parses, lowers, and invariant-checks in one go.
Cfg lowerChecked(const js::Program &P, const std::string &Label) {
  Cfg G = Cfg::lower(P);
  checkInvariants(P, G, Label);
  return G;
}

size_t conditionalEdgeCount(const Cfg &G) {
  size_t N = 0;
  for (const CfgBlock &B : G.Blocks)
    for (const CfgEdge &E : B.Succs)
      if (E.Cond)
        ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Hand-written structural cases
//===----------------------------------------------------------------------===//

TEST(CfgTest, StraightLineSharesOneBlock) {
  js::ParseResult R = parseJs("a = 1; b = 2; c = a + b;");
  Cfg G = lowerChecked(*R.Ast, "straight-line");
  // All three statements anchor in the same block; no branches anywhere.
  std::set<uint32_t> Anchors;
  for (const auto &[S, B] : G.BlockOf) {
    (void)S;
    Anchors.insert(B);
  }
  EXPECT_EQ(Anchors.size(), 1u);
  EXPECT_EQ(conditionalEdgeCount(G), 0u);
  EXPECT_TRUE(G.BackEdges.empty());
}

TEST(CfgTest, IfElseBranchesAndMerges) {
  js::ParseResult R =
      parseJs("if (c) { x = 1; } else { y = 2; } z = 3;");
  Cfg G = lowerChecked(*R.Ast, "if-else");
  const js::Stmt *IfStmt = R.Ast->Body[0].get();
  const js::Stmt *MergeStmt = R.Ast->Body[1].get();
  uint32_t CondBlock = G.BlockOf.at(IfStmt);
  // The anchor block branches on exactly one (true, false) pair.
  ASSERT_EQ(G.Blocks[CondBlock].Succs.size(), 2u);
  EXPECT_EQ(conditionalEdgeCount(G), 2u);
  EXPECT_NE(G.Blocks[CondBlock].Succs[0].To,
            G.Blocks[CondBlock].Succs[1].To);
  // Both arms merge into the block of the statement after the if.
  uint32_t MergeBlock = G.BlockOf.at(MergeStmt);
  EXPECT_GE(G.Blocks[MergeBlock].Preds.size(), 2u);
  EXPECT_TRUE(G.BackEdges.empty());
}

TEST(CfgTest, IfWithoutElseStillPairsEdges) {
  js::ParseResult R = parseJs("if (c) { x = 1; } z = 3;");
  Cfg G = lowerChecked(*R.Ast, "if-no-else");
  EXPECT_EQ(conditionalEdgeCount(G), 2u);
  uint32_t MergeBlock = G.BlockOf.at(R.Ast->Body[1].get());
  // Reached both from the then-arm and from the false edge directly.
  EXPECT_GE(G.Blocks[MergeBlock].Preds.size(), 2u);
}

TEST(CfgTest, WhileLoopHasOneBackEdgeToHeader) {
  js::ParseResult R =
      parseJs("while (going) { x = x + 1; } done = 1;");
  Cfg G = lowerChecked(*R.Ast, "while");
  const js::Stmt *Loop = R.Ast->Body[0].get();
  uint32_t Header = G.BlockOf.at(Loop);
  ASSERT_EQ(G.BackEdges.size(), 1u);
  EXPECT_EQ(G.BackEdges[0].second, Header);
  // The header carries the (true, false) exit/entry pair.
  EXPECT_EQ(G.Blocks[Header].Succs.size(), 2u);
}

TEST(CfgTest, DoWhileRunsBodyBeforeCondition) {
  js::ParseResult R = parseJs("do { x = x + 1; } while (going);");
  Cfg G = lowerChecked(*R.Ast, "do-while");
  const js::Stmt *Loop = R.Ast->Body[0].get();
  ASSERT_EQ(G.BackEdges.size(), 1u);
  // The back edge returns to the body block, where the do..while
  // anchors (the body runs first).
  EXPECT_EQ(G.BackEdges[0].second, G.BlockOf.at(Loop));
  EXPECT_EQ(conditionalEdgeCount(G), 2u);
}

TEST(CfgTest, ForLoopBackEdgeAndStepTerminator) {
  js::ParseResult R =
      parseJs("for (i = 0; i < 3; i = i + 1) { x = i; } done = 1;");
  Cfg G = lowerChecked(*R.Ast, "for");
  ASSERT_EQ(G.BackEdges.size(), 1u);
  const js::Stmt *Loop = R.Ast->Body[0].get();
  uint32_t Header = G.BlockOf.at(Loop);
  EXPECT_EQ(G.BackEdges[0].second, Header);
  // Some block carries the step expression as its terminator (the
  // latch), so its writes stay attributable.
  bool FoundLatchTerm = false;
  for (const CfgBlock &B : G.Blocks)
    if (B.Id != Header && B.Term && js::isa<js::Assign>(B.Term))
      FoundLatchTerm = true;
  EXPECT_TRUE(FoundLatchTerm);
}

TEST(CfgTest, NestedLoopsHaveTwoBackEdges) {
  js::ParseResult R = parseJs(
      "while (a) { while (b) { x = 1; } y = 2; } z = 3;");
  Cfg G = lowerChecked(*R.Ast, "nested-loops");
  EXPECT_EQ(G.BackEdges.size(), 2u);
}

TEST(CfgTest, BreakLeavesLoopContinueReturnsToHeader) {
  js::ParseResult R = parseJs(
      "while (a) { if (b) { break; } if (c) { continue; } x = 1; }"
      "done = 1;");
  Cfg G = lowerChecked(*R.Ast, "break-continue");
  const js::Stmt *Loop = R.Ast->Body[0].get();
  uint32_t Header = G.BlockOf.at(Loop);
  uint32_t After = G.BlockOf.at(R.Ast->Body[1].get());
  // continue adds a second edge back to the header alongside the latch.
  size_t ToHeader = 0, ToAfter = 0;
  for (const CfgBlock &B : G.Blocks)
    for (const CfgEdge &E : B.Succs) {
      if (E.To == Header)
        ++ToHeader;
      if (E.To == After)
        ++ToAfter;
    }
  EXPECT_GE(ToHeader, 3u) << "entry + latch + continue";
  EXPECT_GE(ToAfter, 2u) << "loop exit + break";
}

TEST(CfgTest, ShortCircuitAndDecomposesIntoChainedConditions) {
  js::ParseResult R = parseJs("if (a && b) { x = 1; } y = 2;");
  Cfg G = lowerChecked(*R.Ast, "and");
  // Two atomic conditions, each with a (true, false) pair.
  EXPECT_EQ(conditionalEdgeCount(G), 4u);
  std::set<const js::Expr *> Conds;
  for (const CfgBlock &B : G.Blocks)
    for (const CfgEdge &E : B.Succs)
      if (E.Cond)
        Conds.insert(E.Cond);
  EXPECT_EQ(Conds.size(), 2u);
  for (const js::Expr *Cond : Conds)
    EXPECT_TRUE(js::isa<js::Ident>(Cond));
}

TEST(CfgTest, ShortCircuitOrDecomposesIntoChainedConditions) {
  js::ParseResult R = parseJs("if (a || b) { x = 1; } y = 2;");
  Cfg G = lowerChecked(*R.Ast, "or");
  EXPECT_EQ(conditionalEdgeCount(G), 4u);
}

TEST(CfgTest, NotSwapsBranchTargetsNotEdgeCount) {
  js::ParseResult NegR = parseJs("if (!a) { x = 1; } y = 2;");
  Cfg Neg = lowerChecked(*NegR.Ast, "not");
  js::ParseResult PosR = parseJs("if (a) { x = 1; } y = 2;");
  Cfg Pos = lowerChecked(*PosR.Ast, "plain");
  // `!` costs no blocks or edges; it only flips polarity.
  EXPECT_EQ(Neg.Blocks.size(), Pos.Blocks.size());
  EXPECT_EQ(conditionalEdgeCount(Neg), conditionalEdgeCount(Pos));
  // The edge condition is the atomic `a`, not the Unary.
  for (const CfgBlock &B : Neg.Blocks)
    for (const CfgEdge &E : B.Succs)
      if (E.Cond) {
        EXPECT_TRUE(js::isa<js::Ident>(E.Cond));
      }
}

TEST(CfgTest, SwitchCaseTestsAreNotConditionEdges) {
  js::ParseResult R = parseJs(
      "switch (v) {"
      "case 0: a = 1; break;"
      "case 1: b = 2;"
      "default: c = 3;"
      "} done = 1;");
  Cfg G = lowerChecked(*R.Ast, "switch");
  // `case 0:` is an equality dispatch, not a guard: no edge in the
  // whole graph carries a condition.
  EXPECT_EQ(conditionalEdgeCount(G), 0u);
  // Fallthrough: case 1's body flows into the default body, so the
  // default body block has at least two predecessors (dispatch + fall).
  EXPECT_TRUE(G.BackEdges.empty());
}

TEST(CfgTest, ReturnJumpsToExit) {
  // `return` only parses inside a function; lower the function body.
  js::ParseResult R =
      parseJs("function f() { if (a) { return 0; } x = 1; }");
  const auto *Decl =
      js::dyn_cast<js::FunctionDecl>(R.Ast->Body[0].get());
  ASSERT_NE(Decl, nullptr);
  Cfg G = Cfg::lower(Decl->Fn);
  // The exit has at least two predecessors: the return and the fall-off.
  EXPECT_GE(G.exit().Preds.size(), 2u);
  EXPECT_TRUE(G.exit().Succs.empty());
}

TEST(CfgTest, TryCatchKeepsCatchReachable) {
  js::ParseResult R = parseJs(
      "try { x = risky; } catch (e) { y = 1; } z = 2;");
  Cfg G = lowerChecked(*R.Ast, "try-catch");
  // Every statement is reachable: the catch block hangs off the state
  // before the try body.
  std::set<uint32_t> Reach(G.rpo().begin(), G.rpo().end());
  for (const auto &[S, B] : G.BlockOf) {
    (void)S;
    EXPECT_TRUE(Reach.count(B)) << "unreachable lowered statement";
  }
}

TEST(CfgTest, NestedFunctionBodiesStayOutOfTheGraph) {
  js::ParseResult R = parseJs(
      "function f() { inner = 1; while (a) { inner = 2; } }"
      "outer = 1;");
  Cfg G = lowerChecked(*R.Ast, "nested-fn");
  // Only the declaration and the outer assignment lower; the body
  // statements (and their loop) belong to the function's own Cfg.
  EXPECT_EQ(G.BlockOf.size(), 2u);
  EXPECT_TRUE(G.BackEdges.empty());
  const auto *Decl =
      js::dyn_cast<js::FunctionDecl>(R.Ast->Body[0].get());
  ASSERT_NE(Decl, nullptr);
  Cfg Inner = Cfg::lower(Decl->Fn);
  EXPECT_EQ(Inner.BackEdges.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Property-style: invariants over corpus scripts and a grab bag
//===----------------------------------------------------------------------===//

TEST(CfgPropertyTest, InvariantsHoldOnHandWrittenGrabBag) {
  const char *Cases[] = {
      "",
      ";",
      "x = 1;",
      "if (a) { if (b) { if (c) { x = 1; } } }",
      "for (var i = 0; i < 10; i++) { if (i % 2 == 0) { continue; }"
      " total = total + i; }",
      "do { x--; if (x < 0) { break; } } while (x);",
      "switch (k) { default: d = 1; }",
      "switch (k) { case 'a': x = 1; case 'b': y = 2; break;"
      " case 'c': z = 3; }",
      "while (a && b || !c) { x = 1; }",
      "try { risky(); } catch (e) { handled = 1; } finally { f = 1; }",
      "throw boom;",
      "for (k in obj) { seen = k; }",
      "function g() { if (a) { return 1; } else { return 2; } }",
      "var f = function () { while (x) { y = 1; } };",
  };
  for (const char *Src : Cases) {
    js::ParseResult R = parseJs(Src);
    ASSERT_TRUE(R.ok());
    lowerChecked(*R.Ast, Src);
  }
}

TEST(CfgPropertyTest, InvariantsHoldOnCorpusScripts) {
  // The generated sites exercise polling loops, guarded calls, interval
  // monitors, and dead-guard timers; lower every external script of the
  // first sites and run the full invariant suite.
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(2012);
  Corpus.resize(12);
  size_t Checked = 0;
  for (const sites::GeneratedSite &Site : Corpus) {
    for (const sites::SiteResource &Res : Site.Resources) {
      if (Res.Url.size() < 3 ||
          Res.Url.compare(Res.Url.size() - 3, 3, ".js") != 0)
        continue;
      js::ParseResult R = js::Parser::parseProgram(Res.Body);
      ASSERT_TRUE(R.ok()) << Res.Url;
      lowerChecked(*R.Ast, Site.Name + "/" + Res.Url);
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 10u);
}

} // namespace
