//===- tests/static_index_test.cpp - Static analysis indexes vs references --===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The static pass answers its two hot queries from indexes built once:
//
//  * StaticHbGraph::reaches / ordered read a transitive-closure bitset.
//    Checked against a plain DFS on random graphs whose ids are not a
//    topological order, with queries interleaved with addSource/addEdge
//    (each mutation must invalidate the closure) and InvalidSource
//    endpoints.
//  * FlowInfo::guardsAt / definitelyWrittenBefore read per-statement
//    facts. Checked against a prefix walk - re-solve the block-entry
//    states, then replay the anchor block's statements up to the query
//    point - for every lowered statement and every tracked variable of
//    the figure pages' and corpus sites' script, handler and function
//    bodies.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"
#include "analysis/Scenarios.h"
#include "analysis/StaticHb.h"
#include "html/Tokenizer.h"
#include "js/AstVisitor.h"
#include "js/Parser.h"
#include "sites/Corpus.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace wr;
using namespace wr::analysis;

namespace {

//===----------------------------------------------------------------------===//
// Reachability closure
//===----------------------------------------------------------------------===//

/// The graph's edges kept separately, queried by a fresh DFS.
struct PlainGraph {
  std::vector<std::vector<uint32_t>> Succ;

  bool reaches(uint32_t From, uint32_t To) const {
    if (From == StaticHbGraph::InvalidSource ||
        To == StaticHbGraph::InvalidSource)
      return false;
    std::vector<bool> Seen(Succ.size(), false);
    std::vector<uint32_t> Stack{From};
    Seen[From] = true;
    while (!Stack.empty()) {
      uint32_t Cur = Stack.back();
      Stack.pop_back();
      if (Cur == To)
        return true;
      for (uint32_t Next : Succ[Cur])
        if (!Seen[Next]) {
          Seen[Next] = true;
          Stack.push_back(Next);
        }
    }
    return false;
  }
};

TEST(StaticIndexTest, ReachesMatchesPlainDfsOnRandomGraphs) {
  size_t Reachable = 0, Unreachable = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed);
    StaticHbGraph G;
    PlainGraph Ref;
    // Past one 64-bit closure word, so rows span several words.
    size_t Target = 20 + static_cast<size_t>(R.nextBelow(130));
    auto Pick = [&]() -> uint32_t {
      if (R.nextBool(0.05))
        return StaticHbGraph::InvalidSource;
      return static_cast<uint32_t>(R.nextBelow(Ref.Succ.size()));
    };
    for (int Step = 0; Step < 600; ++Step) {
      uint64_t Action = R.nextBelow(10);
      if (Ref.Succ.empty() || (Action == 0 && Ref.Succ.size() < Target)) {
        uint32_t Id = G.addSource(SourceKind::AsyncScript,
                                  "s" + std::to_string(Ref.Succ.size()));
        ASSERT_EQ(Id, Ref.Succ.size());
        Ref.Succ.emplace_back();
      } else if (Action <= 4) {
        // Edges in either id direction: a later source may precede an
        // earlier one, as dispatch sources do.
        uint32_t From = Pick(), To = Pick();
        G.addEdge(From, To);
        if (From != StaticHbGraph::InvalidSource &&
            To != StaticHbGraph::InvalidSource && From != To &&
            std::find(Ref.Succ[From].begin(), Ref.Succ[From].end(), To) ==
                Ref.Succ[From].end())
          Ref.Succ[From].push_back(To);
      } else {
        for (int Q = 0; Q < 8; ++Q) {
          uint32_t A = Pick(), B = Pick();
          bool Want = Ref.reaches(A, B);
          ASSERT_EQ(G.reaches(A, B), Want) << A << " -> " << B;
          ASSERT_EQ(G.ordered(A, B), Want || Ref.reaches(B, A))
              << A << " <-> " << B;
          ++(Want ? Reachable : Unreachable);
        }
      }
    }
    size_t Edges = 0;
    for (const std::vector<uint32_t> &Out : Ref.Succ)
      Edges += Out.size();
    EXPECT_EQ(G.numEdges(), Edges);
  }
  EXPECT_GT(Reachable, 1000u);
  EXPECT_GT(Unreachable, 1000u);
}

TEST(StaticIndexTest, MutationAfterQueryInvalidatesClosure) {
  StaticHbGraph G;
  uint32_t A = G.addSource(SourceKind::Parse, "a");
  uint32_t B = G.addSource(SourceKind::Parse, "b");
  EXPECT_FALSE(G.reaches(A, B));
  G.addEdge(A, B);
  EXPECT_TRUE(G.reaches(A, B));
  uint32_t C = G.addSource(SourceKind::EventDispatch, "c");
  EXPECT_FALSE(G.reaches(B, C));
  EXPECT_TRUE(G.reaches(C, C));
  // A later source ordered before earlier ones.
  G.addEdge(C, A);
  EXPECT_TRUE(G.reaches(C, B));
  EXPECT_FALSE(G.reaches(B, C));
  EXPECT_FALSE(G.reaches(StaticHbGraph::InvalidSource, A));
  EXPECT_FALSE(G.reaches(A, StaticHbGraph::InvalidSource));
  EXPECT_FALSE(
      G.reaches(StaticHbGraph::InvalidSource, StaticHbGraph::InvalidSource));
}

//===----------------------------------------------------------------------===//
// Flow facts
//===----------------------------------------------------------------------===//

/// The two analyses' lattices, restated so the reference can re-solve
/// the block-entry states on its own.
struct RefGuards {
  using Domain = GuardSet;

  Domain boundary() const { return GuardSet(); }

  void transferBlock(const CfgBlock &B, Domain &D) const {
    std::vector<std::string> Defs;
    for (const js::Stmt *S : B.Stmts)
      collectStmtDefs(S, /*IncludeConditional=*/true, Defs);
    collectExprDefs(B.Term, /*IncludeConditional=*/true, Defs);
    for (const std::string &V : Defs)
      D.killSubject(V);
  }

  void transferEdge(const CfgEdge &E, Domain &D) const {
    if (!E.Cond)
      return;
    if (std::optional<Guard> G = classifyGuard(E.Cond, E.WhenTrue))
      D.add(*G);
  }

  static bool join(Domain &Into, const Domain &From) {
    size_t Before = Into.size();
    Into.intersectWith(From);
    return Into.size() != Before;
  }
};

struct RefEntryDefs {
  using Domain = std::set<std::string>;

  const std::set<std::string> &Universe;

  Domain boundary() const { return Universe; }

  void transferBlock(const CfgBlock &B, Domain &D) const {
    std::vector<std::string> Defs;
    for (const js::Stmt *S : B.Stmts)
      collectStmtDefs(S, /*IncludeConditional=*/false, Defs);
    collectExprDefs(B.Term, /*IncludeConditional=*/false, Defs);
    for (const std::string &V : Defs)
      D.erase(V);
  }

  void transferEdge(const CfgEdge &, Domain &) const {}

  static bool join(Domain &Into, const Domain &From) {
    size_t Before = Into.size();
    Into.insert(From.begin(), From.end());
    return Into.size() != Before;
  }
};

/// Compares every per-statement answer of \p Flow with the prefix walk.
/// Returns the number of (statement, variable) pairs checked.
size_t checkFlowFacts(const FlowInfo &Flow, const std::string &Label) {
  SCOPED_TRACE(Label);
  const Cfg &G = Flow.cfg();
  std::set<std::string> Tracked;
  for (const CfgBlock &B : G.Blocks) {
    std::vector<std::string> Defs;
    for (const js::Stmt *S : B.Stmts)
      collectStmtDefs(S, /*IncludeConditional=*/true, Defs);
    collectExprDefs(B.Term, /*IncludeConditional=*/true, Defs);
    Tracked.insert(Defs.begin(), Defs.end());
  }
  std::vector<std::optional<GuardSet>> GuardIn = solveForward(G, RefGuards{});
  std::vector<std::optional<std::set<std::string>>> EntryIn =
      solveForward(G, RefEntryDefs{Tracked});

  size_t Checked = 0;
  for (const auto &[S, Block] : G.BlockOf) {
    const std::vector<const js::Stmt *> &Stmts = G.Blocks[Block].Stmts;
    GuardSet Guards;
    if (GuardIn[Block]) {
      Guards = *GuardIn[Block];
      for (const js::Stmt *Prev : Stmts) {
        if (Prev == S)
          break;
        std::vector<std::string> Defs;
        collectStmtDefs(Prev, /*IncludeConditional=*/true, Defs);
        for (const std::string &V : Defs)
          Guards.killSubject(V);
      }
    }
    EXPECT_EQ(Flow.guardsAt(S).toString(), Guards.toString());
    EXPECT_TRUE(Flow.guardsAt(S) == Guards);

    std::set<std::string> Live;
    if (EntryIn[Block]) {
      Live = *EntryIn[Block];
      for (const js::Stmt *Prev : Stmts) {
        if (Prev == S)
          break;
        std::vector<std::string> Defs;
        collectStmtDefs(Prev, /*IncludeConditional=*/false, Defs);
        for (const std::string &V : Defs)
          Live.erase(V);
      }
    }
    for (const std::string &Var : Tracked) {
      bool Want = EntryIn[Block] && !Live.count(Var);
      EXPECT_EQ(Flow.definitelyWrittenBefore(S, Var), Want) << Var;
      ++Checked;
    }
    EXPECT_FALSE(Flow.definitelyWrittenBefore(S, "never_written_here"));
  }
  return Checked;
}

/// Collects every function literal of a body, nested ones included.
class FunctionCollector : public js::ConstAstVisitor {
public:
  std::vector<const js::FunctionLiteral *> Fns;

protected:
  bool enterFunction(const js::FunctionLiteral &Fn) override {
    Fns.push_back(&Fn);
    return true;
  }
};

/// Script bodies of one page: inline scripts, in-tag handlers and
/// external `.js` resources; `.html` resources (frames) recurse.
void collectSources(const std::string &Html, std::vector<std::string> &Out) {
  bool InScript = false;
  for (const html::HtmlToken &T : html::Tokenizer::tokenizeAll(Html)) {
    if (T.TokKind == html::HtmlToken::Kind::StartTag) {
      InScript = T.Name == "script";
      for (const auto &[Name, Value] : T.Attrs)
        if (Name.rfind("on", 0) == 0)
          Out.push_back(Value);
    } else if (T.TokKind == html::HtmlToken::Kind::Text && InScript) {
      Out.push_back(T.Text);
      InScript = false;
    } else {
      InScript = false;
    }
  }
}

bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

/// Checks every body of \p Sources and the function literals inside.
/// Returns (bodies, pairs) checked.
std::pair<size_t, size_t> checkSources(const std::vector<std::string> &Sources,
                                       const std::string &Label) {
  size_t Bodies = 0, Pairs = 0;
  for (const std::string &Src : Sources) {
    js::ParseResult R = js::Parser::parseProgram(Src);
    if (!R.ok())
      continue; // Pages may carry deliberately broken scripts.
    Pairs += checkFlowFacts(FlowInfo(*R.Ast), Label);
    ++Bodies;
    FunctionCollector Fns;
    Fns.walk(*R.Ast);
    for (const js::FunctionLiteral *Fn : Fns.Fns) {
      Pairs += checkFlowFacts(FlowInfo(*Fn), Label + " fn " + Fn->Name);
      ++Bodies;
    }
  }
  return {Bodies, Pairs};
}

TEST(StaticIndexTest, FlowFactsMatchPrefixWalkOnFigurePages) {
  size_t Bodies = 0, Pairs = 0;
  std::vector<PageSpec> Pages = figurePages();
  Pages.push_back(falsePositivePage());
  for (const PageSpec &Page : Pages) {
    std::vector<std::string> Sources;
    collectSources(Page.Html, Sources);
    for (const PageResource &Res : Page.Resources) {
      if (endsWith(Res.Url, ".js"))
        Sources.push_back(Res.Content);
      else if (endsWith(Res.Url, ".html"))
        collectSources(Res.Content, Sources);
    }
    auto [B, P] = checkSources(Sources, Page.Name);
    Bodies += B;
    Pairs += P;
  }
  EXPECT_GT(Bodies, 10u);
  EXPECT_GT(Pairs, 0u);
}

TEST(StaticIndexTest, FlowFactsMatchPrefixWalkOnGuardAndDefShapes) {
  // A statement that kills its own guard, must-defs earlier in the same
  // block or in a dominating block, conditional (may) defs, and
  // unreachable code.
  std::vector<std::string> Sources = {
      "if (ready) { ready = false; go(ready); done = ready; }",
      "if (typeof f == 'function') { f(); f = null; g = f; }",
      "if (window.loaded) { loaded = 0; loaded = 1; use(loaded); }",
      "x = 1; if (c) { y = x; } else { x = 2; } z = x + y;",
      "var a = b; b = 2; c = b; a = c ? b : d; e = d;",
      "ok && (v = 1); w = v; v = 2; w = v;",
      "while (n) { t = n; n = t - 1; } r = t;",
      "function h() { if (p) { return q; } q = 1; return q; } h();",
      "function u() { return; k = 1; m = k; } while (1) { break; j = k; }",
      "switch (s) { case 1: s = 2; u = s; break; default: u = 0; } v = u;",
  };
  auto [Bodies, Pairs] = checkSources(Sources, "shapes");
  EXPECT_EQ(Bodies, Sources.size() + 2);
  EXPECT_GT(Pairs, 50u);
}

TEST(StaticIndexTest, FlowFactsMatchPrefixWalkOnCorpusSites) {
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(2012);
  Corpus.resize(10);
  size_t Bodies = 0, Pairs = 0;
  for (const sites::GeneratedSite &Site : Corpus) {
    std::vector<std::string> Sources;
    collectSources(Site.Html, Sources);
    for (const sites::SiteResource &Res : Site.Resources) {
      if (endsWith(Res.Url, ".js"))
        Sources.push_back(Res.Body);
      else if (endsWith(Res.Url, ".html"))
        collectSources(Res.Body, Sources);
    }
    auto [B, P] = checkSources(Sources, Site.Name);
    Bodies += B;
    Pairs += P;
  }
  EXPECT_GT(Bodies, 100u);
  EXPECT_GT(Pairs, 100u);
}

} // namespace
