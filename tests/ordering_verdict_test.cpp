//===- tests/ordering_verdict_test.cpp - Clock index vs dense clocks --------===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// HbGraph, ShbEngine and WcpEngine all answer ordering queries from one
// ClockIndex (hb/ClockIndex.h): copy-on-write slabs, with the predictive
// orders' write-read joins written as fresh slabs. This file keeps the
// dense engine the index replaced - one std::vector<uint32_t> of
// watermarks per operation and a copied vector per written location - as
// the reference, and checks that every ordering verdict agrees:
//
//  * the same events stream into the engine under test and the
//    reference; at each access, ordering(P, X) and ordering(X, P) are
//    compared for the access's operation X and every created operation P,
//    both before and after the access is delivered;
//  * at the end every pair is compared, plus droppedEdges() and
//    numChains();
//  * under shb and wcp against the matching reference, and under hb with
//    HbGraph against the SHB reference given every edge and no access.
//
// Inputs are recorded corpus sites, the figure pages and the random
// web-shaped traces. The random set must contain own-chain joins: a nested
// operation Z takes its parent X's chain and writes a location X then
// reads, which lifts X's watermark on its own chain above X's position.
// The dense engine then answers ordering(X, Z) == ordering(Z, X) ==
// Before, and the index must too. Over the corpus traces, SHB's index must
// also hold fewer bytes than the dense clocks.
//
//===----------------------------------------------------------------------===//

#include "RandomTrace.h"

#include "analysis/Scenarios.h"
#include "hb/PredictiveEngine.h"
#include "sites/Corpus.h"
#include "support/Rng.h"
#include "support/Watermarks.h"
#include "webracer/Session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

using namespace wr;

namespace {

//===----------------------------------------------------------------------===//
// The reference: dense per-operation clocks
//===----------------------------------------------------------------------===//

namespace dense {

/// The predictive engines as they were before the clock index: greedy
/// chain packing, a full watermark vector per operation, finalized lazily
/// in id order, and a copied clock per written location. Only the
/// instrumentation is new: denseBytes(), and the own-chain join count.
class PredictiveEngine {
public:
  virtual ~PredictiveEngine() = default;

  Ordering ordering(OpId A, OpId B) const {
    assert(A != InvalidOpId && B != InvalidOpId && A != B &&
           "ordering() requires two distinct valid operations");
    finalizeThrough(std::max(A, B));
    const OpClock &CA = Clocks[A - 1];
    const OpClock &CB = Clocks[B - 1];
    if (CA.Chain < CB.Clock.size() && CB.Clock[CA.Chain] >= CA.Pos)
      return Ordering::Before;
    if (CB.Chain < CA.Clock.size() && CA.Clock[CB.Chain] >= CB.Pos)
      return Ordering::After;
    return Ordering::Concurrent;
  }

  virtual void onOperationCreated(OpId Op, const Operation &Meta) {
    (void)Op;
    (void)Meta;
    assert(Op == Clocks.size() + 1 && "operations must arrive in id order");
    Clocks.emplace_back();
    Preds.emplace_back();
  }

  virtual void onHbEdge(OpId From, OpId To, HbRule Rule) {
    assert(From != InvalidOpId && To != InvalidOpId && From < To &&
           "HB edges must point from an older to a newer operation");
    assert(To <= Clocks.size() && "edge targets an unknown operation");
    assert(Finalized < To && "in-edges must precede clock finalization");
    if (!keepEdge(From, To, Rule)) {
      ++DroppedEdges;
      return;
    }
    std::vector<OpId> &In = Preds[To - 1];
    if (std::find(In.begin(), In.end(), From) == In.end())
      In.push_back(From);
  }

  void onMemoryAccess(const Access &A) {
    assert(A.Op != InvalidOpId && "access without an operation");
    finalizeThrough(A.Op);
    OpClock &C = Clocks[A.Op - 1];
    if (A.Kind == AccessKind::Read) {
      auto It = LastWriteClock.find(A.Loc);
      if (It != LastWriteClock.end()) {
        const std::vector<uint32_t> &Src = It->second;
        if (C.Chain < Src.size() && Src[C.Chain] > C.Pos)
          ++OwnChainJoins;
        joinInto(C.Clock, Src);
      }
      return;
    }
    LastWriteClock[A.Loc] = C.Clock;
  }

  virtual void primeAccess(OpId Op, LocId Loc, AccessKind Kind) {
    (void)Op;
    (void)Loc;
    (void)Kind;
  }

  size_t numChains() const { return ChainTails.size(); }
  uint64_t droppedEdges() const { return DroppedEdges; }

  /// Per-operation watermark words and vector headers, plus the
  /// last-write watermark words.
  uint64_t denseBytes() const {
    uint64_t Words = 0;
    for (const OpClock &C : Clocks)
      Words += C.Clock.size();
    for (const auto &[Loc, Clock] : LastWriteClock)
      Words += Clock.size();
    return Words * sizeof(uint32_t) +
           Clocks.size() * sizeof(std::vector<uint32_t>);
  }

  /// Read joins whose last-write clock holds a watermark on the reader's
  /// own chain above the reader's position.
  uint64_t ownChainJoins() const { return OwnChainJoins; }

protected:
  virtual bool keepEdge(OpId From, OpId To, HbRule Rule) {
    (void)From;
    (void)To;
    (void)Rule;
    return true;
  }

private:
  struct OpClock {
    uint32_t Chain = 0;
    uint32_t Pos = 0; ///< 1-based position within Chain; 0 = unfinalized.
    std::vector<uint32_t> Clock;
  };

  void finalizeThrough(OpId Op) const {
    assert(Op <= Clocks.size() && "access names an unknown operation");
    for (OpId Cur = Finalized + 1; Cur <= Op; ++Cur) {
      OpClock &C = Clocks[Cur - 1];
      uint32_t Chain = static_cast<uint32_t>(ChainTails.size());
      uint32_t Pos = 1;
      for (OpId P : Preds[Cur - 1]) {
        const OpClock &PC = Clocks[P - 1];
        if (ChainTails[PC.Chain] == P) {
          Chain = PC.Chain;
          Pos = PC.Pos + 1;
          break;
        }
      }
      if (Chain == ChainTails.size())
        ChainTails.push_back(Cur);
      else
        ChainTails[Chain] = Cur;
      C.Chain = Chain;
      C.Pos = Pos;
      for (OpId P : Preds[Cur - 1])
        joinInto(C.Clock, Clocks[P - 1].Clock);
      if (C.Clock.size() <= Chain)
        C.Clock.resize(Chain + 1, 0);
      C.Clock[Chain] = Pos;
    }
    Finalized = std::max(Finalized, Op);
  }

  static void joinInto(std::vector<uint32_t> &Dst,
                       const std::vector<uint32_t> &Src) {
    if (&Dst == &Src)
      return;
    if (Src.size() > Dst.size())
      Dst.resize(Src.size(), 0);
    support::watermarksJoinMax(Dst.data(), Src.data(), Src.size());
  }

  mutable std::vector<OpClock> Clocks;
  std::vector<std::vector<OpId>> Preds;
  mutable std::vector<OpId> ChainTails;
  std::unordered_map<LocId, std::vector<uint32_t>> LastWriteClock;
  mutable OpId Finalized = 0;
  uint64_t DroppedEdges = 0;
  uint64_t OwnChainJoins = 0;
};

class ShbEngine final : public PredictiveEngine {};

class WcpEngine final : public PredictiveEngine {
public:
  void onOperationCreated(OpId Op, const Operation &Meta) override {
    PredictiveEngine::onOperationCreated(Op, Meta);
    IntervalCb.push_back(Meta.Kind == OperationKind::IntervalCallback);
  }

  void onHbEdge(OpId From, OpId To, HbRule Rule) override {
    if (Rule != HbRule::R17_SetInterval) {
      PredictiveEngine::onHbEdge(From, To, Rule);
      return;
    }
    OpId Creator = From;
    if (isIntervalCb(From)) {
      auto It = IntervalCreator.find(From);
      Creator = It != IntervalCreator.end() ? It->second : InvalidOpId;
    }
    if (Creator != InvalidOpId)
      IntervalCreator[To] = Creator;
    uint64_t Before = droppedEdges();
    PredictiveEngine::onHbEdge(From, To, Rule);
    if (droppedEdges() != Before && Creator != InvalidOpId && Creator != From)
      PredictiveEngine::onHbEdge(Creator, To, HbRule::R17_SetInterval);
  }

  void primeAccess(OpId Op, LocId Loc, AccessKind Kind) override {
    assert(Op != InvalidOpId && "access without an operation");
    if (Op > Footprint.size())
      Footprint.resize(Op);
    Footprint[Op - 1][Loc] |= Kind == AccessKind::Write ? 2 : 1;
  }

protected:
  bool keepEdge(OpId From, OpId To, HbRule Rule) override {
    if (Rule == HbRule::R9_DispatchOrder)
      return conflicting(From, To);
    if (Rule == HbRule::R17_SetInterval && isIntervalCb(From))
      return conflicting(From, To);
    return true;
  }

private:
  bool conflicting(OpId A, OpId B) const {
    if (A > Footprint.size() || B > Footprint.size())
      return false;
    const auto &FA = Footprint[A - 1];
    const auto &FB = Footprint[B - 1];
    const auto &Small = FA.size() <= FB.size() ? FA : FB;
    const auto &Large = FA.size() <= FB.size() ? FB : FA;
    for (const auto &[Loc, Mask] : Small) {
      auto It = Large.find(Loc);
      if (It != Large.end() && (Mask | It->second) & 2)
        return true;
    }
    return false;
  }

  bool isIntervalCb(OpId Op) const {
    return Op <= IntervalCb.size() && IntervalCb[Op - 1];
  }

  std::vector<std::unordered_map<LocId, uint8_t>> Footprint;
  std::vector<uint8_t> IntervalCb;
  std::unordered_map<OpId, OpId> IntervalCreator;
};

} // namespace dense

//===----------------------------------------------------------------------===//
// The comparison
//===----------------------------------------------------------------------===//

/// The hb order under test: an HbGraph built from the streamed events,
/// with the engines' query and stream surface.
class GraphEngine {
public:
  Ordering ordering(OpId A, OpId B) const { return G.ordering(A, B); }
  void onOperationCreated(OpId Op, const Operation &Meta) {
    OpId Id = G.addOperation(Meta);
    (void)Id;
    (void)Op;
    assert(Id == Op && "operations must arrive in id order");
  }
  void onHbEdge(OpId From, OpId To, HbRule Rule) { G.addEdge(From, To, Rule); }
  size_t numChains() const { return G.numChains(); }

private:
  HbGraph G;
};

/// What one comparison covered, summed over traces.
struct Tally {
  uint64_t Queries = 0;
  /// Compared pairs ordered Before in both directions (own-chain joins).
  uint64_t BothBefore = 0;
  uint64_t OwnChainJoins = 0;
  uint64_t TracesWithOwnChainJoins = 0;
  uint64_t IndexBytes = 0;
  uint64_t DenseBytes = 0;
};

/// ordering() in both directions between \p X and every operation in
/// [1, \p Last].
template <class Engine>
::testing::AssertionResult sameVerdicts(const Engine &Got,
                                        const dense::PredictiveEngine &Want,
                                        OpId X, OpId Last, Tally &T) {
  for (OpId P = 1; P <= Last; ++P) {
    if (P == X)
      continue;
    Ordering Got1 = Got.ordering(P, X), Got2 = Got.ordering(X, P);
    Ordering Want1 = Want.ordering(P, X), Want2 = Want.ordering(X, P);
    T.Queries += 2;
    if (Got1 != Want1 || Got2 != Want2)
      return ::testing::AssertionFailure()
             << "ordering(" << P << ", " << X << ") and the reverse are "
             << toString(Got1) << "/" << toString(Got2) << ", reference "
             << toString(Want1) << "/" << toString(Want2);
    T.BothBefore += Got1 == Ordering::Before && Got2 == Ordering::Before;
  }
  return ::testing::AssertionSuccess();
}

/// Streams \p Log into \p Got and its reference \p Want and compares
/// every verdict (see the file comment).
template <class Engine>
void compareVerdicts(const TraceLog &Log, Engine &Got,
                     dense::PredictiveEngine &Want, Tally &T) {
  constexpr bool Predictive = std::is_base_of_v<PredictiveEngine, Engine>;
  if constexpr (Predictive)
    for (const TraceEvent &E : Log.events())
      if (E.K == TraceEvent::Kind::MemAccess) {
        Got.primeAccess(E.Mem.Op, E.Mem.Loc, E.Mem.Kind);
        Want.primeAccess(E.Mem.Op, E.Mem.Loc, E.Mem.Kind);
      }

  OpId Created = 0;
  for (const TraceEvent &E : Log.events()) {
    switch (E.K) {
    case TraceEvent::Kind::OpCreated:
      Got.onOperationCreated(E.Op, E.Meta);
      Want.onOperationCreated(E.Op, E.Meta);
      Created = E.Op;
      break;
    case TraceEvent::Kind::HbEdge:
      // Comparing against every created operation builds its clock, so
      // the trace must only ever add edges to the newest one.
      ASSERT_EQ(E.Op2, Created) << "edge into an older operation";
      Got.onHbEdge(E.Op, E.Op2, E.Rule);
      Want.onHbEdge(E.Op, E.Op2, E.Rule);
      break;
    case TraceEvent::Kind::MemAccess:
      ASSERT_TRUE(sameVerdicts(Got, Want, E.Mem.Op, Created, T))
          << " before access '" << E.Mem.Detail << "' of op " << E.Mem.Op;
      if constexpr (Predictive) { // HB has no write-read edges.
        Got.onMemoryAccess(E.Mem);
        Want.onMemoryAccess(E.Mem);
        ASSERT_TRUE(sameVerdicts(Got, Want, E.Mem.Op, Created, T))
            << " after access '" << E.Mem.Detail << "' of op " << E.Mem.Op;
      }
      break;
    default:
      break;
    }
  }
  for (OpId X = 1; X <= Created; ++X)
    ASSERT_TRUE(sameVerdicts(Got, Want, X, X - 1, T)) << " at the end";

  EXPECT_EQ(Got.numChains(), Want.numChains());
  if constexpr (!Predictive) {
    EXPECT_EQ(Want.droppedEdges(), 0u);
  } else {
    EXPECT_EQ(Got.droppedEdges(), Want.droppedEdges());
    T.OwnChainJoins += Want.ownChainJoins();
    T.TracesWithOwnChainJoins += Want.ownChainJoins() != 0;
    T.IndexBytes += Got.clockBytes();
    T.DenseBytes += Want.denseBytes();
  }
}

/// Compares the three orders over \p Log with their references: HbGraph
/// with the SHB reference given every edge and no access, and each
/// predictive engine with its own.
void expectSameVerdicts(const TraceLog &Log, const std::string &Label,
                        Tally &Hb, Tally &Shb, Tally &Wcp) {
  {
    SCOPED_TRACE(Label + " under hb");
    GraphEngine Got;
    dense::ShbEngine Want;
    compareVerdicts(Log, Got, Want, Hb);
  }
  {
    SCOPED_TRACE(Label + " under shb");
    ShbEngine Got;
    dense::ShbEngine Want;
    compareVerdicts(Log, Got, Want, Shb);
  }
  SCOPED_TRACE(Label + " under wcp");
  WcpEngine Got;
  dense::WcpEngine Want;
  compareVerdicts(Log, Got, Want, Wcp);
}

//===----------------------------------------------------------------------===//
// Tests
//===----------------------------------------------------------------------===//

TEST(OrderingVerdictTest, RecordedCorpusSitesMatchDenseClocks) {
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(2012);
  Corpus.resize(24);
  Rng Seeds(2012);
  Tally Hb, Shb, Wcp;
  for (const sites::GeneratedSite &Site : Corpus) {
    webracer::SessionOptions Opts;
    Opts.RecordTrace = true;
    Opts.Browser.Seed = Seeds.next();
    webracer::Session S(Opts);
    S.network().addResource(Site.IndexUrl, Site.Html, 10);
    for (const sites::SiteResource &R : Site.Resources)
      S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                        R.MaxLatencyUs);
    S.run(Site.IndexUrl);
    ASSERT_NE(S.trace(), nullptr);
    expectSameVerdicts(*S.trace(), Site.Name, Hb, Shb, Wcp);
  }
  EXPECT_GT(Hb.Queries, 100000u);
  EXPECT_GT(Shb.Queries, 100000u);
  std::printf("clock bytes over %zu corpus traces: shb index %llu, dense "
              "%llu; wcp index %llu, dense %llu\n",
              Corpus.size(), static_cast<unsigned long long>(Shb.IndexBytes),
              static_cast<unsigned long long>(Shb.DenseBytes),
              static_cast<unsigned long long>(Wcp.IndexBytes),
              static_cast<unsigned long long>(Wcp.DenseBytes));
  EXPECT_LT(Shb.IndexBytes, Shb.DenseBytes);
}

TEST(OrderingVerdictTest, FigurePagesMatchDenseClocks) {
  std::vector<analysis::PageSpec> Pages = analysis::figurePages();
  Pages.push_back(analysis::falsePositivePage());
  Tally T;
  for (const analysis::PageSpec &Page : Pages) {
    webracer::SessionOptions Opts;
    Opts.RecordTrace = true;
    webracer::Session S(Opts);
    S.network().addResource(Page.EntryUrl, Page.Html, 10);
    for (const analysis::PageResource &R : Page.Resources)
      S.network().addResource(R.Url, R.Content, R.LatencyUs);
    S.run(Page.EntryUrl);
    ASSERT_NE(S.trace(), nullptr);
    expectSameVerdicts(*S.trace(), Page.Name, T, T, T);
  }
  EXPECT_GT(T.Queries, 0u);
}

TEST(OrderingVerdictTest, RandomTracesMatchDenseClocksWithOwnChainJoins) {
  Tally T;
  for (uint64_t Seed = 1; Seed <= 150; ++Seed) {
    test::RandomTrace Trace(Seed);
    expectSameVerdicts(Trace.log(), "seed " + std::to_string(Seed), T, T, T);
  }
  std::printf("random traces: %llu own-chain joins in %llu engine runs; "
              "%llu verdict pairs Before both ways\n",
              static_cast<unsigned long long>(T.OwnChainJoins),
              static_cast<unsigned long long>(T.TracesWithOwnChainJoins),
              static_cast<unsigned long long>(T.BothBefore));
  EXPECT_GT(T.OwnChainJoins, 0u);
  EXPECT_GT(T.BothBefore, 0u);
  EXPECT_GT(T.Queries, 1000000u);
}

} // namespace
