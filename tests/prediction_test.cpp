//===- tests/prediction_test.cpp - Predictive partial-order engines -----------===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Covers the predictive orders end to end:
//
//  * ShbEngine / WcpEngine unit tests over hand-fed event streams - the
//    write-read join that orders a later-created operation before an
//    earlier one, WCP's dispatch-atomicity edge dropping, the
//    creation-edge substitution that keeps every interval callback
//    anchored to its registration, and the conflict test's edge cases
//    (an operation split around a nested one, read-read sharing, empty
//    footprints, operations past the last one that accessed anything).
//  * The premise of the prediction walk over random traces: under either
//    order a pair's verdict only ever moves from concurrent to ordered.
//  * Replay equivalence: a recorded session trace (round-tripped through
//    the WRT2 encoding) replays to byte-identical observed races with
//    prediction off and on - prediction never perturbs observation.
//  * Session-level gates over the seeded corpus patterns: Predict runs
//    SHB then WCP, SHB dominates the first-race-only observed run on
//    PostFirstRaceBenign, and WCP's predictions are a strict superset of
//    SHB's on IntervalSkipBenign.
//
//===----------------------------------------------------------------------===//

#include "RandomTrace.h"

#include "detect/Prediction.h"
#include "detect/TraceReplay.h"
#include "hb/PredictiveEngine.h"
#include "sites/Corpus.h"
#include "webracer/RunReport.h"
#include "webracer/Session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

using namespace wr;
using namespace wr::detect;

namespace {

//===----------------------------------------------------------------------===//
// Engine unit tests: hand-fed event streams.
//===----------------------------------------------------------------------===//

Operation op(OperationKind Kind) {
  Operation O;
  O.Kind = Kind;
  return O;
}

void addOps(PredictiveEngine &E, std::initializer_list<OperationKind> Kinds) {
  OpId Id = 1;
  for (OperationKind K : Kinds)
    E.onOperationCreated(Id++, op(K));
}

Access access(OpId Op, LocId Loc, AccessKind Kind) {
  Access A;
  A.Kind = Kind;
  A.Origin = AccessOrigin::Plain;
  A.Op = Op;
  A.Loc = Loc;
  return A;
}

TEST(ShbEngineTest, KeptEdgesOrderLikeHappensBefore) {
  ShbEngine E;
  addOps(E, {OperationKind::ExecuteScript, OperationKind::TimeoutCallback,
             OperationKind::TimeoutCallback});
  E.onHbEdge(1, 2, HbRule::R16_SetTimeout);
  E.onHbEdge(1, 3, HbRule::R16_SetTimeout);
  EXPECT_EQ(E.ordering(1, 2), Ordering::Before);
  EXPECT_EQ(E.ordering(2, 1), Ordering::After);
  EXPECT_EQ(E.ordering(1, 3), Ordering::Before);
  // Sibling timeouts have no rule ordering them (rule 16 is creator ->
  // callback only); they are concurrent until a write-read edge appears.
  EXPECT_EQ(E.ordering(2, 3), Ordering::Concurrent);
  EXPECT_EQ(E.ordering(3, 1), Ordering::After);
  EXPECT_EQ(E.droppedEdges(), 0u);
}

TEST(ShbEngineTest, WriteReadJoinOrdersLaterIdBeforeEarlier) {
  // Operation 3 (created later) runs first and writes L; operation 2
  // then reads L. The write-read edge orders 3 before 2 even though
  // 3 > 2 - the case HbGraph's id-ordered index can never produce.
  ShbEngine E;
  addOps(E, {OperationKind::ExecuteScript, OperationKind::TimeoutCallback,
             OperationKind::TimeoutCallback});
  E.onHbEdge(1, 2, HbRule::R16_SetTimeout);
  E.onHbEdge(1, 3, HbRule::R16_SetTimeout);
  EXPECT_EQ(E.ordering(2, 3), Ordering::Concurrent);
  const LocId L = 7;
  E.onMemoryAccess(access(3, L, AccessKind::Write));
  E.onMemoryAccess(access(2, L, AccessKind::Read));
  EXPECT_EQ(E.ordering(3, 2), Ordering::Before);
  EXPECT_EQ(E.ordering(2, 3), Ordering::After);
}

TEST(ShbEngineTest, QueriesFinalizeLazilyBeforeFirstAccess) {
  // The driver checks a candidate pair before delivering the second
  // access (check-then-update); ordering() must not require a prior
  // onMemoryAccess to have finalized the clocks.
  ShbEngine E;
  addOps(E, {OperationKind::ExecuteScript, OperationKind::TimeoutCallback});
  E.onHbEdge(1, 2, HbRule::R16_SetTimeout);
  EXPECT_EQ(E.ordering(1, 2), Ordering::Before);
}

TEST(WcpEngineTest, DropsNonConflictingChainEdgesAndSubstitutesCreation) {
  // Creator 1 registers an interval; callbacks 2, 3, 4 touch pairwise
  // disjoint locations. Both chain edges (2->3, 3->4) drop, but the
  // substituted creation edges keep every callback after its
  // registration.
  WcpEngine E;
  addOps(E, {OperationKind::ExecuteScript, OperationKind::IntervalCallback,
             OperationKind::IntervalCallback, OperationKind::IntervalCallback});
  E.primeAccess(2, 10, AccessKind::Write);
  E.primeAccess(3, 11, AccessKind::Write);
  E.primeAccess(4, 12, AccessKind::Write);
  E.onHbEdge(1, 2, HbRule::R17_SetInterval);
  E.onHbEdge(2, 3, HbRule::R17_SetInterval);
  E.onHbEdge(3, 4, HbRule::R17_SetInterval);
  EXPECT_EQ(E.droppedEdges(), 2u);
  EXPECT_EQ(E.ordering(2, 3), Ordering::Concurrent);
  EXPECT_EQ(E.ordering(2, 4), Ordering::Concurrent);
  EXPECT_EQ(E.ordering(3, 4), Ordering::Concurrent);
  EXPECT_EQ(E.ordering(1, 2), Ordering::Before);
  EXPECT_EQ(E.ordering(1, 3), Ordering::Before);
  EXPECT_EQ(E.ordering(1, 4), Ordering::Before);

  // SHB keeps the whole chain on the same stream.
  ShbEngine S;
  addOps(S, {OperationKind::ExecuteScript, OperationKind::IntervalCallback,
             OperationKind::IntervalCallback, OperationKind::IntervalCallback});
  S.onHbEdge(1, 2, HbRule::R17_SetInterval);
  S.onHbEdge(2, 3, HbRule::R17_SetInterval);
  S.onHbEdge(3, 4, HbRule::R17_SetInterval);
  EXPECT_EQ(S.droppedEdges(), 0u);
  EXPECT_EQ(S.ordering(2, 4), Ordering::Before);
}

TEST(WcpEngineTest, KeepsConflictingChainEdges) {
  // Callbacks 2 and 3 both write L: reordering them changes the final
  // value, so the chain edge is load-bearing and stays.
  WcpEngine E;
  addOps(E, {OperationKind::ExecuteScript, OperationKind::IntervalCallback,
             OperationKind::IntervalCallback, OperationKind::IntervalCallback});
  E.primeAccess(2, 10, AccessKind::Write);
  E.primeAccess(3, 10, AccessKind::Read);
  E.primeAccess(4, 12, AccessKind::Write);
  E.onHbEdge(1, 2, HbRule::R17_SetInterval);
  E.onHbEdge(2, 3, HbRule::R17_SetInterval);
  E.onHbEdge(3, 4, HbRule::R17_SetInterval);
  EXPECT_EQ(E.droppedEdges(), 1u);
  EXPECT_EQ(E.ordering(2, 3), Ordering::Before);
  EXPECT_EQ(E.ordering(3, 4), Ordering::Concurrent);
  EXPECT_EQ(E.ordering(1, 4), Ordering::Before);
}

TEST(WcpEngineTest, DropsNonConflictingDispatchOrderEdges) {
  WcpEngine E;
  addOps(E, {OperationKind::EventHandler, OperationKind::EventHandler,
             OperationKind::EventHandler});
  E.primeAccess(1, 20, AccessKind::Write);
  E.primeAccess(2, 21, AccessKind::Write);
  E.primeAccess(3, 21, AccessKind::Read);
  // 1->2 disjoint: drops. 2->3 share a written location: kept.
  E.onHbEdge(1, 2, HbRule::R9_DispatchOrder);
  E.onHbEdge(2, 3, HbRule::R9_DispatchOrder);
  EXPECT_EQ(E.droppedEdges(), 1u);
  EXPECT_EQ(E.ordering(1, 2), Ordering::Concurrent);
  EXPECT_EQ(E.ordering(2, 3), Ordering::Before);
}

TEST(WcpEngineTest, OnlyDispatchRulesWeaken) {
  // A non-dispatch rule between disjoint operations survives: WCP only
  // relaxes the dispatch-atomicity rules (9 and 17's chain edges).
  WcpEngine E;
  addOps(E, {OperationKind::ExecuteScript, OperationKind::TimeoutCallback});
  E.primeAccess(1, 20, AccessKind::Write);
  E.primeAccess(2, 21, AccessKind::Write);
  E.onHbEdge(1, 2, HbRule::R16_SetTimeout);
  EXPECT_EQ(E.droppedEdges(), 0u);
  EXPECT_EQ(E.ordering(1, 2), Ordering::Before);
}

TEST(WcpEngineTest, OperationSplitAroundNestedOperationConflictsThroughLaterHalf) {
  // Handler 2 reads L, a nested timeout 3 runs, then 2 writes L: its
  // footprint gathers both halves, so the dispatch-order edge to handler
  // 4, which only reads L, is a conflict and stays.
  WcpEngine E;
  addOps(E, {OperationKind::ExecuteScript, OperationKind::EventHandler,
             OperationKind::TimeoutCallback, OperationKind::EventHandler});
  E.primeAccess(2, 40, AccessKind::Read);
  E.primeAccess(3, 31, AccessKind::Write);
  E.primeAccess(2, 40, AccessKind::Write);
  E.primeAccess(4, 40, AccessKind::Read);
  E.onHbEdge(2, 4, HbRule::R9_DispatchOrder);
  E.onHbEdge(3, 4, HbRule::R9_DispatchOrder);
  EXPECT_EQ(E.droppedEdges(), 1u);
  EXPECT_EQ(E.ordering(2, 4), Ordering::Before);
  EXPECT_EQ(E.ordering(3, 4), Ordering::Concurrent);
}

TEST(WcpEngineTest, OperationSplitAroundNestedAccessToItsLocationKeepsBothHalves) {
  // As above, but the nested timeout 3 reads L too, so handler 2's read
  // and write of L are two entries apart: they still merge, and 2
  // conflicts with handler 4 while 3, another reader, does not.
  WcpEngine E;
  addOps(E, {OperationKind::ExecuteScript, OperationKind::EventHandler,
             OperationKind::TimeoutCallback, OperationKind::EventHandler});
  E.primeAccess(2, 40, AccessKind::Read);
  E.primeAccess(3, 40, AccessKind::Read);
  E.primeAccess(2, 40, AccessKind::Write);
  E.primeAccess(4, 40, AccessKind::Read);
  E.onHbEdge(2, 4, HbRule::R9_DispatchOrder);
  E.onHbEdge(3, 4, HbRule::R9_DispatchOrder);
  EXPECT_EQ(E.droppedEdges(), 1u);
  EXPECT_EQ(E.ordering(2, 4), Ordering::Before);
  EXPECT_EQ(E.ordering(3, 4), Ordering::Concurrent);
}

TEST(WcpEngineTest, ReadReadSharingNeverConflicts) {
  WcpEngine E;
  addOps(E, {OperationKind::EventHandler, OperationKind::EventHandler,
             OperationKind::EventHandler});
  E.primeAccess(1, 50, AccessKind::Read);
  E.primeAccess(1, 50, AccessKind::Read);
  E.primeAccess(2, 50, AccessKind::Read);
  E.primeAccess(3, 50, AccessKind::Read);
  E.primeAccess(3, 51, AccessKind::Write);
  E.onHbEdge(1, 2, HbRule::R9_DispatchOrder);
  E.onHbEdge(2, 3, HbRule::R9_DispatchOrder);
  EXPECT_EQ(E.droppedEdges(), 2u);
  EXPECT_EQ(E.ordering(1, 3), Ordering::Concurrent);
}

TEST(WcpEngineTest, OperationWithoutAccessesNeverConflicts) {
  // Handler 2 touches nothing; 1 and 3 write a common location but have
  // no edge of their own.
  WcpEngine E;
  addOps(E, {OperationKind::EventHandler, OperationKind::EventHandler,
             OperationKind::EventHandler});
  E.primeAccess(1, 60, AccessKind::Write);
  E.primeAccess(3, 60, AccessKind::Write);
  E.onHbEdge(1, 2, HbRule::R9_DispatchOrder);
  E.onHbEdge(2, 3, HbRule::R9_DispatchOrder);
  EXPECT_EQ(E.droppedEdges(), 2u);
  EXPECT_EQ(E.ordering(1, 3), Ordering::Concurrent);
}

TEST(WcpEngineTest, EdgePastLastAccessingOperationNeverConflicts) {
  // Operations 3 and 4 come after the last one that accessed anything,
  // so neither has a footprint.
  WcpEngine E;
  addOps(E, {OperationKind::EventHandler, OperationKind::EventHandler,
             OperationKind::EventHandler, OperationKind::EventHandler});
  E.primeAccess(1, 70, AccessKind::Write);
  E.primeAccess(2, 70, AccessKind::Read);
  E.onHbEdge(1, 2, HbRule::R9_DispatchOrder);
  E.onHbEdge(2, 3, HbRule::R9_DispatchOrder);
  E.onHbEdge(3, 4, HbRule::R9_DispatchOrder);
  EXPECT_EQ(E.droppedEdges(), 2u);
  EXPECT_EQ(E.ordering(1, 2), Ordering::Before);
  EXPECT_EQ(E.ordering(2, 3), Ordering::Concurrent);
  EXPECT_EQ(E.ordering(3, 4), Ordering::Concurrent);
}

TEST(PredictiveEngineTest, VerdictsOnlyMoveTowardOrdered) {
  // The premise of the prediction walk's first-check rule: clocks only
  // grow, so once an order finds a (location, operation pair) ordered, no
  // later check finds it concurrent. Random web-shaped traces stream
  // through each order; before each access, every conflicting prior pair
  // is checked the way the reference pass checks it, and each (location,
  // pair)'s verdict is followed from check to check.
  uint64_t ConcurrentAgain = 0, ConcurrentThenOrdered = 0, Backward = 0;
  std::string FirstBackward;
  for (uint64_t Seed = 1; Seed <= 300; ++Seed) {
    test::RandomTrace Trace(Seed);
    const TraceLog &Log = Trace.log();
    for (EngineKind Engine : {EngineKind::Shb, EngineKind::Wcp}) {
      ShbEngine Shb;
      WcpEngine Wcp;
      PredictiveEngine &PO =
          Engine == EngineKind::Shb ? static_cast<PredictiveEngine &>(Shb)
                                    : Wcp;
      for (const TraceEvent &E : Log.events())
        if (E.K == TraceEvent::Kind::MemAccess)
          PO.primeAccess(E.Mem.Op, E.Mem.Loc, E.Mem.Kind);
      std::vector<std::vector<std::pair<OpId, bool>>> Prior(
          Log.interner().size()); // (op, write) per access, by location.
      std::map<std::tuple<LocId, OpId, OpId>, bool> Ordered; // Latest.
      for (const TraceEvent &E : Log.events()) {
        if (E.K == TraceEvent::Kind::OpCreated)
          PO.onOperationCreated(E.Op, E.Meta);
        else if (E.K == TraceEvent::Kind::HbEdge)
          PO.onHbEdge(E.Op, E.Op2, E.Rule);
        if (E.K != TraceEvent::Kind::MemAccess)
          continue;
        const Access &A = E.Mem;
        bool Write = A.Kind == AccessKind::Write;
        for (const auto &[Op, PriorWrite] : Prior[A.Loc]) {
          if (Op == A.Op || (!Write && !PriorWrite))
            continue;
          bool IsOrdered = PO.ordering(Op, A.Op) != Ordering::Concurrent;
          auto [It, New] = Ordered.try_emplace(
              {A.Loc, std::min(Op, A.Op), std::max(Op, A.Op)}, IsOrdered);
          if (New)
            continue;
          if (It->second && !IsOrdered && Backward++ == 0)
            FirstBackward = "seed " + std::to_string(Seed) + " under " +
                            toString(Engine) + ": ops " + std::to_string(Op) +
                            " and " + std::to_string(A.Op) + " at location " +
                            std::to_string(A.Loc);
          if (!It->second)
            ++(IsOrdered ? ConcurrentThenOrdered : ConcurrentAgain);
          It->second = IsOrdered;
        }
        PO.onMemoryAccess(A);
        Prior[A.Loc].push_back({A.Op, Write});
      }
    }
  }
  EXPECT_EQ(Backward, 0u) << "ordered, then concurrent: " << FirstBackward;
  EXPECT_GT(ConcurrentAgain, 0u);
  EXPECT_GT(ConcurrentThenOrdered, 0u);
}

//===----------------------------------------------------------------------===//
// Session-level gates over the seeded corpus patterns.
//===----------------------------------------------------------------------===//

webracer::SessionResult runPattern(sites::PatternKind Kind,
                                   webracer::SessionOptions Opts) {
  sites::SiteSpec Spec;
  Spec.Name = "prediction";
  Spec.Patterns.push_back({Kind, 1});
  sites::GeneratedSite Site = sites::buildSite(Spec);
  webracer::Session S(Opts);
  S.network().addResource(Site.IndexUrl, Site.Html, 10);
  for (const sites::SiteResource &R : Site.Resources)
    S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                      R.MaxLatencyUs);
  return S.run(Site.IndexUrl);
}

/// \p Kind's pass of \p R, materialized against the session's trace.
std::optional<PredictionResult> findEngine(const webracer::SessionResult &R,
                                           EngineKind Kind) {
  for (const PredictionPass &P : R.Predictions)
    if (P.Engine == Kind)
      return materialize(*R.Trace, P);
  return std::nullopt;
}

/// A location-and-pair key for comparing findings across engines.
using RaceKey = std::tuple<std::string, OpId, OpId>;

RaceKey keyOf(const Race &R) {
  return {toString(R.Loc), std::min(R.First.Op, R.Second.Op),
          std::max(R.First.Op, R.Second.Op)};
}

std::set<RaceKey> keysOf(const PredictionResult &P, bool PredictedOnly) {
  std::set<RaceKey> Keys;
  for (const PredictedRace &PR : P.Races)
    if (!PredictedOnly || PR.Verdict == PredictionVerdict::Predicted)
      Keys.insert(keyOf(PR.R));
  return Keys;
}

TEST(PredictionSessionTest, ShbDominatesFirstRaceOnlyOnPostFirstRace) {
  webracer::SessionOptions Opts;
  Opts.Predict = true;
  webracer::SessionResult R =
      runPattern(sites::PatternKind::PostFirstRaceBenign, Opts);
  // The observed run's single-slot detector reports one race per
  // location: the hidden write is only caught against the most recent
  // reader.
  ASSERT_EQ(R.RawRaces.size(), 1u);
  ASSERT_EQ(R.Predictions.size(), 2u);

  std::optional<PredictionResult> Shb = findEngine(R, EngineKind::Shb);
  ASSERT_TRUE(Shb);
  // Dominance: every observed race is re-found...
  EXPECT_EQ(Shb->observedMatched(), R.RawRaces.size());
  // ...plus the earlier reader's race against the same write, which the
  // single LastRead slot had already evicted.
  EXPECT_GE(Shb->predictedCount(), 1u);
  EXPECT_EQ(Shb->DroppedEdges, 0u);

  // WCP's order is weaker, so its findings contain SHB's.
  std::optional<PredictionResult> Wcp = findEngine(R, EngineKind::Wcp);
  ASSERT_TRUE(Wcp);
  std::set<RaceKey> ShbKeys = keysOf(*Shb, false);
  std::set<RaceKey> WcpKeys = keysOf(*Wcp, false);
  EXPECT_TRUE(std::includes(WcpKeys.begin(), WcpKeys.end(), ShbKeys.begin(),
                            ShbKeys.end()));
}

TEST(PredictionSessionTest, WcpStrictSupersetOfShbOnIntervalSkip) {
  webracer::SessionOptions Opts;
  Opts.Predict = true;
  webracer::SessionResult R =
      runPattern(sites::PatternKind::IntervalSkipBenign, Opts);
  ASSERT_EQ(R.Predictions.size(), 2u);

  std::optional<PredictionResult> Shb = findEngine(R, EngineKind::Shb);
  std::optional<PredictionResult> Wcp = findEngine(R, EngineKind::Wcp);
  ASSERT_TRUE(Shb);
  ASSERT_TRUE(Wcp);

  // Both dominate the observed run.
  EXPECT_EQ(Shb->observedMatched(), R.RawRaces.size());
  EXPECT_EQ(Wcp->observedMatched(), R.RawRaces.size());

  // The interval's skipped middle tick only races with the first tick
  // when the chain edge between them is relaxed - a WCP-only finding.
  std::set<RaceKey> ShbKeys = keysOf(*Shb, false);
  std::set<RaceKey> WcpKeys = keysOf(*Wcp, false);
  EXPECT_TRUE(std::includes(WcpKeys.begin(), WcpKeys.end(), ShbKeys.begin(),
                            ShbKeys.end()));
  EXPECT_GT(Wcp->predictedCount(), Shb->predictedCount());
  EXPECT_GT(Wcp->DroppedEdges, 0u);
}

TEST(PredictionSessionTest, PredictRunsShbThenWcp) {
  // Predict is the one prediction switch: it runs the SHB pass, then the
  // WCP pass, each mirrored into the stats record that the report schema
  // renders.
  webracer::SessionOptions Opts;
  Opts.Predict = true;
  webracer::SessionResult R =
      runPattern(sites::PatternKind::PostFirstRaceBenign, Opts);
  ASSERT_EQ(R.Predictions.size(), 2u);
  EXPECT_EQ(R.Predictions[0].Engine, EngineKind::Shb);
  EXPECT_EQ(R.Predictions[1].Engine, EngineKind::Wcp);
  ASSERT_EQ(R.Stats.Prediction.size(), 2u);
  EXPECT_EQ(R.Stats.Prediction[0].Engine, "shb");
  EXPECT_EQ(R.Stats.Prediction[1].Engine, "wcp");
  // The passes index the session's recording, which the result shares.
  EXPECT_TRUE(R.Trace);

  Opts.Predict = false;
  R = runPattern(sites::PatternKind::PostFirstRaceBenign, Opts);
  EXPECT_TRUE(R.Predictions.empty());
  EXPECT_TRUE(R.Stats.Prediction.empty());
  EXPECT_FALSE(R.Trace);
}

//===----------------------------------------------------------------------===//
// Replay equivalence: prediction never changes the observed races.
//===----------------------------------------------------------------------===//

std::string racesJson(const std::vector<Race> &Races, const HbGraph &Hb) {
  obs::Json Arr = obs::Json::array();
  for (const Race &R : Races)
    Arr.push(webracer::raceToJson(R, Hb));
  return obs::writeJson(Arr);
}

TEST(PredictionReplayTest, DecodedTraceObservedRacesAgreeAcrossEngines) {
  // Record a session over both prediction seeds, round-trip the trace
  // through serialize(), then replay with prediction off and on: the
  // observed race report must be byte-identical - the SHB and WCP passes
  // only add predictions, they never change what was observed.
  sites::SiteSpec Spec;
  Spec.Name = "prediction";
  Spec.Patterns.push_back({sites::PatternKind::PostFirstRaceBenign, 1});
  Spec.Patterns.push_back({sites::PatternKind::IntervalSkipBenign, 1});
  sites::GeneratedSite Site = sites::buildSite(Spec);

  webracer::SessionOptions Opts;
  Opts.RecordTrace = true;
  webracer::Session S(Opts);
  S.network().addResource(Site.IndexUrl, Site.Html, 10);
  webracer::SessionResult Online = S.run(Site.IndexUrl);
  ASSERT_NE(S.trace(), nullptr);
  ASSERT_FALSE(Online.RawRaces.empty());

  std::string Bytes = S.trace()->serialize();
  TraceLog Log;
  std::string Error;
  ASSERT_TRUE(TraceLog::deserialize(Bytes, Log, &Error)) << Error;

  std::string RawGolden, FilteredGolden;
  for (bool Predict : {false, true}) {
    ReplayOptions RO;
    RO.Predict = Predict;
    ReplayResult R = replayTrace(Log, RO);
    std::string Raw = racesJson(R.RawRaces, R.Hb);
    std::string Filtered = racesJson(R.FilteredRaces, R.Hb);
    if (!Predict) {
      RawGolden = Raw;
      FilteredGolden = Filtered;
      // The plain replay reproduces the online run.
      EXPECT_EQ(R.RawRaces.size(), Online.RawRaces.size());
      EXPECT_EQ(R.FilteredRaces.size(), Online.FilteredRaces.size());
      EXPECT_TRUE(R.Predictions.empty());
      continue;
    }
    EXPECT_EQ(Raw, RawGolden);
    EXPECT_EQ(Filtered, FilteredGolden);
    ASSERT_EQ(R.Predictions.size(), 2u);
    for (const PredictionResult &P : R.Predictions)
      // Offline prediction dominates the observed replay too.
      EXPECT_EQ(P.observedMatched(), R.RawRaces.size())
          << "engine " << toString(P.Engine);
  }
}

} // namespace
