//===- tests/prediction_oracle_test.cpp - predictRaces vs reference pass ----===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// detect::predictRaces answers each access from a per-location index (a
// dense history of event indices, reads scanning only prior writes, a
// flat deduplication set) and keeps each finding as an event-index pair.
// This file keeps the straightforward full-history pass it replaced,
// which builds every race as it goes, as the reference and checks that
// the pairs materialize to identical results - every PredictedRace field
// (Detail strings, the form-filter flag, the verdict) in the same order,
// plus PairsChecked and DroppedEdges - under the shb and wcp orders, over:
//
//  * recorded seed-2012 corpus sites;
//  * the figure pages and the false-positive page;
//  * random web-shaped traces: operations created with in-edges from
//    older ones, run one at a time with nested operations inside, over a
//    small location pool so the same operation touches a location
//    repeatedly and reads before writing it.
//
// It also checks the two shapes a prediction run hands out agree: a
// session's passes, materialized through the trace its result shares
// after the session is gone, equal a replay's materialized predictions
// of that trace, wr_prediction rows included.
//
//===----------------------------------------------------------------------===//

#include "RandomTrace.h"

#include "analysis/Scenarios.h"
#include "detect/Prediction.h"
#include "detect/TraceReplay.h"
#include "hb/PredictiveEngine.h"
#include "sites/Corpus.h"
#include "support/Rng.h"
#include "webracer/Session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace wr;
using namespace wr::detect;

namespace {

//===----------------------------------------------------------------------===//
// The reference: every access checked against its location's whole
// history, with hash-map bookkeeping.
//===----------------------------------------------------------------------===//

struct PairKey {
  LocId Loc;
  uint64_t Ops;

  bool operator==(const PairKey &Other) const = default;
};

struct PairKeyHash {
  size_t operator()(const PairKey &K) const {
    uint64_t H = K.Ops * 0x9e3779b97f4a7c15ull;
    return std::hash<uint64_t>()(H ^ K.Loc);
  }
};

uint64_t packPair(OpId A, OpId B) {
  OpId Lo = std::min(A, B);
  OpId Hi = std::max(A, B);
  return (static_cast<uint64_t>(Lo) << 32) | Hi;
}

struct LocHistory {
  struct Entry {
    Access A;
    bool HadPriorRead = false;
  };
  std::vector<Entry> Entries;
  std::unordered_set<OpId> ReaderOps;
};

PredictionResult referencePredictRaces(const TraceLog &Log, EngineKind Engine,
                                       const std::vector<Race> &ObservedRaw) {
  PredictionResult Result;
  Result.Engine = Engine;

  std::unique_ptr<PredictiveEngine> Owned;
  if (Engine == EngineKind::Shb)
    Owned = std::make_unique<ShbEngine>();
  else
    Owned = std::make_unique<WcpEngine>();
  PredictiveEngine &PO = *Owned;

  if (Engine == EngineKind::Wcp)
    for (const TraceEvent &E : Log.events())
      if (E.K == TraceEvent::Kind::MemAccess)
        PO.primeAccess(E.Mem.Op, E.Mem.Loc, E.Mem.Kind);

  std::unordered_set<PairKey, PairKeyHash> Observed;
  for (const Race &R : ObservedRaw)
    Observed.insert({R.First.Loc, packPair(R.First.Op, R.Second.Op)});

  std::unordered_map<LocId, LocHistory> Histories;
  std::unordered_set<PairKey, PairKeyHash> Seen;

  for (const TraceEvent &E : Log.events()) {
    switch (E.K) {
    case TraceEvent::Kind::OpCreated:
      PO.onOperationCreated(E.Op, E.Meta);
      break;
    case TraceEvent::Kind::HbEdge:
      PO.onHbEdge(E.Op, E.Op2, E.Rule);
      break;
    case TraceEvent::Kind::MemAccess: {
      const Access &A = E.Mem;
      LocHistory &H = Histories[A.Loc];
      for (const LocHistory::Entry &Prior : H.Entries) {
        bool OneIsWrite = Prior.A.Kind == AccessKind::Write ||
                          A.Kind == AccessKind::Write;
        if (Prior.A.Op == A.Op || !OneIsWrite)
          continue;
        ++Result.PairsChecked;
        if (PO.ordering(Prior.A.Op, A.Op) != Ordering::Concurrent)
          continue;
        PairKey Key{A.Loc, packPair(Prior.A.Op, A.Op)};
        if (!Seen.insert(Key).second)
          continue;
        PredictedRace P;
        P.R.Loc = Log.interner().resolve(A.Loc);
        P.R.First = Prior.A;
        P.R.Second = A;
        P.R.Kind = classifyRace(Prior.A, A, P.R.Loc);
        if (Prior.A.Kind == AccessKind::Write && Prior.HadPriorRead)
          P.R.WriteHadPriorReadInOp = true;
        if (A.Kind == AccessKind::Write && H.ReaderOps.count(A.Op) != 0)
          P.R.WriteHadPriorReadInOp = true;
        P.Verdict = Observed.count(Key) != 0 ? PredictionVerdict::Observed
                                             : PredictionVerdict::Predicted;
        Result.Races.push_back(std::move(P));
      }
      PO.onMemoryAccess(A);
      LocHistory::Entry Entry;
      Entry.A = A;
      if (A.Kind == AccessKind::Write)
        Entry.HadPriorRead = H.ReaderOps.count(A.Op) != 0;
      H.Entries.push_back(std::move(Entry));
      if (A.Kind == AccessKind::Read)
        H.ReaderOps.insert(A.Op);
      break;
    }
    case TraceEvent::Kind::OpBegin:
    case TraceEvent::Kind::OpEnd:
    case TraceEvent::Kind::Dispatch:
      break;
    }
  }

  Result.DroppedEdges = PO.droppedEdges();
  return Result;
}

//===----------------------------------------------------------------------===//
// Comparison
//===----------------------------------------------------------------------===//

const EngineKind Engines[] = {EngineKind::Shb, EngineKind::Wcp};

std::string describe(const Access &A) {
  return std::string(toString(A.Kind)) + "/" + toString(A.Origin) + " op " +
         std::to_string(A.Op) + " loc " + std::to_string(A.Loc) + " '" +
         A.Detail + "'";
}

bool sameAccess(const Access &X, const Access &Y) {
  return X.Kind == Y.Kind && X.Origin == Y.Origin && X.Op == Y.Op &&
         X.Loc == Y.Loc && X.Detail == Y.Detail;
}

/// Equal down to every field and the order; reports the first difference.
::testing::AssertionResult sameResult(const PredictionResult &Want,
                                      const PredictionResult &Got) {
  if (Want.Engine != Got.Engine)
    return ::testing::AssertionFailure() << "engine differs";
  if (Want.PairsChecked != Got.PairsChecked)
    return ::testing::AssertionFailure()
           << "PairsChecked " << Got.PairsChecked << ", reference "
           << Want.PairsChecked;
  if (Want.DroppedEdges != Got.DroppedEdges)
    return ::testing::AssertionFailure()
           << "DroppedEdges " << Got.DroppedEdges << ", reference "
           << Want.DroppedEdges;
  if (Want.Races.size() != Got.Races.size())
    return ::testing::AssertionFailure()
           << Got.Races.size() << " races, reference " << Want.Races.size();
  for (size_t I = 0; I < Want.Races.size(); ++I) {
    const PredictedRace &W = Want.Races[I];
    const PredictedRace &G = Got.Races[I];
    if (W.R.Kind != G.R.Kind || !(W.R.Loc == G.R.Loc) ||
        !sameAccess(W.R.First, G.R.First) ||
        !sameAccess(W.R.Second, G.R.Second) ||
        W.R.WriteHadPriorReadInOp != G.R.WriteHadPriorReadInOp ||
        W.Verdict != G.Verdict)
      return ::testing::AssertionFailure()
             << "race " << I << " differs: got " << toString(G.R.Kind)
             << " on " << toString(G.R.Loc) << " [" << describe(G.R.First)
             << "] vs [" << describe(G.R.Second) << "] prior-read "
             << G.R.WriteHadPriorReadInOp << " " << toString(G.Verdict)
             << "; reference " << toString(W.R.Kind) << " on "
             << toString(W.R.Loc) << " [" << describe(W.R.First) << "] vs ["
             << describe(W.R.Second) << "] prior-read "
             << W.R.WriteHadPriorReadInOp << " " << toString(W.Verdict);
  }
  return ::testing::AssertionSuccess();
}

/// What the compared findings exercised, so a test can show it is not
/// vacuous.
struct Coverage {
  size_t Races = 0;
  size_t Observed = 0;
  size_t PriorRead = 0;
  uint64_t Dropped = 0;

  void add(const PredictionResult &P) {
    Races += P.Races.size();
    Observed += P.observedMatched();
    for (const PredictedRace &R : P.Races)
      PriorRead += R.R.WriteHadPriorReadInOp;
    Dropped += P.DroppedEdges;
  }
};

void expectMatchesReference(const TraceLog &Log,
                            const std::vector<Race> &Observed,
                            const std::string &Label, Coverage &Cov) {
  for (EngineKind Engine : Engines) {
    PredictionResult Want = referencePredictRaces(Log, Engine, Observed);
    PredictionResult Got =
        materialize(Log, predictRaces(Log, Engine, Observed));
    EXPECT_TRUE(sameResult(Want, Got))
        << Label << " under " << toString(Engine);
    Cov.add(Got);
  }
}

//===----------------------------------------------------------------------===//
// Recorded pages
//===----------------------------------------------------------------------===//

TEST(PredictionOracleTest, RecordedCorpusSitesMatchReference) {
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(2012);
  Corpus.resize(24);
  Rng Seeds(2012);
  Coverage Cov;
  for (const sites::GeneratedSite &Site : Corpus) {
    webracer::SessionOptions Opts;
    Opts.RecordTrace = true;
    Opts.Browser.Seed = Seeds.next();
    webracer::Session S(Opts);
    S.network().addResource(Site.IndexUrl, Site.Html, 10);
    for (const sites::SiteResource &R : Site.Resources)
      S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                        R.MaxLatencyUs);
    webracer::SessionResult Result = S.run(Site.IndexUrl);
    ASSERT_NE(S.trace(), nullptr);
    expectMatchesReference(*S.trace(), Result.RawRaces, Site.Name, Cov);
  }
  EXPECT_GT(Cov.Races, 1000u);
  EXPECT_GT(Cov.Observed, 0u);
  EXPECT_GT(Cov.Dropped, 0u);
}

TEST(PredictionOracleTest, FigurePagesMatchReference) {
  std::vector<analysis::PageSpec> Pages = analysis::figurePages();
  Pages.push_back(analysis::falsePositivePage());
  Coverage Cov;
  for (const analysis::PageSpec &Page : Pages) {
    webracer::SessionOptions Opts;
    Opts.RecordTrace = true;
    webracer::Session S(Opts);
    S.network().addResource(Page.EntryUrl, Page.Html, 10);
    for (const analysis::PageResource &R : Page.Resources)
      S.network().addResource(R.Url, R.Content, R.LatencyUs);
    webracer::SessionResult Result = S.run(Page.EntryUrl);
    ASSERT_NE(S.trace(), nullptr);
    expectMatchesReference(*S.trace(), Result.RawRaces, Page.Name, Cov);
  }
  EXPECT_GT(Cov.Races, 0u);
  EXPECT_GT(Cov.Observed, 0u);
}

//===----------------------------------------------------------------------===//
// Session passes vs replay predictions
//===----------------------------------------------------------------------===//

void expectSessionMatchesReplay(const webracer::SessionResult &R,
                                const std::string &Label, Coverage &Cov) {
  ASSERT_TRUE(R.Trace) << Label;
  ReplayOptions Opts;
  Opts.Predict = true;
  ReplayResult Replay = replayTrace(*R.Trace, Opts);
  ASSERT_EQ(R.Predictions.size(), 2u) << Label;
  ASSERT_EQ(Replay.Predictions.size(), 2u) << Label;
  for (size_t I = 0; I < R.Predictions.size(); ++I) {
    PredictionResult Got = materialize(*R.Trace, R.Predictions[I]);
    EXPECT_TRUE(sameResult(Replay.Predictions[I], Got))
        << Label << " under " << toString(Got.Engine);
    Cov.add(Got);
  }
  EXPECT_EQ(R.Stats.Prediction, Replay.Stats.Prediction) << Label;
}

TEST(PredictionSessionTest, SessionPassesMaterializeToReplayPredictions) {
  // Each result is read after its Session is destroyed, so the passes
  // resolve only through the trace the result shares.
  webracer::SessionOptions Opts;
  Opts.Predict = true;
  Coverage Cov;
  std::vector<analysis::PageSpec> Pages = analysis::figurePages();
  Pages.push_back(analysis::falsePositivePage());
  for (const analysis::PageSpec &Page : Pages) {
    webracer::SessionResult R;
    {
      webracer::Session S(Opts);
      S.network().addResource(Page.EntryUrl, Page.Html, 10);
      for (const analysis::PageResource &Res : Page.Resources)
        S.network().addResource(Res.Url, Res.Content, Res.LatencyUs);
      R = S.run(Page.EntryUrl);
    }
    expectSessionMatchesReplay(R, Page.Name, Cov);
  }

  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(2012);
  Corpus.resize(25);
  Rng Seeds(2012);
  for (const sites::GeneratedSite &Site : Corpus) {
    webracer::SessionResult R;
    {
      Opts.Browser.Seed = Seeds.next();
      webracer::Session S(Opts);
      S.network().addResource(Site.IndexUrl, Site.Html, 10);
      for (const sites::SiteResource &Res : Site.Resources)
        S.network().addResourceWithJitter(Res.Url, Res.Body, Res.MinLatencyUs,
                                          Res.MaxLatencyUs);
      R = S.run(Site.IndexUrl);
    }
    expectSessionMatchesReplay(R, Site.Name, Cov);
  }
  EXPECT_GT(Cov.Races, 1000u);
  EXPECT_GT(Cov.Observed, 0u);
  EXPECT_GT(Cov.Dropped, 0u);
}

//===----------------------------------------------------------------------===//
// Random web-shaped traces
//===----------------------------------------------------------------------===//

using test::RandomTrace;

TEST(PredictionOracleTest, RandomWebShapedTracesMatchReference) {
  Coverage Cov;
  for (uint64_t Seed = 1; Seed <= 150; ++Seed) {
    RandomTrace Trace(Seed);
    // The observed run's races label verdicts, as in a session.
    std::vector<Race> Observed = replayTrace(Trace.log()).RawRaces;
    expectMatchesReference(Trace.log(), Observed,
                           "seed " + std::to_string(Seed), Cov);
  }
  EXPECT_GT(Cov.Races, 1000u);
  EXPECT_GT(Cov.Observed, 0u);
  EXPECT_GT(Cov.PriorRead, 0u);
  EXPECT_GT(Cov.Dropped, 0u);
}

} // namespace
