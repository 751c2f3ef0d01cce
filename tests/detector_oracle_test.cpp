//===- tests/detector_oracle_test.cpp - Detector vs the Sec. 5.1 text -------===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// RaceDetector answers every CHC question with one epoch probe of the
// clock index. This file keeps a reference detector written from the
// paper's Sec. 5.1 definitions, with no clock, and checks that both
// report the same races field by field:
//
//  * each location holds a LastRead and a LastWrite slot, each an
//    (operation, access) pair, initially unset;
//  * CHC(a, b) holds iff both slots are set, a != b, and neither
//    operation reaches the other by HbGraph::explainPath - a
//    breadth-first search - on the trace's final graph. Edges only
//    target the newest operation, so the final graph answers the same
//    as the graph at access time;
//  * a read checks LastWrite; a write checks LastWrite, then LastRead
//    unless the first check already reported;
//  * with OnePerLocation, at most one race is reported per location;
//  * the prior-read flag comes from the set of operations that read the
//    location. The FullHistory variant checks every prior conflicting
//    access instead of the two slots.
//
// Each input is replayed under single slot and full history, with
// OnePerLocation on and off. Inputs are the random web-shaped traces, a
// hand-built nested write that races only with LastRead, the figure
// pages plus the false-positive page, and recorded corpus sites. The
// random traces must reach the risky paths: accesses by an older
// operation after a newer one's (nested operations), writes that race
// with LastRead but not LastWrite (the only check that reads LastRead),
// and races. The recorded inputs must race, and the corpus sites must
// reach LastRead-only writes too.
//
//===----------------------------------------------------------------------===//

#include "RandomTrace.h"

#include "analysis/Scenarios.h"
#include "detect/TraceReplay.h"
#include "sites/Corpus.h"
#include "support/Rng.h"
#include "webracer/Session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

using namespace wr;
using namespace wr::detect;

namespace {

/// Happens-before on a trace's final graph, answered by explainPath and
/// remembered per pair (the answers never change once both ends exist).
class Reachability {
public:
  explicit Reachability(const TraceLog &Log)
      : Final(buildHbGraphFromTrace(Log)) {}

  bool reaches(OpId A, OpId B) {
    uint64_t Key = (static_cast<uint64_t>(A) << 32) | B;
    auto It = Answers.find(Key);
    if (It == Answers.end())
      It = Answers.emplace(Key, !Final.explainPath(A, B).empty()).first;
    return It->second;
  }

private:
  HbGraph Final;
  std::unordered_map<uint64_t, bool> Answers;
};

/// The Sec. 5.1 detector, read literally.
class ReferenceDetector {
public:
  ReferenceDetector(Reachability &Hb, const LocationInterner &Interner,
                    const DetectorOptions &Opts)
      : Hb(Hb), Interner(Interner), Opts(Opts) {}

  void onMemoryAccess(const Access &A) {
    LocState &St = Locs[A.Loc];
    bool IsWrite = A.Kind == AccessKind::Write;
    Slot Current{true, A, IsWrite && St.Readers.count(A.Op) != 0};
    if (Opts.HistoryMode == DetectorOptions::Mode::FullHistory) {
      for (const Slot &Prior : St.History)
        if ((IsWrite || Prior.A.Kind == AccessKind::Write) &&
            chc(Prior, A.Op))
          report(St, Prior, A);
      St.History.push_back(Current);
    } else if (!IsWrite) {
      if (chc(St.LastWrite, A.Op))
        report(St, St.LastWrite, A);
      St.LastRead = Current;
    } else {
      if (chc(St.LastWrite, A.Op)) {
        report(St, St.LastWrite, A);
      } else if (chc(St.LastRead, A.Op)) {
        ++LastReadOnlyWrites;
        report(St, St.LastRead, A);
      }
      St.LastWrite = Current;
    }
    if (!IsWrite)
      St.Readers.insert(A.Op);
  }

  const std::vector<Race> &races() const { return Races; }

  /// Single-slot writes concurrent with LastRead but not with LastWrite.
  uint64_t lastReadOnlyWrites() const { return LastReadOnlyWrites; }

private:
  struct Slot {
    bool Set = false;
    Access A;
    /// For writes: had the writing operation read the location before?
    bool HadPriorRead = false;
  };

  struct LocState {
    Slot LastRead;
    Slot LastWrite;
    std::vector<Slot> History;
    std::set<OpId> Readers;
    bool Reported = false;
  };

  bool chc(const Slot &Prior, OpId B) {
    OpId A = Prior.A.Op;
    return Prior.Set && A != B && !Hb.reaches(A, B) && !Hb.reaches(B, A);
  }

  /// The Sec. 2 taxonomy.
  static RaceKind kindOf(const Access &First, const Access &Second,
                         const Location &Loc) {
    if (std::holds_alternative<EventHandlerLoc>(Loc))
      return RaceKind::EventDispatch;
    if (std::holds_alternative<HtmlElemLoc>(Loc))
      return RaceKind::Html;
    if (First.Origin == AccessOrigin::FunctionDecl ||
        Second.Origin == AccessOrigin::FunctionDecl)
      return RaceKind::Function;
    return RaceKind::Variable;
  }

  void report(LocState &St, const Slot &Prior, const Access &Current) {
    if (Opts.OnePerLocation && St.Reported)
      return;
    St.Reported = true;
    Race R;
    R.Loc = Interner.resolve(Current.Loc);
    R.First = Prior.A;
    R.Second = Current;
    R.Kind = kindOf(Prior.A, Current, R.Loc);
    R.WriteHadPriorReadInOp =
        (Prior.A.Kind == AccessKind::Write && Prior.HadPriorRead) ||
        (Current.Kind == AccessKind::Write &&
         St.Readers.count(Current.Op) != 0);
    Races.push_back(R);
  }

  Reachability &Hb;
  const LocationInterner &Interner;
  DetectorOptions Opts;
  std::unordered_map<LocId, LocState> Locs;
  std::vector<Race> Races;
  uint64_t LastReadOnlyWrites = 0;
};

/// One race as a line naming every compared field.
std::string describe(const Race &R) {
  auto Side = [](const Access &A) {
    return std::to_string(A.Op) + " " + toString(A.Kind) + " " +
           toString(A.Origin) + " '" + A.Detail + "'";
  };
  return std::string(toString(R.Kind)) + " on " + toString(R.Loc) + ": " +
         Side(R.First) + " / " + Side(R.Second) +
         (R.WriteHadPriorReadInOp ? " prior-read" : "");
}

/// What the inputs of one test reached.
struct Coverage {
  uint64_t Runs = 0;
  uint64_t Races = 0;
  uint64_t NestedAccesses = 0;
  uint64_t LastReadOnlyWrites = 0;
};

/// Streams \p Log into RaceDetector (through replayTrace) and into the
/// reference under all four detector configurations, and compares the
/// races.
void checkTrace(const TraceLog &Log, const std::string &What, Coverage &C) {
  std::unordered_map<LocId, OpId> Newest;
  for (const TraceEvent &E : Log.events()) {
    if (E.K != TraceEvent::Kind::MemAccess)
      continue;
    OpId &N = Newest[E.Mem.Loc];
    if (E.Mem.Op < N)
      ++C.NestedAccesses;
    N = std::max(N, E.Mem.Op);
  }

  Reachability Hb(Log);
  for (auto Mode : {DetectorOptions::Mode::SingleSlot,
                    DetectorOptions::Mode::FullHistory})
    for (bool OnePerLocation : {true, false}) {
      ReplayOptions Opts;
      Opts.Detector.HistoryMode = Mode;
      Opts.Detector.OnePerLocation = OnePerLocation;
      ReplayResult Got = replayTrace(Log, Opts);
      ReferenceDetector Want(Hb, Log.interner(), Opts.Detector);
      for (const TraceEvent &E : Log.events())
        if (E.K == TraceEvent::Kind::MemAccess)
          Want.onMemoryAccess(E.Mem);

      std::string Config =
          What +
          (Mode == DetectorOptions::Mode::FullHistory ? ", full history"
                                                      : ", single slot") +
          (OnePerLocation ? ", one per location" : ", every race");
      ASSERT_EQ(Got.RawRaces.size(), Want.races().size()) << Config;
      for (size_t I = 0; I < Got.RawRaces.size(); ++I)
        ASSERT_EQ(describe(Got.RawRaces[I]), describe(Want.races()[I]))
            << Config << ", race " << I;
      ++C.Runs;
      C.Races += Got.RawRaces.size();
      C.LastReadOnlyWrites += Want.lastReadOnlyWrites();
    }
}

void printCoverage(const char *Inputs, const Coverage &C) {
  std::printf("%s: %llu runs, %llu races, %llu nested accesses, %llu "
              "writes racing only with LastRead\n",
              Inputs, static_cast<unsigned long long>(C.Runs),
              static_cast<unsigned long long>(C.Races),
              static_cast<unsigned long long>(C.NestedAccesses),
              static_cast<unsigned long long>(C.LastReadOnlyWrites));
}

TEST(DetectorOracleTest, RandomTracesMatchReference) {
  Coverage C;
  for (uint64_t Seed = 1; Seed <= 150; ++Seed) {
    test::RandomTrace Trace(Seed);
    checkTrace(Trace.log(), "seed " + std::to_string(Seed), C);
    if (HasFatalFailure())
      return;
  }
  printCoverage("random traces", C);
  EXPECT_GT(C.NestedAccesses, 0u);
  EXPECT_GT(C.LastReadOnlyWrites, 0u);
  EXPECT_GT(C.Races, 0u);
}

TEST(DetectorOracleTest, NestedWriteBeforeLastWriteChecksLastRead) {
  // A nested operation W (ordered after its caller A and after Q)
  // writes after Q's read; then A, ordered before W, writes after W
  // returns. A happens before LastWrite W but is concurrent with Q, so the
  // LastRead check must run and report (Q, A).
  TraceLog Log;
  Log.onLocationInterned(0, JSVarLoc{0, "x"});
  const OpId A = 1, Q = 2, W = 3;
  for (OpId Op : {A, Q})
    Log.onOperationCreated(Op, Operation());
  auto Touch = [&](OpId Op, AccessKind Kind, const char *Detail) {
    Access X;
    X.Kind = Kind;
    X.Op = Op;
    X.Loc = 0;
    X.Detail = Detail;
    Log.onMemoryAccess(X);
  };
  Log.onOperationBegin(Q);
  Touch(Q, AccessKind::Read, "q reads");
  Log.onOperationEnd(Q, /*Crashed=*/false);
  Log.onOperationBegin(A);
  Log.onOperationCreated(W, Operation());
  Log.onHbEdge(A, W, HbRule::RA_InlineSplit);
  Log.onHbEdge(Q, W, HbRule::R8_TargetCreated);
  Log.onOperationBegin(W);
  Touch(W, AccessKind::Write, "w writes");
  Log.onOperationEnd(W, /*Crashed=*/false);
  Touch(A, AccessKind::Write, "a writes");
  Log.onOperationEnd(A, /*Crashed=*/false);

  Coverage C;
  checkTrace(Log, "nested write", C);
  EXPECT_EQ(C.NestedAccesses, 1u);
  EXPECT_EQ(C.Races, 4u); // (Q, A) under each of the four configurations.
  // Single slot reaches (Q, A) through LastRead, with OnePerLocation on
  // and off.
  EXPECT_EQ(C.LastReadOnlyWrites, 2u);
}

TEST(DetectorOracleTest, FigurePagesMatchReference) {
  std::vector<analysis::PageSpec> Pages = analysis::figurePages();
  Pages.push_back(analysis::falsePositivePage());
  Coverage C;
  for (const analysis::PageSpec &Page : Pages) {
    webracer::SessionOptions Opts;
    Opts.RecordTrace = true;
    webracer::Session S(Opts);
    S.network().addResource(Page.EntryUrl, Page.Html, 10);
    for (const analysis::PageResource &R : Page.Resources)
      S.network().addResource(R.Url, R.Content, R.LatencyUs);
    S.run(Page.EntryUrl);
    ASSERT_NE(S.trace(), nullptr);
    checkTrace(*S.trace(), Page.Name, C);
    if (HasFatalFailure())
      return;
  }
  printCoverage("figure pages", C);
  EXPECT_GT(C.Races, 0u);
}

TEST(DetectorOracleTest, RecordedCorpusSitesMatchReference) {
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(2012);
  Corpus.resize(25);
  Rng Seeds(2012);
  Coverage C;
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
    checkTrace(*S.trace(), Site.Name, C);
    if (HasFatalFailure())
      return;
  }
  printCoverage("corpus sites", C);
  EXPECT_GT(C.LastReadOnlyWrites, 0u);
  EXPECT_GT(C.Races, 0u);
}

} // namespace
