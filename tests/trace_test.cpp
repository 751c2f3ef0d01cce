//===- tests/trace_test.cpp - trace record / serialize / replay tests ---------===//
//
// Pins the tentpole guarantees of the trace pipeline:
//
//  * the binary format round-trips losslessly (and re-serializes to the
//    exact same bytes),
//  * corrupt or truncated input is rejected cleanly,
//  * replaying a recorded trace through the detector and filters is
//    byte-identical to the online run that recorded it, and
//  * the thread-pool corpus driver produces the same results at any job
//    count.
//
//===----------------------------------------------------------------------===//

#include "detect/Report.h"
#include "detect/TraceReplay.h"
#include "instr/TraceLog.h"
#include "sites/CorpusRunner.h"
#include "webracer/Session.h"

#include <gtest/gtest.h>

using namespace wr;
using namespace wr::webracer;

namespace {

/// Runs a session with trace recording over the Fig. 1 page (one variable
/// race through racing iframes).
SessionOptions recordingOptions() {
  SessionOptions Opts;
  Opts.RecordTrace = true;
  return Opts;
}

void registerFig1(rt::NetworkSimulator &Net) {
  Net.addResource("index.html",
                  "<script>x = 1;</script>"
                  "<iframe src=\"a.html\"></iframe>"
                  "<iframe src=\"b.html\"></iframe>",
                  10);
  Net.addResource("a.html", "<script>x = 2;</script>", 1000);
  Net.addResource("b.html", "<script>alert(x);</script>", 2000);
}

void expectEventsEqual(const TraceEvent &A, const TraceEvent &B) {
  EXPECT_EQ(A.K, B.K);
  EXPECT_EQ(A.Op, B.Op);
  EXPECT_EQ(A.Op2, B.Op2);
  EXPECT_EQ(A.Rule, B.Rule);
  EXPECT_EQ(A.Crashed, B.Crashed);
  EXPECT_EQ(A.Meta.Kind, B.Meta.Kind);
  EXPECT_EQ(A.Meta.Label, B.Meta.Label);
  EXPECT_EQ(A.Mem.Kind, B.Mem.Kind);
  EXPECT_EQ(A.Mem.Origin, B.Mem.Origin);
  EXPECT_EQ(A.Mem.Op, B.Mem.Op);
  EXPECT_TRUE(A.Mem.Loc == B.Mem.Loc);
  EXPECT_EQ(A.Mem.Detail, B.Mem.Detail);
  EXPECT_EQ(A.Target, B.Target);
  EXPECT_EQ(A.TargetObject, B.TargetObject);
  EXPECT_EQ(A.EventType, B.EventType);
  EXPECT_EQ(A.DispatchIndex, B.DispatchIndex);
}

TEST(TraceSerdeTest, EmptyTraceRoundTrips) {
  TraceLog Log, Out;
  std::string Bytes = Log.serialize();
  EXPECT_TRUE(TraceLog::deserialize(Bytes, Out));
  EXPECT_TRUE(Out.empty());
}

TEST(TraceSerdeTest, RealSessionRoundTripsLosslessly) {
  Session S(recordingOptions());
  registerFig1(S.network());
  S.run("index.html");
  ASSERT_NE(S.trace(), nullptr);
  const TraceLog &Log = *S.trace();
  ASSERT_GT(Log.size(), 20u);
  // The trace must exercise every event kind.
  EXPECT_GT(Log.count(TraceLog::EventKind::OpCreated), 0u);
  EXPECT_GT(Log.count(TraceLog::EventKind::OpBegin), 0u);
  EXPECT_GT(Log.count(TraceLog::EventKind::OpEnd), 0u);
  EXPECT_GT(Log.count(TraceLog::EventKind::HbEdge), 0u);
  EXPECT_GT(Log.count(TraceLog::EventKind::MemAccess), 0u);

  std::string Bytes = Log.serialize();
  TraceLog Out;
  std::string Error;
  ASSERT_TRUE(TraceLog::deserialize(Bytes, Out, &Error)) << Error;
  ASSERT_EQ(Out.size(), Log.size());
  for (size_t I = 0; I < Log.size(); ++I)
    expectEventsEqual(Log.events()[I], Out.events()[I]);
  // Re-serializing the decoded trace reproduces the exact bytes.
  EXPECT_EQ(Out.serialize(), Bytes);
  // And the human-readable rendering agrees too.
  EXPECT_EQ(Out.toString(), Log.toString());
}

TEST(TraceSerdeTest, DispatchEventsRoundTrip) {
  TraceLog Log;
  Log.onEventDispatch(7, 3, "click", 2, 11, 14);
  Log.onEventDispatch(InvalidNodeId, 9, "readystatechange", -1, 15, 15);
  TraceLog Out;
  ASSERT_TRUE(TraceLog::deserialize(Log.serialize(), Out));
  ASSERT_EQ(Out.size(), 2u);
  expectEventsEqual(Log.events()[0], Out.events()[0]);
  expectEventsEqual(Log.events()[1], Out.events()[1]);
}

TEST(TraceSerdeTest, RejectsBadMagic) {
  TraceLog Log, Out;
  Log.onOperationBegin(1);
  std::string Bytes = Log.serialize();
  Bytes[0] = 'X';
  std::string Error;
  EXPECT_FALSE(TraceLog::deserialize(Bytes, Out, &Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_TRUE(Out.empty());
}

TEST(TraceSerdeTest, RejectsTruncationAtEveryPrefix) {
  Session S(recordingOptions());
  registerFig1(S.network());
  S.run("index.html");
  std::string Bytes = S.trace()->serialize();
  // Any strict prefix must fail cleanly (never crash, never succeed),
  // and must leave the output cleared.
  for (size_t Len = 0; Len < Bytes.size(); Len += 7) {
    TraceLog Out;
    Out.onOperationBegin(99); // Pre-populate to observe clearing.
    EXPECT_FALSE(TraceLog::deserialize(Bytes.substr(0, Len), Out));
    EXPECT_TRUE(Out.empty());
  }
}

TEST(TraceSerdeTest, RejectsTrailingGarbage) {
  TraceLog Log, Out;
  Log.onOperationBegin(1);
  std::string Bytes = Log.serialize() + "extra";
  EXPECT_FALSE(TraceLog::deserialize(Bytes, Out));
}

TEST(TraceSerdeTest, RejectsOutOfRangeEnums) {
  TraceLog Log, Out;
  Log.onHbEdge(1, 2, HbRule::RProgram);
  std::string Bytes = Log.serialize();
  // The last payload byte is the HbRule; force it out of range.
  Bytes[Bytes.size() - 1] = '\xee';
  std::string Error;
  EXPECT_FALSE(TraceLog::deserialize(Bytes, Out, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(TraceSerdeTest, RejectsCorruptLocationTable) {
  TraceLog Log;
  Access A;
  A.Kind = AccessKind::Write;
  A.Op = 1;
  A.Loc = Log.interner().intern(JSVarLoc{0, "x"});
  Log.onMemoryAccess(A);
  A.Loc = Log.interner().intern(JSVarLoc{0, "y"});
  Log.onMemoryAccess(A);
  std::string Bytes = Log.serialize();
  ASSERT_EQ(Bytes.compare(0, 4, "WRT2"), 0);

  // Make the second table entry a byte-duplicate of the first: the
  // decoder must refuse a table whose entries do not intern to their own
  // index.
  size_t YPos = Bytes.find('y');
  ASSERT_NE(YPos, std::string::npos);
  std::string Dup = Bytes;
  Dup[YPos] = 'x';
  TraceLog Out;
  Out.onOperationBegin(99);
  std::string Error;
  EXPECT_FALSE(TraceLog::deserialize(Dup, Out, &Error));
  EXPECT_NE(Error.find("duplicate location"), std::string::npos) << Error;
  EXPECT_TRUE(Out.empty());

  // Shrink the declared entry count: the table and event stream shear
  // against each other and decoding must fail, not misattribute bytes.
  std::string Short = Bytes;
  ASSERT_EQ(Short[4], 2); // Varint location count.
  Short[4] = 1;
  EXPECT_FALSE(TraceLog::deserialize(Short, Out, &Error));
  EXPECT_TRUE(Out.empty());
}

/// Op 1 creates op 2 (edge 1 -> 2) and op 2 writes x: a well-formed
/// stream for the structural-rule tests to break one rule at a time.
TraceLog structuredTrace() {
  TraceLog Log;
  Log.onOperationCreated(1, Operation());
  Log.onOperationCreated(2, Operation());
  Log.onHbEdge(1, 2, HbRule::R16_SetTimeout);
  Access A;
  A.Kind = AccessKind::Write;
  A.Op = 2;
  A.Loc = Log.interner().intern(JSVarLoc{0, "x"});
  Log.onMemoryAccess(A);
  return Log;
}

void addAccess(TraceLog &Log, OpId Op) {
  Access A;
  A.Kind = AccessKind::Read;
  A.Op = Op;
  A.Loc = 0;
  Log.onMemoryAccess(A);
}

/// Decoding \p Log must fail with \p Message at some offset and leave the
/// output cleared.
void expectRejected(const TraceLog &Log, const std::string &Message) {
  TraceLog Out;
  Out.onOperationBegin(99);
  std::string Error;
  EXPECT_FALSE(TraceLog::deserialize(Log.serialize(), Out, &Error));
  EXPECT_NE(Error.find(Message + " at offset "), std::string::npos) << Error;
  EXPECT_TRUE(Out.empty());
}

TEST(TraceSerdeTest, StructuredTraceDecodes) {
  TraceLog Out;
  std::string Error;
  EXPECT_TRUE(TraceLog::deserialize(structuredTrace().serialize(), Out, &Error))
      << Error;
  EXPECT_EQ(Out.size(), 4u);
}

TEST(TraceSerdeTest, RejectsOperationIdsOutOfSequence) {
  TraceLog First;
  First.onOperationCreated(7, Operation());
  expectRejected(First, "operation id out of sequence");

  TraceLog Gap = structuredTrace();
  Gap.onOperationCreated(4, Operation());
  expectRejected(Gap, "operation id out of sequence");

  TraceLog Repeat = structuredTrace();
  Repeat.onOperationCreated(2, Operation());
  expectRejected(Repeat, "operation id out of sequence");
}

TEST(TraceSerdeTest, RejectsEdgesOutOfRange) {
  TraceLog FromZero;
  FromZero.onOperationCreated(1, Operation());
  FromZero.onHbEdge(InvalidOpId, 1, HbRule::RProgram);
  expectRejected(FromZero, "edge endpoints out of range");

  TraceLog ToUnknown = structuredTrace();
  ToUnknown.onHbEdge(1, 3, HbRule::RProgram);
  expectRejected(ToUnknown, "edge endpoints out of range");

  TraceLog Backward;
  Backward.onOperationCreated(1, Operation());
  Backward.onOperationCreated(2, Operation());
  Backward.onHbEdge(2, 1, HbRule::RProgram);
  expectRejected(Backward, "edge endpoints out of range");

  TraceLog SelfLoop;
  SelfLoop.onOperationCreated(1, Operation());
  SelfLoop.onHbEdge(1, 1, HbRule::RProgram);
  expectRejected(SelfLoop, "edge endpoints out of range");
}

TEST(TraceSerdeTest, RejectsEdgeAfterAccessByTargetOrNewerOperation) {
  // Op 2 already accessed memory, so its clock exists: a later in-edge
  // of op 2 would be missing from it.
  TraceLog IntoAccessed = structuredTrace();
  IntoAccessed.onHbEdge(1, 2, HbRule::RProgram);
  expectRejected(IntoAccessed,
                 "edge into an operation after an access by it or a newer "
                 "one");

  // Op 3 is created before op 4's access but gains an edge after it.
  TraceLog BelowAccessed = structuredTrace();
  BelowAccessed.onOperationCreated(3, Operation());
  BelowAccessed.onOperationCreated(4, Operation());
  addAccess(BelowAccessed, 4);
  BelowAccessed.onHbEdge(2, 3, HbRule::RProgram);
  expectRejected(BelowAccessed,
                 "edge into an operation after an access by it or a newer "
                 "one");

  // An edge into an operation above every accessed one stays legal.
  TraceLog Fine = structuredTrace();
  Fine.onOperationCreated(3, Operation());
  addAccess(Fine, 1);
  Fine.onHbEdge(2, 3, HbRule::RProgram);
  TraceLog Out;
  std::string Error;
  EXPECT_TRUE(TraceLog::deserialize(Fine.serialize(), Out, &Error)) << Error;
}

TEST(TraceSerdeTest, RejectsAccessByUnknownOperation) {
  TraceLog ByZero = structuredTrace();
  addAccess(ByZero, InvalidOpId);
  expectRejected(ByZero, "access by an operation never created");

  TraceLog ByUncreated = structuredTrace();
  addAccess(ByUncreated, 3);
  expectRejected(ByUncreated, "access by an operation never created");
}

TEST(TraceSerdeTest, LegacyWrt1RoundTripsWithIdenticalIds) {
  Session S(recordingOptions());
  registerFig1(S.network());
  S.run("index.html");
  const TraceLog &Log = *S.trace();
  std::string Legacy = Log.serializeLegacyWrt1();
  ASSERT_EQ(Legacy.compare(0, 4, "WRT1"), 0);

  TraceLog Out;
  std::string Error;
  ASSERT_TRUE(TraceLog::deserialize(Legacy, Out, &Error)) << Error;
  ASSERT_EQ(Out.size(), Log.size());
  // WRT1 carries no ids: re-interning its inline locations in stream
  // order (first-touch order) must reproduce the online ids exactly,
  // which expectEventsEqual checks through Mem.Loc.
  for (size_t I = 0; I < Log.size(); ++I)
    expectEventsEqual(Log.events()[I], Out.events()[I]);
  EXPECT_EQ(Out.interner().size(), Log.interner().size());
  // And re-encoding in the current format reproduces the WRT2 bytes.
  EXPECT_EQ(Out.serialize(), Log.serialize());
}

TEST(TraceReplayTest, LegacyWrt1ReplayMatchesOnlineRun) {
  Session S(recordingOptions());
  registerFig1(S.network());
  SessionResult Online = S.run("index.html");
  TraceLog Decoded;
  ASSERT_TRUE(
      TraceLog::deserialize(S.trace()->serializeLegacyWrt1(), Decoded));
  detect::ReplayResult Offline = detect::replayTrace(Decoded);
  EXPECT_EQ(detect::describeRaces(Offline.RawRaces, Offline.Hb),
            detect::describeRaces(Online.RawRaces, S.browser().hb()));
  EXPECT_EQ(detect::describeRaces(Offline.FilteredRaces, Offline.Hb),
            detect::describeRaces(Online.FilteredRaces, S.browser().hb()));
  EXPECT_EQ(Offline.Stats.ChcQueries, Online.Stats.ChcQueries);
  EXPECT_EQ(Offline.Stats.EpochHits, Online.Stats.EpochHits);
  EXPECT_EQ(Offline.Stats.InternedLocations,
            Online.Stats.InternedLocations);
}

TEST(TraceReplayTest, GraphReconstructionMatchesOnline) {
  Session S(recordingOptions());
  registerFig1(S.network());
  S.run("index.html");
  HbGraph Hb = detect::buildHbGraphFromTrace(*S.trace());
  EXPECT_EQ(Hb.numOperations(), S.browser().hb().numOperations());
  EXPECT_EQ(Hb.numEdges(), S.browser().hb().numEdges());
  // Reachability agrees pairwise with the online graph.
  size_t N = Hb.numOperations();
  for (OpId A = 1; A <= N; ++A)
    for (OpId B = 1; B <= N; ++B)
      EXPECT_EQ(Hb.happensBefore(A, B),
                S.browser().hb().happensBefore(A, B))
          << A << " -> " << B;
  // Operation metadata survives.
  for (OpId A = 1; A <= N; ++A) {
    EXPECT_EQ(Hb.operation(A).Kind, S.browser().hb().operation(A).Kind);
    EXPECT_EQ(Hb.operation(A).Label, S.browser().hb().operation(A).Label);
  }
}

TEST(TraceReplayTest, ReplayIsByteIdenticalToOnlineRun) {
  Session S(recordingOptions());
  registerFig1(S.network());
  SessionResult Online = S.run("index.html");

  detect::ReplayResult Offline = detect::replayTrace(*S.trace());
  EXPECT_EQ(Offline.Stats.Operations, Online.Stats.Operations);
  EXPECT_EQ(Offline.Stats.HbEdges, Online.Stats.HbEdges);
  EXPECT_EQ(Offline.Stats.ChcQueries, Online.Stats.ChcQueries);
  EXPECT_EQ(Offline.Stats.Crashes, Online.Crashes.size());
  EXPECT_EQ(Offline.Stats.AccessesSeen, Online.Stats.AccessesSeen);
  EXPECT_EQ(Offline.Stats.TrackedLocations, Online.Stats.TrackedLocations);
  EXPECT_EQ(Offline.Stats.InternedLocations,
            Online.Stats.InternedLocations);
  EXPECT_EQ(Offline.Stats.InternHits, Online.Stats.InternHits);
  EXPECT_EQ(Offline.Stats.EpochHits, Online.Stats.EpochHits);

  // The reports - raw and filtered - must be byte-identical.
  EXPECT_EQ(detect::describeRaces(Offline.RawRaces, Offline.Hb),
            detect::describeRaces(Online.RawRaces, S.browser().hb()));
  EXPECT_EQ(detect::describeRaces(Offline.FilteredRaces, Offline.Hb),
            detect::describeRaces(Online.FilteredRaces, S.browser().hb()));
  EXPECT_EQ(detect::summaryLine(Offline.RawRaces),
            detect::summaryLine(Online.RawRaces));
}

TEST(TraceReplayTest, ReplaySurvivesSerializationRoundTrip) {
  Session S(recordingOptions());
  registerFig1(S.network());
  SessionResult Online = S.run("index.html");
  TraceLog Decoded;
  ASSERT_TRUE(TraceLog::deserialize(S.trace()->serialize(), Decoded));
  detect::ReplayResult Offline = detect::replayTrace(Decoded);
  EXPECT_EQ(detect::describeRaces(Offline.RawRaces, Offline.Hb),
            detect::describeRaces(Online.RawRaces, S.browser().hb()));
  EXPECT_EQ(detect::describeRaces(Offline.FilteredRaces, Offline.Hb),
            detect::describeRaces(Online.FilteredRaces, S.browser().hb()));
}

TEST(TraceReplayTest, DfsReplayFindsSameRaces) {
  Session S(recordingOptions());
  registerFig1(S.network());
  SessionResult Online = S.run("index.html");
  detect::ReplayOptions Opts;
  Opts.Detector.Engine = EngineKind::HbDfs;
  detect::ReplayResult Offline = detect::replayTrace(*S.trace(), Opts);
  EXPECT_EQ(detect::describeRaces(Offline.RawRaces, Offline.Hb),
            detect::describeRaces(Online.RawRaces, S.browser().hb()));
}

TEST(TraceReplayTest, DispatchCountsMatchBrowser) {
  SessionOptions Opts = recordingOptions();
  Session S(Opts);
  S.network().addResource(
      "index.html",
      "<div id=\"a\" onclick=\"window.n = (window.n || 0) + 1;\"></div>",
      10);
  S.run("index.html");
  Element *A = S.browser().mainWindow()->document().getElementById("a");
  detect::DispatchCountFn Live = S.dispatchCounts();
  detect::DispatchCountFn FromTrace =
      detect::dispatchCountsFromTrace(*S.trace());
  EventHandlerLoc Clicked{A->id(), 0, "click", 0};
  EXPECT_EQ(FromTrace(Clicked), Live(Clicked));
  EXPECT_GT(FromTrace(Clicked), 0);
  EventHandlerLoc Never{A->id(), 0, "dblclick", 0};
  EXPECT_EQ(FromTrace(Never), 0);
}

TEST(ParallelCorpusTest, JobCountsProduceIdenticalResults) {
  const uint64_t Seed = 77;
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(Seed);
  Corpus.resize(6); // Keep the test fast.
  webracer::SessionOptions Base;
  sites::CorpusStats Serial = sites::runCorpus(Corpus, Base, Seed, 1);
  sites::CorpusStats Pooled = sites::runCorpus(Corpus, Base, Seed, 4);
  ASSERT_EQ(Serial.Sites.size(), Pooled.Sites.size());
  for (size_t I = 0; I < Serial.Sites.size(); ++I) {
    const sites::SiteRunStats &A = Serial.Sites[I];
    const sites::SiteRunStats &B = Pooled.Sites[I];
    EXPECT_EQ(A.Name, B.Name);
    EXPECT_EQ(A.Stats.Operations, B.Stats.Operations);
    EXPECT_EQ(A.Stats.HbEdges, B.Stats.HbEdges);
    EXPECT_EQ(A.Raw.total(), B.Raw.total());
    EXPECT_EQ(A.Raw.Variable, B.Raw.Variable);
    EXPECT_EQ(A.Raw.Html, B.Raw.Html);
    EXPECT_EQ(A.Raw.Function, B.Raw.Function);
    EXPECT_EQ(A.Raw.EventDispatch, B.Raw.EventDispatch);
    EXPECT_EQ(A.Filtered.total(), B.Filtered.total());
  }
}

TEST(ParallelCorpusTest, JobsZeroMeansAllCores) {
  const uint64_t Seed = 77;
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(Seed);
  Corpus.resize(3);
  webracer::SessionOptions Base;
  sites::CorpusStats Serial = sites::runCorpus(Corpus, Base, Seed, 1);
  sites::CorpusStats Auto = sites::runCorpus(Corpus, Base, Seed, 0);
  ASSERT_EQ(Serial.Sites.size(), Auto.Sites.size());
  for (size_t I = 0; I < Serial.Sites.size(); ++I)
    EXPECT_EQ(Serial.Sites[I].Raw.total(), Auto.Sites[I].Raw.total());
}

} // namespace
