//===- tests/detector_test.cpp - race detector algorithm unit tests -----------===//
//
// Drives the Sec. 5.1 algorithm directly with hand-built happens-before
// graphs and access sequences, pinning its exact semantics: slot updates,
// CHC conditions, the ⊥ initialization, one-report-per-location, race
// classification, and the documented single-slot miss.
//
//===----------------------------------------------------------------------===//

#include "detect/RaceDetector.h"

#include <gtest/gtest.h>

using namespace wr;
using namespace wr::detect;

namespace {

class DetectorTest : public ::testing::Test {
protected:
  OpId op() { return Hb.addOperation(Operation()); }

  void edge(OpId A, OpId B) { Hb.addEdge(A, B, HbRule::RProgram); }

  Access access(AccessKind Kind, OpId Op, const char *Name,
                AccessOrigin Origin = AccessOrigin::Plain) {
    Access A;
    A.Kind = Kind;
    A.Op = Op;
    A.Origin = Origin;
    A.Loc = Interner.internVar(0, Name);
    return A;
  }

  Access read(OpId Op, const char *Name,
              AccessOrigin Origin = AccessOrigin::Plain) {
    return access(AccessKind::Read, Op, Name, Origin);
  }
  Access write(OpId Op, const char *Name,
               AccessOrigin Origin = AccessOrigin::Plain) {
    return access(AccessKind::Write, Op, Name, Origin);
  }

  HbGraph Hb;
  LocationInterner Interner;
};

TEST_F(DetectorTest, WriteThenUnorderedReadRaces) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].First.Kind, AccessKind::Write);
  EXPECT_EQ(D.races()[0].Second.Kind, AccessKind::Read);
  EXPECT_EQ(D.races()[0].Kind, RaceKind::Variable);
}

TEST_F(DetectorTest, WriteThenOrderedReadDoesNotRace) {
  OpId A = op(), B = op();
  edge(A, B);
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, ReadThenUnorderedWriteRaces) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(A, "x"));
  D.onMemoryAccess(write(B, "x"));
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].First.Kind, AccessKind::Read);
}

TEST_F(DetectorTest, WriteWriteRaces) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(write(B, "x"));
  ASSERT_EQ(D.races().size(), 1u);
}

TEST_F(DetectorTest, ReadReadNeverRaces) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, SameOperationNeverRaces) {
  OpId A = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(A, "x"));
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, BottomSlotsNeverRace) {
  OpId A = op();
  RaceDetector D(Hb, Interner);
  // First-ever access to a location: LastRead/LastWrite are ⊥.
  D.onMemoryAccess(read(A, "x"));
  D.onMemoryAccess(write(A, "y"));
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, DistinctLocationsIndependent) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "y"));
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, OnePerLocationDedup) {
  OpId A = op(), B = op(), C = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  D.onMemoryAccess(read(C, "x")); // Second race on same location.
  EXPECT_EQ(D.races().size(), 1u);
}

TEST_F(DetectorTest, OnePerLocationDisabled) {
  OpId A = op(), B = op(), C = op();
  DetectorOptions Opts;
  Opts.OnePerLocation = false;
  RaceDetector D(Hb, Interner, Opts);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  D.onMemoryAccess(read(C, "x"));
  EXPECT_EQ(D.races().size(), 2u);
}

TEST_F(DetectorTest, SlotOverwriteLosesHistory) {
  // The paper's Sec. 5.1 limitation, literally: reads 3,1 then write 2
  // with 1 -> 2; the single-slot detector misses the 2-3 race.
  OpId O1 = op(), O2 = op(), O3 = op();
  edge(O1, O2);
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(O3, "e"));
  D.onMemoryAccess(read(O1, "e")); // Overwrites O3 in LastRead.
  D.onMemoryAccess(write(O2, "e"));
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, FullHistoryCatchesSlotOverwrite) {
  OpId O1 = op(), O2 = op(), O3 = op();
  edge(O1, O2);
  DetectorOptions Opts;
  Opts.HistoryMode = DetectorOptions::Mode::FullHistory;
  RaceDetector D(Hb, Interner, Opts);
  D.onMemoryAccess(read(O3, "e"));
  D.onMemoryAccess(read(O1, "e"));
  D.onMemoryAccess(write(O2, "e"));
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].First.Op, O3);
  EXPECT_EQ(D.races()[0].Second.Op, O2);
}

TEST_F(DetectorTest, FullHistoryAgreesOnSimpleCases) {
  OpId A = op(), B = op();
  DetectorOptions Opts;
  Opts.HistoryMode = DetectorOptions::Mode::FullHistory;
  RaceDetector Full(Hb, Interner, Opts);
  RaceDetector Slot(Hb, Interner);
  for (RaceDetector *D : {&Full, &Slot}) {
    D->onMemoryAccess(write(A, "x"));
    D->onMemoryAccess(read(B, "x"));
  }
  EXPECT_EQ(Full.races().size(), Slot.races().size());
}

TEST_F(DetectorTest, FunctionDeclClassification) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "f", AccessOrigin::FunctionDecl));
  D.onMemoryAccess(read(B, "f", AccessOrigin::FunctionCall));
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].Kind, RaceKind::Function);
}

TEST_F(DetectorTest, HtmlClassification) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  Access W;
  W.Kind = AccessKind::Write;
  W.Op = A;
  W.Origin = AccessOrigin::ElemInsert;
  W.Loc = Interner.intern(HtmlElemLoc{1, ElemKeyKind::ById, InvalidNodeId, "dw"});
  Access R;
  R.Kind = AccessKind::Read;
  R.Op = B;
  R.Origin = AccessOrigin::ElemLookup;
  R.Loc = W.Loc;
  D.onMemoryAccess(W);
  D.onMemoryAccess(R);
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].Kind, RaceKind::Html);
}

TEST_F(DetectorTest, EventDispatchClassification) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  Access W;
  W.Kind = AccessKind::Write;
  W.Op = A;
  W.Origin = AccessOrigin::HandlerInstall;
  W.Loc = Interner.intern(EventHandlerLoc{5, 0, "load", 0});
  Access R = W;
  R.Kind = AccessKind::Read;
  R.Op = B;
  R.Origin = AccessOrigin::HandlerFire;
  D.onMemoryAccess(W);
  D.onMemoryAccess(R);
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].Kind, RaceKind::EventDispatch);
}

TEST_F(DetectorTest, PriorReadFlagOnSecondWrite) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "v", AccessOrigin::FormFieldWrite));
  D.onMemoryAccess(read(B, "v", AccessOrigin::FormFieldRead));
  // B reads v, then writes it: the guarded-write shape.
  D.onMemoryAccess(write(B, "v", AccessOrigin::FormFieldWrite));
  ASSERT_GE(D.races().size(), 1u);
  // Due to one-per-location the race reported is (A write, B read) with
  // no guard flag; disable dedup to see the guarded write.
  DetectorOptions Opts;
  Opts.OnePerLocation = false;
  HbGraph Hb2;
  OpId A2 = Hb2.addOperation(Operation());
  OpId B2 = Hb2.addOperation(Operation());
  RaceDetector D2(Hb2, Interner, Opts);
  auto Mk = [&](AccessKind Kind, OpId Op) {
    Access Acc;
    Acc.Kind = Kind;
    Acc.Op = Op;
    Acc.Origin = Kind == AccessKind::Read ? AccessOrigin::FormFieldRead
                                          : AccessOrigin::FormFieldWrite;
    Acc.Loc = Interner.internVar(0, "v");
    return Acc;
  };
  D2.onMemoryAccess(Mk(AccessKind::Write, A2));
  D2.onMemoryAccess(Mk(AccessKind::Read, B2));
  D2.onMemoryAccess(Mk(AccessKind::Write, B2));
  bool SawGuarded = false;
  for (const Race &R : D2.races())
    if (R.Second.Op == B2 && R.Second.Kind == AccessKind::Write)
      SawGuarded = R.WriteHadPriorReadInOp;
  EXPECT_TRUE(SawGuarded);
}

TEST_F(DetectorTest, PriorReadFlagOnFirstWrite) {
  // The guarded write is stored in the slot; a later racing user write
  // must still see the guard flag (the Sec. 5.3 refinement applies to
  // whichever side wrote after reading).
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(A, "v", AccessOrigin::FormFieldRead));
  D.onMemoryAccess(write(A, "v", AccessOrigin::FormFieldWrite));
  D.onMemoryAccess(write(B, "v", AccessOrigin::UserInput));
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_TRUE(D.races()[0].WriteHadPriorReadInOp);
}

TEST_F(DetectorTest, CountByKind) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  D.onMemoryAccess(write(A, "f", AccessOrigin::FunctionDecl));
  D.onMemoryAccess(read(B, "f", AccessOrigin::FunctionCall));
  EXPECT_EQ(D.countByKind(RaceKind::Variable), 1u);
  EXPECT_EQ(D.countByKind(RaceKind::Function), 1u);
  EXPECT_EQ(D.countByKind(RaceKind::Html), 0u);
}

TEST_F(DetectorTest, EpochOracleAnswersWithoutGenericQueries) {
  // Every CHC question is one O(1) epoch probe: chcQueries stays 0 and
  // every question lands in epochHits.
  OpId A = op(), B = op(), C = op();
  edge(A, C);
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(C, "x")); // Ordered: no race.
  D.onMemoryAccess(read(B, "x")); // Concurrent with the write: race.
  EXPECT_EQ(D.chcQueries(), 0u);
  EXPECT_GT(D.epochHits(), 0u);
  EXPECT_EQ(D.readsSeen(), 2u);
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].Second.Op, B);
}

TEST_F(DetectorTest, TrackedLocationsIsUnionOfSlots) {
  // A location read AND written is one tracked location, not two: the
  // count is the union of the read slots, write slots, and history map.
  OpId A = op(), B = op();
  edge(A, B);
  RaceDetector D(Hb, Interner);
  EXPECT_EQ(D.trackedLocations(), 0u);
  D.onMemoryAccess(write(A, "x"));
  EXPECT_EQ(D.trackedLocations(), 1u);
  D.onMemoryAccess(read(B, "x")); // Same location, other slot.
  EXPECT_EQ(D.trackedLocations(), 1u);
  D.onMemoryAccess(read(B, "y")); // Read-only location.
  EXPECT_EQ(D.trackedLocations(), 2u);
  D.onMemoryAccess(write(A, "z")); // Write-only location.
  EXPECT_EQ(D.trackedLocations(), 3u);
}

TEST_F(DetectorTest, TrackedLocationsFullHistoryMode) {
  OpId A = op(), B = op();
  DetectorOptions Opts;
  Opts.HistoryMode = DetectorOptions::Mode::FullHistory;
  RaceDetector D(Hb, Interner, Opts);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  D.onMemoryAccess(read(B, "y"));
  EXPECT_EQ(D.trackedLocations(), 2u);
}

TEST_F(DetectorTest, ReportedLocationSkipsOracleEntirely) {
  OpId A = op(), B = op(), C = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  ASSERT_EQ(D.races().size(), 1u);
  uint64_t Queries = D.chcQueries();
  // One-per-location already fired: later accesses to x can't change
  // any output, so no ordering question reaches the oracle.
  D.onMemoryAccess(read(C, "x"));
  D.onMemoryAccess(write(C, "x"));
  EXPECT_EQ(D.chcQueries(), Queries);
  EXPECT_GT(D.epochHits(), 0u);
  EXPECT_EQ(D.races().size(), 1u);
}

TEST_F(DetectorTest, ReadsBySameOrOrderedOpsNeverRace) {
  // Re-reads by the same operation and reads by an ordered successor
  // never race: reads only check LastWrite, which is unset.
  OpId A = op(), B = op();
  edge(A, B);
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(A, "x"));
  D.onMemoryAccess(read(A, "x")); // Same operation.
  D.onMemoryAccess(read(B, "x")); // Ordered after A.
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, WriteOrderedAfterConcurrentReadersDoesNotRace) {
  OpId A = op(), B = op(), C = op(), E = op();
  edge(A, C);
  edge(B, C);
  edge(C, E);
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(A, "x"));
  D.onMemoryAccess(read(B, "x")); // Concurrent with A: reads never race.
  // C is ordered after both readers, so its write races with neither.
  D.onMemoryAccess(write(C, "x"));
  EXPECT_TRUE(D.races().empty());
  // E is ordered after the write.
  D.onMemoryAccess(read(E, "x"));
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, WriteAfterConcurrentReadsStillRacesWhenUnordered) {
  // A write ordered after one reader but concurrent with the last one
  // races with LastRead.
  OpId A = op(), B = op(), C = op();
  edge(A, C); // C is after A but concurrent with B.
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  D.onMemoryAccess(write(C, "x"));
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].First.Op, B); // LastRead held B.
  EXPECT_EQ(D.chcQueries(), 0u);       // All answered by epoch probes.
}

TEST_F(DetectorTest, WriteRacesOnlyWhenConcurrentWithLastWriteOrRead) {
  // A write ordered after LastWrite, which is itself ordered after every
  // read, races with nothing; a write concurrent with everything races.
  OpId A = op(), B = op(), C = op(), E = op();
  edge(A, B);
  edge(B, E);
  DetectorOptions Opts;
  Opts.OnePerLocation = false;
  RaceDetector D(Hb, Interner, Opts);
  D.onMemoryAccess(read(A, "x"));
  D.onMemoryAccess(write(B, "x")); // Ordered after the read.
  D.onMemoryAccess(write(E, "x")); // Ordered after B and the read.
  EXPECT_TRUE(D.races().empty());
  // C is concurrent with everything: both slot checks race.
  D.onMemoryAccess(write(C, "x"));
  EXPECT_EQ(D.races().size(), 1u); // vs LastWrite E (write-write).
  EXPECT_EQ(D.chcQueries(), 0u);
}

TEST_F(DetectorTest, NestedReadInDescendingOpOrderDoesNotRace) {
  // Inline event dispatch nests operations, so a location's reads can
  // arrive in descending op order; two ordered reads never race.
  OpId A = op(), B = op();
  edge(A, B);
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(B, "x")); // The nested (newer) op reads first,
  D.onMemoryAccess(read(A, "x")); // then its caller A, after B returns.
  // A happens-before B although its read streams later.
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, DetectorBytesCountReaderSetSpill) {
  RaceDetector D(Hb, Interner);
  // Two readers fit the reader set's inline slots; five mutually
  // concurrent readers spill it to the heap, and the spill must show up
  // in the byte accounting (the location table itself does not grow).
  D.onMemoryAccess(read(op(), "x"));
  D.onMemoryAccess(read(op(), "x"));
  uint64_t Inline = D.detectorBytes();
  for (int I = 0; I < 3; ++I)
    D.onMemoryAccess(read(op(), "x"));
  EXPECT_GT(D.detectorBytes(), Inline);
}

TEST_F(DetectorTest, DiamondOrderingSuppressesRace) {
  OpId A = op(), B = op(), C = op(), D2 = op();
  edge(A, B);
  edge(A, C);
  edge(B, D2);
  edge(C, D2);
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(D2, "x")); // Ordered through either branch.
  EXPECT_TRUE(D.races().empty());
  // But the branches race with each other.
  D.onMemoryAccess(write(B, "y"));
  D.onMemoryAccess(write(C, "y"));
  EXPECT_EQ(D.races().size(), 1u);
}

} // namespace
