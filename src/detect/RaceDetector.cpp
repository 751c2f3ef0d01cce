//===- detect/RaceDetector.cpp - The WebRacer race detector -----------------===//

#include "detect/RaceDetector.h"

#include <algorithm>
#include <cassert>

using namespace wr;
using namespace wr::detect;

const char *wr::detect::toString(RaceKind Kind) {
  switch (Kind) {
  case RaceKind::Variable:
    return "variable";
  case RaceKind::Html:
    return "html";
  case RaceKind::Function:
    return "function";
  case RaceKind::EventDispatch:
    return "event-dispatch";
  }
  return "unknown";
}

size_t RaceDetector::countByKind(RaceKind Kind) const {
  size_t N = 0;
  for (const Race &R : Races)
    if (R.Kind == Kind)
      ++N;
  return N;
}

RaceDetector::LocState &RaceDetector::state(LocId Id) {
  assert(Id != InvalidLocId && "access without an interned location");
  if (Id >= Locs.size())
    Locs.resize(Id + 1);
  LocState &St = Locs[Id];
  if (!St.Touched) {
    St.Touched = true;
    ++Tracked;
  }
  return St;
}

namespace {

/// Inserts \p Op into the sorted reader set, deduplicating (a new reader
/// usually carries the largest op id, so the scan walks from the back).
void insertReader(InlineVec<OpId, 2> &V, OpId Op) {
  uint32_t I = V.size();
  while (I > 0 && V[I - 1] > Op)
    --I;
  if (I > 0 && V[I - 1] == Op)
    return;
  V.push_back(Op); // Grows if needed; then shift the tail up one.
  for (uint32_t J = V.size() - 1; J > I; --J)
    V[J] = V[J - 1];
  V[I] = Op;
}

} // namespace

bool RaceDetector::isReader(const LocState &St, OpId Op) {
  const OpId *Begin = St.Readers.begin();
  const OpId *End = St.Readers.end();
  const OpId *It = std::lower_bound(Begin, End, Op);
  return It != End && *It == Op;
}

bool RaceDetector::priorConcurrent(const Slot &S, OpId Current) {
  // The VerifiedFT fast path: the stored slot carries its op's (chain,
  // pos) epoch, so CHC is one O(1) clock probe. Only the lower-id side
  // can be ordered before the higher one (HB edges strictly ascend),
  // mirroring HbGraph::ordering's single-probe discipline; CurEpoch is
  // the current op's epoch, fetched once per operation by enterOp.
  ++EpochHits;
  return S.Op < Current ? !Hb.epochOrdered(S.E, Current)
                        : !Hb.epochOrdered(CurEpoch, S.Op);
}

RaceKind wr::detect::classifyRace(const Access &First, const Access &Second,
                                  const Location &Loc) {
  if (std::holds_alternative<EventHandlerLoc>(Loc))
    return RaceKind::EventDispatch;
  if (std::holds_alternative<HtmlElemLoc>(Loc))
    return RaceKind::Html;
  // A variable race where the write side is a hoisted function
  // declaration (or the read resolves a call target racing with one) is a
  // *function race* (Sec. 2.4).
  if (First.Origin == AccessOrigin::FunctionDecl ||
      Second.Origin == AccessOrigin::FunctionDecl)
    return RaceKind::Function;
  return RaceKind::Variable;
}

void RaceDetector::report(LocState &St, const Slot &Prior,
                          const Access &Current) {
  if (Opts.OnePerLocation) {
    if (St.Reported)
      return;
    St.Reported = true;
  }
  Race R;
  R.Loc = Interner.resolve(Current.Loc);
  R.First = Prior.A;
  R.Second = Current;
  R.Kind = classifyRace(Prior.A, Current, R.Loc);
  // The Sec. 5.3 refinement looks at whichever side is a write: if the
  // writing operation read the location before writing, the write is
  // probably guarded ("has the user modified the field?").
  if (Prior.A.Kind == AccessKind::Write && Prior.HadPriorRead)
    R.WriteHadPriorReadInOp = true;
  if (Current.Kind == AccessKind::Write && isReader(St, Current.Op))
    R.WriteHadPriorReadInOp = true;
  Races.push_back(std::move(R));
}

bool RaceDetector::raceWithSlot(LocState &St, const Slot &Prior,
                                const Access &A) {
  // CHC(⊥, b) = false, and an operation never races with itself.
  if (Prior.Op == InvalidOpId || Prior.Op == A.Op) {
    ++EpochHits;
    return false;
  }
  if (!priorConcurrent(Prior, A.Op))
    return false;
  report(St, Prior, A);
  return true;
}

obs::SamplingStats RaceDetector::samplingStats() const {
  obs::SamplingStats S;
  if (!Sampler)
    return S; // Disabled: omitted from reports.
  S.Enabled = true;
  S.RatePpm = static_cast<uint64_t>(Opts.Sampling.Rate * 1e6 + 0.5);
  const sample::SamplerCounters &C = Sampler->counters();
  S.SeenReads = C.SeenReads;
  S.SeenWrites = C.SeenWrites;
  S.SampledReads = C.SampledReads;
  S.SampledWrites = C.SampledWrites;
  S.DroppedReads = C.DroppedReads;
  S.DroppedWrites = C.DroppedWrites;
  return S;
}

uint64_t RaceDetector::detectorBytes() const {
  uint64_t Bytes = Locs.capacity() * sizeof(LocState);
  for (const LocState &St : Locs) {
    Bytes += St.Readers.heapBytes();
    if (St.History)
      Bytes += sizeof(std::vector<Slot>) +
               St.History->capacity() * sizeof(Slot);
  }
  return Bytes;
}

void RaceDetector::enterOp(OpId Op) {
  if (Op == CurOp)
    return;
  CurOp = Op;
  CurEpoch = Hb.epochOf(Op);
}

void RaceDetector::onMemoryAccess(const Access &A) {
  obs::PhaseTimer Timer(Phases, obs::Phase::Detect);
  // The sampling gate runs before any per-access work: a dropped access
  // is invisible to the detector (no counters, no slot state, no epoch
  // fetch) and is tallied by the sampler so attrition is never silent.
  if (Sampler && !Sampler->shouldSample(A))
    return;
  ++AccessesSeen;
  if (A.Kind == AccessKind::Read)
    ++ReadsSeen;
  enterOp(A.Op);
  LocState &St = state(A.Loc);
  // Once the one-per-location race is out, no ordering verdict on this
  // location can change any output - skip the HB questions wholesale.
  bool Muted = Opts.OnePerLocation && St.Reported;
  Slot S;
  S.Op = A.Op;
  S.E = CurEpoch;
  S.A = A;

  if (Opts.HistoryMode == DetectorOptions::Mode::FullHistory) {
    if (!St.History)
      St.History = std::make_unique<std::vector<Slot>>();
    std::vector<Slot> &Hist = *St.History;
    if (Muted) {
      EpochHits += Hist.size();
    } else {
      // Check against every recorded access (read-write and write-write).
      // Every prior poses one CHC question, answered by the read-read
      // shortcut or as a slot question.
      for (const Slot &Prior : Hist) {
        if (Prior.A.Kind == AccessKind::Read && A.Kind == AccessKind::Read) {
          ++EpochHits;
          continue;
        }
        if (raceWithSlot(St, Prior, A) && Opts.OnePerLocation)
          break;
      }
    }
    if (A.Kind == AccessKind::Write)
      S.HadPriorRead = isReader(St, A.Op);
    Hist.push_back(std::move(S));
    if (A.Kind == AccessKind::Read)
      insertReader(St.Readers, A.Op);
    return;
  }

  // The paper's single-slot algorithm (Sec. 5.1). A read poses one CHC
  // question (vs LastWrite), a write poses two (vs LastWrite, then vs
  // LastRead unless the write check already reported); a muted location
  // answers both without looking.
  if (A.Kind == AccessKind::Read) {
    if (Muted)
      ++EpochHits;
    else
      raceWithSlot(St, St.LastWrite, A);
    St.LastRead = std::move(S);
    insertReader(St.Readers, A.Op);
    return;
  }
  if (Muted)
    EpochHits += 2;
  else if (!raceWithSlot(St, St.LastWrite, A))
    raceWithSlot(St, St.LastRead, A);
  S.HadPriorRead = isReader(St, A.Op);
  St.LastWrite = std::move(S);
}

void wr::detect::collectStats(const HbGraph &Hb, const RaceDetector &D,
                              obs::RunStats &S) {
  S.Operations = Hb.numOperations();
  S.HbEdges = Hb.numEdges();
  for (size_t I = 0; I < NumHbRules; ++I)
    if (uint64_t N = Hb.edgesByRule()[I])
      S.HbEdgesByRule.push_back({wr::toString(static_cast<HbRule>(I)), N});
  S.ChcQueries = D.chcQueries();
  S.VcChains = Hb.numChains();
  S.ClockBytes = Hb.clockBytes();
  S.ClockMerges = Hb.clockMerges();
  S.SharedClocks = Hb.sharedClocks();
  S.AccessesSeen = D.accessesSeen();
  S.TrackedLocations = D.trackedLocations();
  S.EpochHits = D.epochHits();
  S.ReadsSeen = D.readsSeen();
  S.DetectorBytes = D.detectorBytes();
  S.Sampling = D.samplingStats();
}
