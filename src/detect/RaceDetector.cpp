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

/// Sorted insert into an InlineVec, deduplicating; Proj extracts the sort
/// key (new entries usually carry the largest op id, so the scan walks
/// from the back).
template <typename Vec, typename T, typename Proj>
void insertSorted(Vec &V, const T &E, Proj Key) {
  uint32_t I = V.size();
  while (I > 0 && Key(V[I - 1]) > Key(E))
    --I;
  if (I > 0 && Key(V[I - 1]) == Key(E))
    return;
  V.push_back(E); // Grows if needed; then shift the tail up one.
  for (uint32_t J = V.size() - 1; J > I; --J)
    V[J] = V[J - 1];
  V[I] = E;
}

} // namespace

bool RaceDetector::isReader(const LocState &St, OpId Op) {
  const OpId *Begin = St.Readers.begin();
  const OpId *End = St.Readers.end();
  const OpId *It = std::lower_bound(Begin, End, Op);
  return It != End && *It == Op;
}

bool RaceDetector::pairConcurrent(OpId Prior, OpId Current) {
  uint64_t Key = (static_cast<uint64_t>(Prior) << 32) | Current;
  auto It = PairCache.find(Key);
  if (It != PairCache.end()) {
    ++EpochHits;
    return It->second;
  }
  ++ChcQueries;
  bool Concurrent = Oracle.concurrent(Prior, Current);
  PairCache.emplace(Key, Concurrent);
  return Concurrent;
}

bool RaceDetector::priorConcurrent(const Slot &S, OpId Current) {
  // The VerifiedFT fast path: under an epoch-capable oracle the stored
  // slot carries its op's (chain, pos) epoch, so CHC is one O(1) clock
  // probe - no pair-cache entry. Only the lower-id side can be ordered
  // before the higher one (HB edges strictly ascend), mirroring
  // HbGraph::ordering's single-probe discipline; CurEpoch is the current
  // op's epoch, fetched once per operation in onMemoryAccess.
  if (S.E.Pos != 0 && Oracle.supportsEpochQueries()) {
    ++EpochHits;
    return S.Op < Current
               ? !Oracle.epochOrdered(S.E.Chain, S.E.Pos, Current)
               : !Oracle.epochOrdered(CurEpoch.Chain, CurEpoch.Pos, S.Op);
  }
  return pairConcurrent(S.Op, Current);
}

bool RaceDetector::slotConcurrent(Slot &S, OpId Current) {
  if (S.CheckedVs == Current) {
    ++EpochHits;
    return S.Concurrent;
  }
  bool Concurrent = priorConcurrent(S, Current);
  S.CheckedVs = Current;
  S.Concurrent = Concurrent;
  return Concurrent;
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
  // Heat feedback: a racing location is exactly the region the adaptive
  // strategy must keep watching.
  if (Sampler)
    Sampler->noteRace(Current.Loc);
  Races.push_back(std::move(R));
}

void RaceDetector::noteRead(LocState &St, const Access &A) {
  // Maintenance of the adaptive read state; probes here are internal
  // bookkeeping, not CHC questions, so no counter moves except the
  // inflation tally. Called after the read landed in LastRead.
  St.ReadsCovered = false;
  ReadEntry E{A.Op, CurEpoch};
  switch (St.Rep) {
  case ReadRep::Empty:
    St.ReadVec.clear();
    St.ReadVec.push_back(E);
    if (Opts.ForceReadVectors) {
      St.Rep = ReadRep::Vector;
      St.EverInflated = true;
      ++ReadInflations;
      if (Sampler)
        Sampler->noteInflation(A.Loc);
    } else {
      St.Rep = ReadRep::Epoch;
    }
    return;
  case ReadRep::Epoch: {
    ReadEntry &Cur = St.ReadVec[0];
    if (Cur.Op == A.Op)
      return; // Same-epoch re-read: the common case, no probe at all.
    if (Cur.Op < A.Op &&
        Oracle.epochOrdered(Cur.E.Chain, Cur.E.Pos, A.Op)) {
      Cur = E; // Slide: the stored epoch is ordered before this reader.
      return;
    }
    if (Cur.Op > A.Op &&
        Oracle.epochOrdered(CurEpoch.Chain, CurEpoch.Pos, Cur.Op))
      return; // An inline-dispatch split: the stored (newer) read is
              // ordered after this one and subsumes it.
    // A read concurrent with the stored epoch: inflate to the vector.
    insertSorted(St.ReadVec, E, [](const ReadEntry &R) { return R.Op; });
    St.Rep = ReadRep::Vector;
    St.EverInflated = true;
    ++ReadInflations;
    // Heat feedback: concurrent readers mean concurrent operations are
    // active here - the PR 9 adaptive-epoch state doubling as the
    // sampling layer's cold/hot signal.
    if (Sampler)
      Sampler->noteInflation(A.Loc);
    return;
  }
  case ReadRep::Vector:
    insertSorted(St.ReadVec, E, [](const ReadEntry &R) { return R.Op; });
    return;
  }
}

void RaceDetector::noteWrite(LocState &St, const Access &A,
                             bool OrderedAfterLastWrite) {
  if (St.Rep == ReadRep::Empty) {
    // Propagate the covered invariant: all reads were ordered before the
    // previous LastWrite; they stay covered only if this write is
    // ordered after it.
    St.ReadsCovered = St.ReadsCovered && OrderedAfterLastWrite;
    return;
  }
  if (Opts.ForceReadVectors)
    return; // The debug option pins every inflated state.
  // VerifiedFT deflation: when this write dominates every active read
  // epoch, collapse back to the empty state. Entries by newer ops can
  // never be dominated (edges ascend), so the probe answers false and
  // the loop exits early. A same-op entry probes its own clock (its own
  // delta slot) and counts as dominated - program order within an op.
  for (const ReadEntry &E : St.ReadVec)
    if (!Oracle.epochOrdered(E.E.Chain, E.E.Pos, A.Op))
      return;
  if (St.Rep == ReadRep::Vector)
    ++ReadDeflations;
  St.ReadVec.clear();
  St.Rep = ReadRep::Empty;
  St.ReadsCovered = true;
}

obs::SamplingStats RaceDetector::samplingStats() const {
  obs::SamplingStats S;
  if (!Sampler)
    return S; // Disabled: empty strategy, omitted from reports.
  S.Strategy = sample::toString(Opts.Sampling.Strategy);
  S.RatePpm = static_cast<uint64_t>(Opts.Sampling.Rate * 1e6 + 0.5);
  const sample::SamplerCounters &C = Sampler->counters();
  S.SeenReads = C.SeenReads;
  S.SeenWrites = C.SeenWrites;
  S.SampledReads = C.SampledReads;
  S.SampledWrites = C.SampledWrites;
  S.DroppedReads = C.DroppedReads;
  S.DroppedWrites = C.DroppedWrites;
  S.LocationPass = C.LocationPass;
  S.PairPass = C.PairPass;
  S.ColdPass = C.ColdPass;
  S.HotPass = C.HotPass;
  S.RngPass = C.RngPass;
  S.HotLocations = C.HotLocations;
  return S;
}

size_t RaceDetector::readVectorLocations() const {
  size_t N = 0;
  for (const LocState &St : Locs)
    N += St.EverInflated;
  return N;
}

uint64_t RaceDetector::detectorBytes() const {
  uint64_t Bytes = Locs.capacity() * sizeof(LocState);
  for (const LocState &St : Locs) {
    Bytes += St.ReadVec.heapBytes() + St.Readers.heapBytes();
    if (St.History)
      Bytes += sizeof(std::vector<Slot>) +
               St.History->capacity() * sizeof(Slot);
  }
  // Rough pair-cache node cost (key + value padded + next link) plus the
  // bucket array; exact layout is library-specific, the point is that an
  // epoch-capable run keeps this at zero.
  Bytes += PairCache.size() * (sizeof(uint64_t) + 2 * sizeof(void *)) +
           PairCache.bucket_count() * sizeof(void *);
  return Bytes;
}

bool RaceDetector::sampleAccess(const Access &A, bool UseEpochs) {
  // The per-pair strategy keys on clock epochs, so the current op's
  // epoch must be fetched before the decision; the other strategies
  // leave the fetch to the processing path (a dropped access then never
  // touches the clock index at all - the access-path saving).
  ClockEpoch PairCur;
  if (UseEpochs && Opts.Sampling.Strategy == sample::SamplingStrategy::PerPair) {
    if (A.Op != CurOp) {
      CurOp = A.Op;
      CurEpoch = Oracle.epochOf(A.Op);
    }
    PairCur = CurEpoch;
  }
  OpId PriorOp = InvalidOpId;
  ClockEpoch PriorE;
  if (A.Loc < Locs.size()) {
    PriorOp = Locs[A.Loc].LastWrite.Op;
    PriorE = Locs[A.Loc].LastWrite.E;
  }
  return Sampler->shouldSample(A, PriorOp, PriorE, PairCur);
}

void RaceDetector::onMemoryAccess(const Access &A) {
  obs::PhaseTimer Timer(Phases, obs::Phase::Detect);
  // The sampling gate runs before any per-access work: a dropped access
  // is invisible to the detector (no counters, no slot state, no epoch
  // fetch) and is tallied by the sampler so attrition is never silent.
  if (Sampler && !sampleAccess(A, Oracle.supportsEpochQueries()))
    return;
  ++AccessesSeen;
  if (A.Kind == AccessKind::Read)
    ++ReadsSeen;
  bool UseEpochs = Oracle.supportsEpochQueries();
  if (UseEpochs && A.Op != CurOp) {
    // One epoch fetch per operation (accesses stream contiguously per op
    // except across inline-dispatch splits); this also builds the clock
    // index up to the op, which every probe below relies on.
    CurOp = A.Op;
    CurEpoch = Oracle.epochOf(A.Op);
  }
  LocState &St = state(A.Loc);
  // Once the one-per-location race is out, no ordering verdict on this
  // location can change any output - skip the HB questions wholesale
  // (and freeze the adaptive read state; its transitions are unobservable
  // once the location is muted).
  bool Muted = Opts.OnePerLocation && St.Reported;

  if (Opts.HistoryMode == DetectorOptions::Mode::FullHistory) {
    if (!St.History)
      St.History = std::make_unique<std::vector<Slot>>();
    std::vector<Slot> &Hist = *St.History;
    if (Muted) {
      EpochHits += Hist.size();
    } else {
      // Check against every recorded access (read-write and write-write).
      // Every prior poses one CHC question; each is answered by exactly
      // one of the fast paths (read-read, same-op, epoch probe, pair
      // cache) or the oracle, so EpochHits + ChcQueries == questions.
      for (const Slot &Prior : Hist) {
        bool OneIsWrite = Prior.A.Kind == AccessKind::Write ||
                          A.Kind == AccessKind::Write;
        if (Prior.Op == A.Op || !OneIsWrite) {
          ++EpochHits;
          continue;
        }
        if (priorConcurrent(Prior, A.Op)) {
          report(St, Prior, A);
          if (Opts.OnePerLocation)
            break;
        }
      }
    }
    Slot S;
    S.Op = A.Op;
    if (UseEpochs)
      S.E = CurEpoch;
    S.A = A;
    if (A.Kind == AccessKind::Write)
      S.HadPriorRead = isReader(St, A.Op);
    Hist.push_back(std::move(S));
    if (A.Kind == AccessKind::Read)
      insertSorted(St.Readers, A.Op, [](OpId Op) { return Op; });
    return;
  }

  // The paper's single-slot algorithm (Sec. 5.1). A read poses one CHC
  // question (vs LastWrite), a write poses two (vs LastWrite, then vs
  // LastRead unless the write check already reported); every question is
  // answered by exactly one of the fast paths - ⊥ slot (the paper's
  // CHC(⊥, b) = false case), same operation, muted location, the slot's
  // cached verdict, a single epoch probe, the deflation-covered
  // shortcut, the pair cache - or by one generic oracle query, so
  // EpochHits + ChcQueries is the total question count.
  if (A.Kind == AccessKind::Read) {
    Slot &W = St.LastWrite;
    if (Muted || W.Op == InvalidOpId || W.Op == A.Op) {
      ++EpochHits;
      ++EpochReads;
    } else {
      uint64_t QueriesBefore = ChcQueries;
      if (slotConcurrent(W, A.Op))
        report(St, W, A);
      if (ChcQueries == QueriesBefore)
        ++EpochReads; // Answered without a generic oracle call.
    }
    Slot S;
    S.Op = A.Op;
    if (UseEpochs)
      S.E = CurEpoch;
    S.A = A;
    St.LastRead = std::move(S);
    insertSorted(St.Readers, A.Op, [](OpId Op) { return Op; });
    if (UseEpochs && !Muted)
      noteRead(St, A);
    return;
  }

  // Write: race against the last write and the last read.
  Slot &W = St.LastWrite;
  Slot &R = St.LastRead;
  // Whether this write is ordered after the previous LastWrite (known
  // from the write check's verdict plus the id direction; same-op and
  // no-prior-write count as vacuously ordered). Drives the ReadsCovered
  // invariant in noteWrite.
  bool OrderedAfterLastWrite = false;
  if (Muted) {
    EpochHits += 2;
  } else {
    bool RacedWithWrite = false;
    if (W.Op == InvalidOpId || W.Op == A.Op) {
      ++EpochHits;
      OrderedAfterLastWrite = true;
    } else if (slotConcurrent(W, A.Op)) {
      RacedWithWrite = true;
      report(St, W, A);
    } else {
      OrderedAfterLastWrite = W.Op < A.Op;
    }
    if (!RacedWithWrite) {
      if (R.Op == InvalidOpId || R.Op == A.Op) {
        ++EpochHits;
      } else if (St.Rep == ReadRep::Empty && St.ReadsCovered &&
                 OrderedAfterLastWrite) {
        // Deflation shortcut (the FastTrack write-after-ordered-reads
        // O(1) case): every read is ordered before LastWrite and this
        // write is ordered after LastWrite, so transitively the read
        // check's verdict is "not concurrent" - cache it without a
        // probe. See DESIGN.md "Adaptive epochs" for the soundness
        // argument.
        ++EpochHits;
        R.CheckedVs = A.Op;
        R.Concurrent = false;
      } else if (slotConcurrent(R, A.Op)) {
        report(St, R, A);
      }
    }
  }
  if (UseEpochs && !Muted)
    noteWrite(St, A, OrderedAfterLastWrite);
  Slot S;
  S.Op = A.Op;
  if (UseEpochs)
    S.E = CurEpoch;
  S.A = A;
  S.HadPriorRead = isReader(St, A.Op);
  St.LastWrite = std::move(S);
}
