//===- detect/Prediction.cpp - Predictive races over a trace ---------------===//

#include "detect/Prediction.h"

#include <algorithm>
#include <memory>

using namespace wr;
using namespace wr::detect;

const char *wr::detect::toString(PredictionVerdict Verdict) {
  switch (Verdict) {
  case PredictionVerdict::Observed:
    return "observed";
  case PredictionVerdict::Predicted:
    return "predicted";
  }
  return "unknown";
}

size_t PredictionResult::observedMatched() const {
  return static_cast<size_t>(
      std::count_if(Races.begin(), Races.end(), [](const PredictedRace &P) {
        return P.Verdict == PredictionVerdict::Observed;
      }));
}

size_t PredictionResult::predictedCount() const {
  return Races.size() - observedMatched();
}

namespace {

/// Folds one pass's findings into the report schema's wr_prediction row.
obs::PredictionRow toStatsRow(const PredictionPass &Pass) {
  obs::PredictionRow Row;
  Row.Engine = wr::toString(Pass.Engine);
  Row.PairsChecked = Pass.PairsChecked;
  Row.DroppedEdges = Pass.DroppedEdges;
  Row.Candidates = Pass.Pairs.size();
  for (const PredictedPair &P : Pass.Pairs) {
    if (P.Verdict != PredictionVerdict::Predicted) {
      ++Row.Observed;
      continue;
    }
    switch (P.Kind) {
    case RaceKind::Variable:
      ++Row.Predicted.Variable;
      break;
    case RaceKind::Html:
      ++Row.Predicted.Html;
      break;
    case RaceKind::Function:
      ++Row.Predicted.Function;
      break;
    case RaceKind::EventDispatch:
      ++Row.Predicted.EventDispatch;
      break;
    }
  }
  return Row;
}

/// The unordered operation pair as one key (OpIds are 32-bit).
uint64_t packPair(OpId A, OpId B) {
  OpId Lo = std::min(A, B);
  OpId Hi = std::max(A, B);
  return (static_cast<uint64_t>(Lo) << 32) | Hi;
}

/// Open-addressing set of (location, unordered operation pair) keys: one
/// flat slot array, linear probing, no per-key allocation.
class PairSet {
public:
  /// Inserts the key; returns true if it was not already present.
  bool insert(LocId Loc, uint64_t Ops) {
    if ((Used + 1) * 2 > Slots.size())
      grow();
    Slot &S = Slots[slotOf(Loc, Ops)];
    if (S.Loc != InvalidLocId)
      return false;
    S = {Ops, Loc};
    ++Used;
    return true;
  }

  bool contains(LocId Loc, uint64_t Ops) const {
    return !Slots.empty() && Slots[slotOf(Loc, Ops)].Loc != InvalidLocId;
  }

private:
  struct Slot {
    uint64_t Ops = 0;
    LocId Loc = InvalidLocId; ///< InvalidLocId marks an empty slot.
  };

  /// The key's slot, or the empty slot where it would go.
  size_t slotOf(LocId Loc, uint64_t Ops) const {
    uint64_t H = (Ops + Loc * 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull;
    size_t Mask = Slots.size() - 1;
    for (size_t I = (H ^ (H >> 32)) & Mask;; I = (I + 1) & Mask)
      if (Slots[I].Loc == InvalidLocId ||
          (Slots[I].Loc == Loc && Slots[I].Ops == Ops))
        return I;
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 64 : Old.size() * 2, Slot());
    for (const Slot &S : Old)
      if (S.Loc != InvalidLocId)
        Slots[slotOf(S.Loc, S.Ops)] = S;
  }

  std::vector<Slot> Slots;
  size_t Used = 0;
};

/// One access in a location's history: where the event sits in the
/// trace, plus the fields the pair scan reads without touching it.
struct HistoryEntry {
  uint32_t Event = 0; ///< Index into TraceLog::events().
  OpId Op = InvalidOpId;
  bool Write = false;
  /// A write whose operation had already read the location (the
  /// form-filter metadata the detector's full history also keeps).
  bool HadPriorRead = false;
};

/// One location's accesses in trace order, with the positions of its
/// writes so a read scans only the writes it can conflict with.
struct LocHistory {
  std::vector<HistoryEntry> Accesses;
  std::vector<uint32_t> Writes;
};

} // namespace

PredictionPass wr::detect::predictRaces(const TraceLog &Log,
                                        EngineKind Engine,
                                        const std::vector<Race> &ObservedRaw) {
  PredictionPass Result;
  Result.Engine = Engine;

  std::unique_ptr<PredictiveEngine> Owned;
  if (Engine == EngineKind::Shb)
    Owned = std::make_unique<ShbEngine>();
  else
    Owned = std::make_unique<WcpEngine>();
  PredictiveEngine &PO = *Owned;

  const std::vector<TraceEvent> &Events = Log.events();

  // WCP classifies dispatch-order edges by whether the endpoints
  // conflict, which needs both operations' access footprints before the
  // edge streams by - hence the pre-pass.
  if (Engine == EngineKind::Wcp)
    for (const TraceEvent &E : Events)
      if (E.K == TraceEvent::Kind::MemAccess)
        PO.primeAccess(E.Mem.Op, E.Mem.Loc, E.Mem.Kind);

  // Index the observed raw races for verdict labeling.
  PairSet Observed;
  for (const Race &R : ObservedRaw)
    Observed.insert(R.First.Loc, packPair(R.First.Op, R.Second.Op));

  std::vector<LocHistory> Histories(Log.interner().size());
  PairSet Seen;

  for (uint32_t Index = 0; Index < Events.size(); ++Index) {
    const TraceEvent &E = Events[Index];
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
      bool Write = A.Kind == AccessKind::Write;
      // Check against the history *before* this access updates the
      // engine: under SHB the reader's write-read join must not order
      // away the very pair being asked about. Read-read pairs never
      // conflict, so a read scans only the prior writes; either way the
      // conflicting pairs come up in trace order.
      size_t FirstFinding = Result.Pairs.size();
      bool OwnPriorRead = false; // This write's op read the location.
      auto Check = [&](const HistoryEntry &Prior) {
        if (Prior.Op == A.Op) {
          OwnPriorRead |= !Prior.Write;
          return;
        }
        ++Result.PairsChecked;
        if (PO.ordering(Prior.Op, A.Op) != Ordering::Concurrent)
          return;
        uint64_t Ops = packPair(Prior.Op, A.Op);
        if (!Seen.insert(A.Loc, Ops))
          return;
        const Access &First = Events[Prior.Event].Mem;
        Result.Pairs.push_back(
            {Prior.Event, Index,
             classifyRace(First, A, Log.interner().resolve(A.Loc)),
             Prior.HadPriorRead,
             Observed.contains(A.Loc, Ops) ? PredictionVerdict::Observed
                                           : PredictionVerdict::Predicted});
      };
      if (Write)
        for (const HistoryEntry &Prior : H.Accesses)
          Check(Prior);
      else
        for (uint32_t Pos : H.Writes)
          Check(H.Accesses[Pos]);
      if (OwnPriorRead)
        for (size_t I = FirstFinding; I < Result.Pairs.size(); ++I)
          Result.Pairs[I].WriteHadPriorReadInOp = true;
      PO.onMemoryAccess(A);
      if (Write)
        H.Writes.push_back(static_cast<uint32_t>(H.Accesses.size()));
      H.Accesses.push_back({Index, A.Op, Write, OwnPriorRead});
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

void wr::detect::predictAll(const TraceLog &Log,
                            const std::vector<Race> &ObservedRaw,
                            std::vector<PredictionPass> &Passes,
                            obs::RunStats &Stats) {
  // Held on the heap on purpose: batch ingest's peak RSS moves by up to a
  // quarter with heap layout alone (glibc's dynamic mmap threshold), and
  // an initializer list here moved bench/perf's batch peak_rss_mb from 40
  // to 50 MB on one checkout path.
  const std::vector<EngineKind> Engines = {EngineKind::Shb, EngineKind::Wcp};
  for (EngineKind Engine : Engines) {
    Passes.push_back(predictRaces(Log, Engine, ObservedRaw));
    Stats.Prediction.push_back(toStatsRow(Passes.back()));
  }
}

PredictionResult wr::detect::materialize(const TraceLog &Log,
                                         const PredictionPass &Pass) {
  PredictionResult Result;
  Result.Engine = Pass.Engine;
  Result.PairsChecked = Pass.PairsChecked;
  Result.DroppedEdges = Pass.DroppedEdges;
  const std::vector<TraceEvent> &Events = Log.events();
  Result.Races.resize(Pass.Pairs.size());
  for (size_t I = 0; I < Pass.Pairs.size(); ++I) {
    const PredictedPair &Pair = Pass.Pairs[I];
    PredictedRace &P = Result.Races[I];
    P.R.Kind = Pair.Kind;
    P.R.First = Events[Pair.FirstEvent].Mem;
    P.R.Second = Events[Pair.SecondEvent].Mem;
    P.R.Loc = Log.interner().resolve(P.R.Second.Loc);
    P.R.WriteHadPriorReadInOp = Pair.WriteHadPriorReadInOp;
    P.Verdict = Pair.Verdict;
  }
  return Result;
}
