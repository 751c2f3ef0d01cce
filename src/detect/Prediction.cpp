//===- detect/Prediction.cpp - Predictive races over a trace ---------------===//

#include "detect/Prediction.h"

#include <algorithm>

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

/// Open-addressing map from (location, 64-bit key) to a uint32_t: one
/// flat slot array, linear probing, no per-key allocation.
class LocKeyMap {
public:
  /// The key's value; a new key is inserted with \p Value first.
  uint32_t insert(LocId Loc, uint64_t Key, uint32_t Value) {
    if ((Used + 1) * 2 > Slots.size())
      grow();
    Slot &S = Slots[slotOf(Loc, Key)];
    if (S.Loc == InvalidLocId) {
      S = {Key, Loc, Value};
      ++Used;
    }
    return S.Value;
  }

  bool contains(LocId Loc, uint64_t Key) const {
    return !Slots.empty() && Slots[slotOf(Loc, Key)].Loc != InvalidLocId;
  }

private:
  struct Slot {
    uint64_t Key = 0;
    LocId Loc = InvalidLocId; ///< InvalidLocId marks an empty slot.
    uint32_t Value = 0;
  };

  /// The key's slot, or the empty slot where it would go.
  size_t slotOf(LocId Loc, uint64_t Key) const {
    uint64_t H = (Key + Loc * 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull;
    size_t Mask = Slots.size() - 1;
    for (size_t I = (H ^ (H >> 32)) & Mask;; I = (I + 1) & Mask)
      if (Slots[I].Loc == InvalidLocId ||
          (Slots[I].Loc == Loc && Slots[I].Key == Key))
        return I;
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 64 : Old.size() * 2, Slot());
    for (const Slot &S : Old)
      if (S.Loc != InvalidLocId)
        Slots[slotOf(S.Loc, S.Key)] = S;
  }

  std::vector<Slot> Slots;
  size_t Used = 0;
};

constexpr uint32_t NoEvent = ~0u;

/// One operation's accesses to one location so far. A scan flags a prior
/// operation at its first conflicting access - its first access, or its
/// first write when the scanning access is a read - so this is all of its
/// history the scan reads.
struct OpAtLoc {
  OpId Op = InvalidOpId;
  uint32_t FirstAccess = 0;      ///< Index into TraceLog::events().
  uint32_t FirstWrite = NoEvent; ///< Likewise, once the op has written.
  uint32_t Accesses = 0;
  uint32_t Writes = 0;
  /// The op read the location before its first write: the form-filter
  /// flag that write carries.
  bool ReadBeforeFirstWrite = false;
};

/// One location's accessing operations in order of first access, the
/// positions of those that wrote it in order of first write, and the
/// location's access and write counts.
struct LocHistory {
  std::vector<OpAtLoc> Ops;
  std::vector<uint32_t> Writers;
  uint32_t Accesses = 0;
  uint32_t Writes = 0;
};

} // namespace

void wr::detect::predictAll(const TraceLog &Log,
                            const std::vector<Race> &ObservedRaw,
                            std::vector<PredictionPass> &Passes,
                            obs::RunStats &Stats) {
  // One walk feeds both orders; every candidate pair is posed to each.
  ShbEngine Shb;
  WcpEngine Wcp;
  PredictiveEngine *const Orders[] = {&Shb, &Wcp};
  PredictionPass Out[2];
  Out[0].Engine = EngineKind::Shb;
  Out[1].Engine = EngineKind::Wcp;

  const std::vector<TraceEvent> &Events = Log.events();

  // WCP classifies dispatch-order edges by whether the endpoints
  // conflict, which needs both operations' access footprints before the
  // edge streams by - hence the pre-pass.
  for (const TraceEvent &E : Events)
    if (E.K == TraceEvent::Kind::MemAccess)
      Wcp.primeAccess(E.Mem.Op, E.Mem.Loc, E.Mem.Kind);

  // Index the observed raw races for verdict labeling.
  LocKeyMap Observed;
  for (const Race &R : ObservedRaw)
    Observed.insert(R.First.Loc, packPair(R.First.Op, R.Second.Op), 0);

  std::vector<LocHistory> Histories(Log.interner().size());
  LocKeyMap RecordOf; // (location, op) -> position in LocHistory::Ops.
  uint64_t PairsChecked = 0;

  for (uint32_t Index = 0; Index < Events.size(); ++Index) {
    const TraceEvent &E = Events[Index];
    switch (E.K) {
    case TraceEvent::Kind::OpCreated:
      for (PredictiveEngine *PO : Orders)
        PO->onOperationCreated(E.Op, E.Meta);
      break;
    case TraceEvent::Kind::HbEdge:
      for (PredictiveEngine *PO : Orders)
        PO->onHbEdge(E.Op, E.Op2, E.Rule);
      break;
    case TraceEvent::Kind::MemAccess: {
      const Access &A = E.Mem;
      LocHistory &H = Histories[A.Loc];
      bool Write = A.Kind == AccessKind::Write;
      uint32_t Own = RecordOf.insert(A.Loc, A.Op,
                                     static_cast<uint32_t>(H.Ops.size()));
      bool Fresh = Own == H.Ops.size();
      uint32_t OwnAccesses = Fresh ? 0 : H.Ops[Own].Accesses;
      uint32_t OwnWrites = Fresh ? 0 : H.Ops[Own].Writes;
      // Every conflicting entry of another op counts as checked, as if
      // the scan walked the whole history.
      PairsChecked +=
          Write ? H.Accesses - OwnAccesses : H.Writes - OwnWrites;
      bool OwnPriorRead = Write && OwnAccesses > OwnWrites;

      // Check against the history *before* this access updates the
      // engines: under SHB the reader's write-read join must not order
      // away the very pair being asked about. Only a (location, pair)'s
      // first check can flag it (DESIGN.md "Predictive orders"), so a
      // pair already checked is not posed again, and a scan poses each
      // prior op once, at its first conflicting access.
      const Location &Loc = Log.interner().resolve(A.Loc);
      auto Pose = [&](OpId Prior, uint32_t PriorEvent, bool PriorRead) {
        bool Races[2];
        for (size_t I = 0; I < 2; ++I)
          Races[I] =
              Orders[I]->ordering(Prior, A.Op) == Ordering::Concurrent;
        if (!Races[0] && !Races[1])
          return;
        PredictedPair Pair{
            PriorEvent, Index, classifyRace(Events[PriorEvent].Mem, A, Loc),
            PriorRead || OwnPriorRead,
            Observed.contains(A.Loc, packPair(Prior, A.Op))
                ? PredictionVerdict::Observed
                : PredictionVerdict::Predicted};
        for (size_t I = 0; I < 2; ++I)
          if (Races[I])
            Out[I].Pairs.push_back(Pair);
      };
      if (!Write) {
        // A read conflicts with writes; an op that accessed the location
        // before has been checked against every earlier writer.
        if (Fresh)
          for (uint32_t Pos : H.Writers)
            Pose(H.Ops[Pos].Op, H.Ops[Pos].FirstWrite,
                 H.Ops[Pos].ReadBeforeFirstWrite);
      } else if (OwnWrites == 0) {
        // A first write conflicts with every access. An op that only read
        // the location before has been checked against every op that
        // wrote it, which leaves the ops that only read it.
        for (const OpAtLoc &Prior : H.Ops)
          if (Fresh || (Prior.Writes == 0 && Prior.Op != A.Op))
            Pose(Prior.Op, Prior.FirstAccess, false);
      }

      for (PredictiveEngine *PO : Orders)
        PO->onMemoryAccess(A);
      if (Fresh)
        H.Ops.push_back({A.Op, Index});
      OpAtLoc &Rec = H.Ops[Own];
      if (Write && Rec.Writes == 0) {
        Rec.FirstWrite = Index;
        Rec.ReadBeforeFirstWrite = Rec.Accesses > 0;
        H.Writers.push_back(Own);
      }
      ++Rec.Accesses;
      ++H.Accesses;
      Rec.Writes += Write;
      H.Writes += Write;
      break;
    }
    case TraceEvent::Kind::OpBegin:
    case TraceEvent::Kind::OpEnd:
    case TraceEvent::Kind::Dispatch:
      break;
    }
  }

  for (size_t I = 0; I < 2; ++I) {
    Out[I].PairsChecked = PairsChecked;
    Out[I].DroppedEdges = Orders[I]->droppedEdges();
    Passes.push_back(std::move(Out[I]));
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
