//===- detect/Prediction.cpp - Predictive races over a trace ---------------===//

#include "detect/Prediction.h"

#include <algorithm>
#include <utility>

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
/// flat slot array sized up front, linear probing, no per-key
/// allocation.
class LocKeyMap {
public:
  /// Room for \p Keys keys at a load of at most one half.
  explicit LocKeyMap(size_t Keys) {
    size_t Size = 64;
    while (Size < 2 * Keys)
      Size *= 2;
    Slots.resize(Size);
  }

  /// The key's value; a new key is inserted with \p Value first. At most
  /// the constructor's number of keys may be inserted.
  uint32_t insert(LocId Loc, uint64_t Key, uint32_t Value) {
    uint64_t H = (Key + Loc * 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull;
    size_t Mask = Slots.size() - 1;
    for (size_t I = (H ^ (H >> 32)) & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Loc == InvalidLocId)
        S = {Key, Loc, Value};
      if (S.Loc == Loc && S.Key == Key)
        return S.Value;
    }
  }

private:
  struct Slot {
    uint64_t Key = 0;
    LocId Loc = InvalidLocId; ///< InvalidLocId marks an empty slot.
    uint32_t Value = 0;
  };
  std::vector<Slot> Slots;
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
  /// The first access, and the first write, hoisted a function
  /// declaration: with the location's kinds, all a finding's race kind
  /// reads, so a scan never reads a prior event.
  bool FirstAccessDecl = false;
  bool FirstWriteDecl = false;
};

/// One location's history. Its accessing operations' records, in order
/// of first access, are Records[Start .. Start + NumOps), and the
/// positions among them of those that wrote it, in order of first write,
/// are Writers[Start .. Start + NumWriters): the pre-pass reserves one
/// slot of each per run of the location's accesses by one operation, a
/// bound on both counts that a loop re-reading the location does not
/// raise.
struct LocHistory {
  uint32_t Start = 0;
  uint32_t NumOps = 0;
  uint32_t NumWriters = 0;
  uint32_t Accesses = 0;
  uint32_t Writes = 0;
  /// The observed races on the location, as a range of ObservedPairs.
  uint32_t ObservedBegin = 0;
  uint32_t ObservedEnd = 0;
  /// A race's kind here, without and with a function declaration on
  /// either side; set at the first access.
  RaceKind Kinds[2] = {RaceKind::Variable, RaceKind::Variable};
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
  std::vector<LocHistory> Histories(Log.interner().size());

  // WCP classifies dispatch-order edges by whether the endpoints
  // conflict, which needs both operations' access footprints before the
  // edge streams by - hence the pre-pass. It also counts each location's
  // runs of accesses by one op (in Start, until the slots are laid out).
  {
    std::vector<OpId> LastOp(Histories.size(), InvalidOpId);
    for (const TraceEvent &E : Events)
      if (E.K == TraceEvent::Kind::MemAccess) {
        Wcp.primeAccess(E.Mem.Op, E.Mem.Loc, E.Mem.Kind);
        if (std::exchange(LastOp[E.Mem.Loc], E.Mem.Op) != E.Mem.Op)
          ++Histories[E.Mem.Loc].Start;
      }
  }
  uint32_t Slots = 0;
  for (LocHistory &H : Histories)
    H.Start = std::exchange(Slots, Slots + H.Start);
  std::vector<OpAtLoc> Records(Slots);
  std::vector<uint32_t> Writers(Slots);
  LocKeyMap RecordOf(Slots); // (location, op) -> position among Records.

  // The observed raw races for verdict labeling, grouped by location: a
  // candidate compares only with its own location's, and most locations
  // have none.
  std::vector<std::pair<LocId, uint64_t>> Observed;
  for (const Race &R : ObservedRaw)
    if (R.First.Loc < Histories.size())
      Observed.push_back({R.First.Loc, packPair(R.First.Op, R.Second.Op)});
  std::sort(Observed.begin(), Observed.end());
  std::vector<uint64_t> ObservedPairs(Observed.size());
  for (uint32_t I = 0; I < Observed.size(); ++I) {
    LocHistory &H = Histories[Observed[I].first];
    if (H.ObservedEnd == 0)
      H.ObservedBegin = I;
    H.ObservedEnd = I + 1;
    ObservedPairs[I] = Observed[I].second;
  }

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
      OpAtLoc *Ops = Records.data() + H.Start;
      uint32_t *OpWriters = Writers.data() + H.Start;
      bool Write = A.Kind == AccessKind::Write;
      bool Decl = A.Origin == AccessOrigin::FunctionDecl;
      if (H.Accesses == 0) {
        const Location &Loc = Log.interner().resolve(A.Loc);
        H.Kinds[0] = classifyRace(Loc, false);
        H.Kinds[1] = classifyRace(Loc, true);
      }
      uint32_t Own = RecordOf.insert(A.Loc, A.Op, H.NumOps);
      bool Fresh = Own == H.NumOps;
      uint32_t OwnAccesses = Ops[Own].Accesses;
      uint32_t OwnWrites = Ops[Own].Writes;
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
      auto Pose = [&](OpId Prior, uint32_t PriorEvent, bool PriorDecl,
                      bool PriorRead) {
        bool Races[2];
        for (size_t I = 0; I < 2; ++I)
          Races[I] =
              Orders[I]->ordering(Prior, A.Op) == Ordering::Concurrent;
        if (!Races[0] && !Races[1])
          return;
        uint64_t Key = packPair(Prior, A.Op);
        bool Seen = false;
        for (uint32_t I = H.ObservedBegin; I < H.ObservedEnd; ++I)
          Seen |= ObservedPairs[I] == Key;
        PredictedPair Pair{PriorEvent, Index, H.Kinds[PriorDecl || Decl],
                           PriorRead || OwnPriorRead,
                           Seen ? PredictionVerdict::Observed
                                : PredictionVerdict::Predicted};
        for (size_t I = 0; I < 2; ++I)
          if (Races[I])
            Out[I].Pairs.push_back(Pair);
      };
      if (!Write) {
        // A read conflicts with writes; an op that accessed the location
        // before has been checked against every earlier writer.
        if (Fresh)
          for (uint32_t W = 0; W < H.NumWriters; ++W) {
            const OpAtLoc &Prior = Ops[OpWriters[W]];
            Pose(Prior.Op, Prior.FirstWrite, Prior.FirstWriteDecl,
                 Prior.ReadBeforeFirstWrite);
          }
      } else if (OwnWrites == 0) {
        // A first write conflicts with every access. An op that only read
        // the location before has been checked against every op that
        // wrote it, which leaves the ops that only read it.
        for (uint32_t P = 0; P < H.NumOps; ++P) {
          const OpAtLoc &Prior = Ops[P];
          if (Fresh || (Prior.Writes == 0 && Prior.Op != A.Op))
            Pose(Prior.Op, Prior.FirstAccess, Prior.FirstAccessDecl, false);
        }
      }

      for (PredictiveEngine *PO : Orders)
        PO->onMemoryAccess(A);
      OpAtLoc &Rec = Ops[Own];
      if (Fresh) {
        Rec = {A.Op, Index};
        Rec.FirstAccessDecl = Decl;
        ++H.NumOps;
      }
      if (Write && Rec.Writes == 0) {
        Rec.FirstWrite = Index;
        Rec.FirstWriteDecl = Decl;
        Rec.ReadBeforeFirstWrite = Rec.Accesses > 0;
        OpWriters[H.NumWriters++] = Own;
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
