//===- hb/PredictiveEngine.cpp - SHB / WCP predictive orders ---------------===//

#include "hb/PredictiveEngine.h"

#include <algorithm>
#include <cassert>

using namespace wr;

const char *wr::toString(EngineKind Kind) {
  switch (Kind) {
  case EngineKind::Shb:
    return "shb";
  case EngineKind::Wcp:
    return "wcp";
  }
  return "unknown";
}

void PredictiveEngine::onOperationCreated(OpId Op, const Operation &Meta) {
  (void)Op;
  (void)Meta;
  assert(Op == Preds.size() + 1 && "operations must arrive in id order");
  Preds.emplace_back();
}

void PredictiveEngine::onHbEdge(OpId From, OpId To, HbRule Rule) {
  assert(From != InvalidOpId && To != InvalidOpId && From < To &&
         "HB edges must point from an older to a newer operation");
  assert(To <= Preds.size() && "edge targets an unknown operation");
  assert(Clocks.built() < To && "in-edges must precede clock finalization");
  if (!keepEdge(From, To, Rule)) {
    ++DroppedEdges;
    return;
  }
  ClockIndex::OpList &In = Preds[To - 1];
  if (std::find(In.begin(), In.end(), From) == In.end())
    In.push_back(From);
}

void PredictiveEngine::onMemoryAccess(const Access &A) {
  assert(A.Op != InvalidOpId && A.Op <= Preds.size() &&
         "access names an unknown operation");
  Clocks.ensure(A.Op, Preds);
  if (A.Kind == AccessKind::Read) {
    // Write-read edge: the reader observes the last writer's value, so
    // in every schedule this order admits, that write stays before this
    // read - join the last-write clock.
    if (A.Loc < LastWrite.size())
      Clocks.join(A.Op, LastWrite[A.Loc]);
    return;
  }
  if (A.Loc >= LastWrite.size())
    LastWrite.resize(A.Loc + 1);
  LastWrite[A.Loc] = Clocks.rep(A.Op);
}

Ordering PredictiveEngine::ordering(OpId A, OpId B) const {
  assert(A != InvalidOpId && B != InvalidOpId && A != B &&
         "ordering() requires two distinct valid operations");
  // The driver asks about an access's operation before that access
  // reaches onMemoryAccess (check-then-update), so queries build clocks
  // lazily, exactly like HbGraph.
  Clocks.ensure(std::max(A, B), Preds);
  // Write-read joins can order a higher id before a lower one (an op
  // created later may run earlier), so unlike HbGraph both directions
  // must be probed. Both hold only in the own-chain case (DESIGN.md
  // "Near-linear HB index"), where Before wins.
  if (Clocks.ordered(Clocks.epochOf(A), B))
    return Ordering::Before;
  if (Clocks.ordered(Clocks.epochOf(B), A))
    return Ordering::After;
  return Ordering::Concurrent;
}

void WcpEngine::primeAccess(OpId Op, LocId Loc, AccessKind Kind) {
  assert(Op != InvalidOpId && "access without an operation");
  assert(FootprintStart.empty() && "primeAccess after a conflict test");
  uint8_t Mask = Kind == AccessKind::Write ? 2 : 1;
  // An access that continues its operation's run at the location joins
  // the run's entry, so a loop over one location adds nothing.
  if (Loc >= LastPrimed.size())
    LastPrimed.resize(static_cast<size_t>(Loc) + 1, ~0u);
  uint32_t &Last = LastPrimed[Loc];
  if (Last != ~0u && Primed[Last].Op == Op) {
    Primed[Last].Mask |= Mask;
    return;
  }
  Last = static_cast<uint32_t>(Primed.size());
  Primed.push_back({Op, Loc, Mask});
}

void WcpEngine::buildFootprints() {
  // Counting sort by operation - an operation's accesses need not be
  // contiguous, a nested operation can run between them - then each
  // operation's span sorted by location and merged to one entry per
  // location, in place. This takes half the time of one sort of the list
  // by (operation, location) (DESIGN.md "Predictive orders").
  OpId Ops = 0;
  for (const PrimedAccess &P : Primed)
    Ops = std::max(Ops, P.Op);
  std::vector<uint32_t> Start(static_cast<size_t>(Ops) + 2, 0);
  for (const PrimedAccess &P : Primed)
    ++Start[P.Op + 1];
  for (size_t Op = 1; Op < Start.size(); ++Op)
    Start[Op] += Start[Op - 1];
  std::vector<uint32_t> Fill(Start.begin(), Start.end() - 1);
  Footprint.resize(Primed.size());
  for (const PrimedAccess &P : Primed)
    Footprint[Fill[P.Op]++] = static_cast<uint64_t>(P.Loc) << 2 | P.Mask;
  std::vector<PrimedAccess>().swap(Primed);
  std::vector<uint32_t>().swap(LastPrimed);

  FootprintStart.assign(static_cast<size_t>(Ops) + 1, 0);
  uint32_t Out = 0;
  for (OpId Op = 1; Op <= Ops; ++Op) {
    auto Begin = Footprint.begin() + Start[Op];
    auto End = Footprint.begin() + Start[Op + 1];
    std::sort(Begin, End);
    FootprintStart[Op - 1] = Out;
    for (auto It = Begin; It != End; ++It) {
      if (Out > FootprintStart[Op - 1] && Footprint[Out - 1] >> 2 == *It >> 2)
        Footprint[Out - 1] |= *It;
      else
        Footprint[Out++] = *It;
    }
  }
  FootprintStart[Ops] = Out;
  Footprint.resize(Out);
  Footprint.shrink_to_fit();
}

bool WcpEngine::conflicting(OpId A, OpId B) {
  if (FootprintStart.empty())
    buildFootprints();
  OpId Ops = static_cast<OpId>(FootprintStart.size() - 1);
  if (A > Ops || B > Ops)
    return false;
  // Merge the two location-sorted spans; a shared location conflicts
  // when either side wrote it.
  const uint64_t *I = Footprint.data() + FootprintStart[A - 1];
  const uint64_t *IEnd = Footprint.data() + FootprintStart[A];
  const uint64_t *J = Footprint.data() + FootprintStart[B - 1];
  const uint64_t *JEnd = Footprint.data() + FootprintStart[B];
  while (I != IEnd && J != JEnd) {
    if (*I >> 2 < *J >> 2)
      ++I;
    else if (*J >> 2 < *I >> 2)
      ++J;
    else if ((*I++ | *J++) & 2)
      return true;
  }
  return false;
}

void WcpEngine::onOperationCreated(OpId Op, const Operation &Meta) {
  PredictiveEngine::onOperationCreated(Op, Meta);
  IntervalCb.push_back(Meta.Kind == OperationKind::IntervalCallback);
}

void WcpEngine::onHbEdge(OpId From, OpId To, HbRule Rule) {
  if (Rule != HbRule::R17_SetInterval) {
    PredictiveEngine::onHbEdge(From, To, Rule);
    return;
  }
  // Carry the registration op down the rule-17 chain: caller -> cb_0
  // names it directly, cb_i -> cb_{i+1} inherits cb_i's.
  OpId Creator = From;
  if (isIntervalCb(From)) {
    auto It = IntervalCreator.find(From);
    Creator = It != IntervalCreator.end() ? It->second : InvalidOpId;
  }
  if (Creator != InvalidOpId)
    IntervalCreator[To] = Creator;
  uint64_t Before = droppedEdges();
  PredictiveEngine::onHbEdge(From, To, Rule);
  // A dropped chain edge models reordering the two callbacks, not
  // detaching the later one from its registration - substitute the
  // creation edge (keepEdge always keeps it: Creator is no interval
  // callback).
  if (droppedEdges() != Before && Creator != InvalidOpId && Creator != From)
    PredictiveEngine::onHbEdge(Creator, To, HbRule::R17_SetInterval);
}

bool WcpEngine::keepEdge(OpId From, OpId To, HbRule Rule) {
  if (Rule == HbRule::R9_DispatchOrder)
    return conflicting(From, To);
  // Rule 17: only the cb_i -> cb_{i+1} chain edges weaken; the
  // caller -> cb_0 creation edge is causal and always kept.
  if (Rule == HbRule::R17_SetInterval && isIntervalCb(From))
    return conflicting(From, To);
  return true;
}
