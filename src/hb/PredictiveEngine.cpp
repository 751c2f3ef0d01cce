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
  if (Op > Footprint.size())
    Footprint.resize(Op);
  Footprint[Op - 1][Loc] |= Kind == AccessKind::Write ? 2 : 1;
}

bool WcpEngine::conflicting(OpId A, OpId B) const {
  if (A > Footprint.size() || B > Footprint.size())
    return false;
  const auto &FA = Footprint[A - 1];
  const auto &FB = Footprint[B - 1];
  const auto &Small = FA.size() <= FB.size() ? FA : FB;
  const auto &Large = FA.size() <= FB.size() ? FB : FA;
  for (const auto &[Loc, Mask] : Small) {
    auto It = Large.find(Loc);
    if (It != Large.end() && (Mask | It->second) & 2)
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
