//===- tests/RandomTrace.h - Random web-shaped traces ------------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// A seeded generator of traces shaped like a recorded page load, shared by
// the tests that compare an index against a reference: operations created
// with in-edges from older ones, run one at a time with nested operations
// inside, over a small location pool so the same operation touches a
// location repeatedly and reads before writing it.
//
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_TESTS_RANDOMTRACE_H
#define WEBRACER_TESTS_RANDOMTRACE_H

#include "instr/TraceLog.h"
#include "support/Rng.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

namespace wr::test {

/// Builds a random trace shaped like a recorded page load. Every edge
/// points from an older to a newer operation and arrives right after its
/// target is created - before any access of that or a newer operation,
/// which the engines' lazy clock finalization requires.
class RandomTrace {
public:
  explicit RandomTrace(uint64_t Seed) : R(Seed) {
    std::vector<Location> Pool = {
        JSVarLoc{0, "x"},
        JSVarLoc{0, "y"},
        JSVarLoc{7, "f"},
        HtmlElemLoc{1, ElemKeyKind::ById, InvalidNodeId, "menu"},
        HtmlElemLoc{1, ElemKeyKind::ByNode, 4, ""},
        EventHandlerLoc{4, 0, "load", 0},
        EventHandlerLoc{0, 9, "readystatechange", 3},
    };
    for (LocId Id = 0; Id < Pool.size(); ++Id)
      Log.onLocationInterned(Id, Pool[Id]);
    NumLocs = static_cast<uint32_t>(Pool.size());

    run(create(InvalidOpId), 0);
    while (!Pending.empty() && Next < 120) {
      size_t Pick = static_cast<size_t>(R.nextBelow(Pending.size()));
      OpId Op = Pending[Pick];
      Pending.erase(Pending.begin() + static_cast<ptrdiff_t>(Pick));
      run(Op, 0);
    }
  }

  const TraceLog &log() const { return Log; }

private:
  OpId create(OpId Parent) {
    static const OperationKind Kinds[] = {
        OperationKind::ParseElement, OperationKind::ExecuteScript,
        OperationKind::TimeoutCallback, OperationKind::IntervalCallback,
        OperationKind::EventHandler, OperationKind::DispatchBegin};
    static const HbRule Rules[] = {
        HbRule::R1a_ParseOrder, HbRule::R9_DispatchOrder,
        HbRule::R16_SetTimeout, HbRule::R17_SetInterval,
        HbRule::RA_DispatchChain};
    OpId Id = Next++;
    Operation Meta;
    Meta.Kind = Kinds[R.nextBelow(std::size(Kinds))];
    Meta.Label = "op " + std::to_string(Id);
    Log.onOperationCreated(Id, Meta);
    std::vector<OpId> From;
    if (Parent != InvalidOpId)
      From.push_back(Parent);
    for (uint64_t I = R.nextBelow(3); I > 0 && Id > 1; --I) {
      OpId Older = static_cast<OpId>(1 + R.nextBelow(Id - 1));
      if (std::find(From.begin(), From.end(), Older) == From.end())
        From.push_back(Older);
    }
    for (OpId F : From)
      Log.onHbEdge(F, Id, Rules[R.nextBelow(std::size(Rules))]);
    return Id;
  }

  void access(OpId Op, LocId Loc, AccessKind Kind) {
    static const AccessOrigin Origins[] = {
        AccessOrigin::Plain, AccessOrigin::FunctionDecl,
        AccessOrigin::FunctionCall, AccessOrigin::FormFieldWrite,
        AccessOrigin::ElemInsert, AccessOrigin::HandlerFire};
    Access A;
    A.Kind = Kind;
    A.Origin = Origins[R.nextBelow(std::size(Origins))];
    A.Op = Op;
    A.Loc = Loc;
    A.Detail = "access " + std::to_string(++Accesses);
    Log.onMemoryAccess(A);
  }

  void run(OpId Op, int Depth) {
    Log.onOperationBegin(Op);
    for (uint64_t Steps = 1 + R.nextBelow(6); Steps > 0; --Steps) {
      if (Depth < 2 && R.nextBool(0.12)) {
        run(create(Op), Depth + 1); // Nested: runs inside this one.
        continue;
      }
      if (R.nextBool(0.2)) {
        Pending.push_back(create(Op)); // Registered, runs later.
        continue;
      }
      LocId Loc = static_cast<LocId>(R.nextBelow(NumLocs));
      if (R.nextBool(0.2)) {
        access(Op, Loc, AccessKind::Read);
        access(Op, Loc, AccessKind::Write);
        continue;
      }
      for (uint64_t Repeat = 1 + R.nextBelow(3); Repeat > 0; --Repeat)
        access(Op, Loc, R.nextBool() ? AccessKind::Write : AccessKind::Read);
    }
    Log.onOperationEnd(Op, /*Crashed=*/false);
  }

  Rng R;
  TraceLog Log;
  uint32_t NumLocs = 0;
  OpId Next = 1;
  std::vector<OpId> Pending;
  uint64_t Accesses = 0;
};

} // namespace wr::test

#endif // WEBRACER_TESTS_RANDOMTRACE_H
