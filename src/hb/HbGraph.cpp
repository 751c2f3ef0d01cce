//===- hb/HbGraph.cpp - The happens-before relation ------------------------===//

#include "hb/HbGraph.h"

#include <algorithm>

using namespace wr;

const char *wr::toString(HbRule Rule) {
  switch (Rule) {
  case HbRule::R1a_ParseOrder:
    return "rule 1a (parse order)";
  case HbRule::R1b_InlineScript:
    return "rule 1b (inline script before next parse)";
  case HbRule::R1c_SyncScriptLoad:
    return "rule 1c (sync script load before next parse)";
  case HbRule::R2_CreateBeforeExe:
    return "rule 2 (create before exe)";
  case HbRule::R3_ExeBeforeLoad:
    return "rule 3 (exe before load)";
  case HbRule::R4_CreateBeforeDefer:
    return "rule 4 (create before deferred exe)";
  case HbRule::R5_DeferOrder:
    return "rule 5 (deferred script order)";
  case HbRule::R6_FrameCreate:
    return "rule 6 (frame before nested create)";
  case HbRule::R7_FrameLoad:
    return "rule 7 (nested window load before iframe load)";
  case HbRule::R8_TargetCreated:
    return "rule 8 (target created before dispatch)";
  case HbRule::R9_DispatchOrder:
    return "rule 9 (dispatch order)";
  case HbRule::R10_AjaxSend:
    return "rule 10 (send before readystatechange)";
  case HbRule::R11_DclBeforeLoad:
    return "rule 11 (DOMContentLoaded before window load)";
  case HbRule::R12_ParseBeforeDcl:
    return "rule 12 (parse before DOMContentLoaded)";
  case HbRule::R13_InlineBeforeDcl:
    return "rule 13 (inline exe before DOMContentLoaded)";
  case HbRule::R14_ScriptLoadBeforeDcl:
    return "rule 14 (script load before DOMContentLoaded)";
  case HbRule::R15_ElemLoadBeforeWindowLoad:
    return "rule 15 (element load before window load)";
  case HbRule::R16_SetTimeout:
    return "rule 16 (setTimeout)";
  case HbRule::R17_SetInterval:
    return "rule 17 (setInterval)";
  case HbRule::RA_DispatchChain:
    return "appendix (dispatch handler chain)";
  case HbRule::RA_InlineSplit:
    return "appendix (inline dispatch split)";
  case HbRule::RProgram:
    return "program order";
  }
  return "unknown rule";
}

const char *wr::toString(Ordering O) {
  switch (O) {
  case Ordering::Before:
    return "before";
  case Ordering::After:
    return "after";
  case Ordering::Concurrent:
    return "concurrent";
  }
  return "unknown";
}

HbGraph::HbGraph() = default;

OpId HbGraph::addOperation(Operation Op) {
  Ops.push_back(std::move(Op));
  Succ.emplace_back();
  Pred.emplace_back();
  InEdgeRules.emplace_back();
  return static_cast<OpId>(Ops.size());
}

void HbGraph::reserveOperations(size_t ExpectedOps) {
  if (ExpectedOps <= Ops.size())
    return;
  Ops.reserve(ExpectedOps);
  Succ.reserve(ExpectedOps);
  Pred.reserve(ExpectedOps);
  InEdgeRules.reserve(ExpectedOps);
  Clocks.reserve(ExpectedOps);
}

void HbGraph::addEdge(OpId From, OpId To, HbRule Rule) {
  assert(From != InvalidOpId && To != InvalidOpId && "invalid endpoint");
  assert(From <= Ops.size() && To <= Ops.size() && "unknown operation");
  assert(From < To &&
         "HB edges must point from an older to a newer operation");
  assert(Clocks.built() < To && "in-edges must precede clock finalization");
  auto &Out = Succ[From - 1];
  if (std::find(Out.begin(), Out.end(), To) != Out.end())
    return; // Duplicate edge.
  Out.push_back(To);
  Pred[To - 1].push_back(From);
  InEdgeRules[To - 1].push_back({From, Rule});
  ++EdgeCount;
  ++EdgesByRule[static_cast<size_t>(Rule)];
}

bool HbGraph::happensBefore(OpId A, OpId B) const {
  assert(A != InvalidOpId && B != InvalidOpId && "invalid OpId");
  if (A >= B)
    return false;
  const ClockIndex &Index = clocks(B);
  return Index.ordered(Index.epochOf(A), B);
}

bool HbGraph::findDirectEdgeRule(OpId From, OpId To, HbRule &RuleOut) const {
  if (To == InvalidOpId || To > Ops.size())
    return false;
  for (const auto &[Pred, Rule] : InEdgeRules[To - 1]) {
    if (Pred == From) {
      RuleOut = Rule;
      return true;
    }
  }
  return false;
}

std::vector<OpId> HbGraph::explainPath(OpId A, OpId B) const {
  std::vector<OpId> Path;
  if (A == InvalidOpId || B == InvalidOpId || A >= B)
    return Path;
  // BFS from A recording parents, restricted to ids <= B.
  std::vector<OpId> Parent(Ops.size() + 1, InvalidOpId);
  std::vector<OpId> Queue;
  Queue.push_back(A);
  Parent[A] = A;
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    OpId Cur = Queue[Head];
    for (OpId Next : Succ[Cur - 1]) {
      if (Next > B || Parent[Next] != InvalidOpId)
        continue;
      Parent[Next] = Cur;
      if (Next == B) {
        // Reconstruct.
        for (OpId Walk = B; Walk != A; Walk = Parent[Walk])
          Path.push_back(Walk);
        Path.push_back(A);
        std::reverse(Path.begin(), Path.end());
        return Path;
      }
      Queue.push_back(Next);
    }
  }
  return Path;
}
