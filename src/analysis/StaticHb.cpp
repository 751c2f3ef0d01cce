//===- analysis/StaticHb.cpp - Static must-happens-before graph -------------===//

#include "analysis/StaticHb.h"

#include <vector>

using namespace wr::analysis;

const char *wr::analysis::toString(SourceKind Kind) {
  switch (Kind) {
  case SourceKind::Parse:
    return "parse";
  case SourceKind::SyncScript:
    return "script";
  case SourceKind::DeferScript:
    return "defer";
  case SourceKind::AsyncScript:
    return "async";
  case SourceKind::TimerCallback:
    return "timeout";
  case SourceKind::IntervalCallback:
    return "interval";
  case SourceKind::XhrCallback:
    return "xhr";
  case SourceKind::EventDispatch:
    return "dispatch";
  case SourceKind::UserInput:
    return "user-input";
  }
  return "unknown";
}

uint32_t StaticHbGraph::addSource(SourceKind Kind, std::string Label) {
  uint32_t Id = static_cast<uint32_t>(Sources.size());
  EffectSource S;
  S.Id = Id;
  S.Kind = Kind;
  S.Label = std::move(Label);
  Sources.push_back(std::move(S));
  Succ.emplace_back();
  Closure.clear();
  return Id;
}

void StaticHbGraph::addEdge(uint32_t From, uint32_t To) {
  if (From == InvalidSource || To == InvalidSource || From == To)
    return;
  for (uint32_t Existing : Succ[From])
    if (Existing == To)
      return;
  Succ[From].push_back(To);
  ++Edges;
  Closure.clear();
}

void StaticHbGraph::buildClosure() const {
  ClosureWords = (Sources.size() + 63) / 64;
  Closure.assign(Sources.size() * ClosureWords, 0);
  std::vector<uint32_t> Stack;
  for (uint32_t From = 0; From < Sources.size(); ++From) {
    // The row doubles as the DFS's visited set.
    uint64_t *Row = &Closure[From * ClosureWords];
    Row[From / 64] |= 1ull << (From % 64);
    Stack.assign(1, From);
    while (!Stack.empty()) {
      uint32_t Cur = Stack.back();
      Stack.pop_back();
      for (uint32_t Next : Succ[Cur]) {
        uint64_t Bit = 1ull << (Next % 64);
        if (!(Row[Next / 64] & Bit)) {
          Row[Next / 64] |= Bit;
          Stack.push_back(Next);
        }
      }
    }
  }
}

bool StaticHbGraph::reaches(uint32_t From, uint32_t To) const {
  if (From == InvalidSource || To == InvalidSource)
    return false;
  if (From == To)
    return true;
  if (Closure.empty())
    buildClosure();
  return (Closure[From * ClosureWords + To / 64] >> (To % 64)) & 1;
}

std::string StaticHbGraph::toString() const {
  std::string Out;
  for (const EffectSource &S : Sources) {
    Out += "#" + std::to_string(S.Id) + " [" +
           wr::analysis::toString(S.Kind) + "] " + S.Label;
    Out += "\n";
    for (const Effect &E : S.Effects.Effects) {
      Out += "    ";
      Out += wr::toString(E.Kind);
      Out += " ";
      Out += wr::analysis::toString(E.Loc);
      Out += " (";
      Out += wr::toString(E.Origin);
      Out += ")\n";
    }
  }
  Out += "edges:";
  for (uint32_t From = 0; From < Sources.size(); ++From)
    for (uint32_t To : Succ[From])
      Out += " " + std::to_string(From) + "->" + std::to_string(To);
  Out += "\n";
  return Out;
}
