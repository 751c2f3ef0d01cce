//===- analysis/Dataflow.h - Forward dataflow over the MiniJS CFG -*- C++ -*-=//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, lattice-generic forward fixed-point engine over the Cfg
/// (Cfg.h), plus the two analyses the static race analyzer runs on it:
///
///  * Guard analysis - which branch conditions (Guards.h) dominate each
///    statement. Lattice: sets of guards under *intersection* (a guard
///    survives a merge only if every incoming path established it);
///    conditional edges add the classified condition, assignments to a
///    guard's subject kill it.
///
///  * Reaching entry definitions - for each global variable defined
///    somewhere in the body, can the value it had *at operation entry*
///    still reach this statement? Lattice: sets of variable names
///    under union ("may reach"); a definite (unconditional) definition
///    kills the entry value. A read whose entry definition cannot
///    reach it is not exposed: within one atomic operation (scripts
///    and handlers run without interleaving) it can only observe the
///    local write, so the effect pass drops it and lets the write
///    carry the race.
///
/// The FlowInfo facade runs both analyses once per body, then replays
/// each block's statements once to record the guard state before every
/// statement and, per block, the index of the first statement that
/// must-defines each variable; per-statement queries are lookups into
/// those facts. Statements in unreachable blocks conservatively report
/// no guards and no definite writes.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_ANALYSIS_DATAFLOW_H
#define WEBRACER_ANALYSIS_DATAFLOW_H

#include "analysis/Cfg.h"
#include "analysis/Guards.h"

#include <deque>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace wr::analysis {

/// Runs \p A to a fixed point over \p G and returns the state at each
/// block's entry; `nullopt` marks blocks no path reaches. An Analysis
/// provides:
///
///   using Domain = ...;
///   Domain boundary() const;                      // entry-block state
///   void transferBlock(const CfgBlock&, Domain&); // apply block body
///   void transferEdge(const CfgEdge&, Domain&);   // apply edge cond
///   static bool join(Domain &Into, const Domain&);// merge; true if changed
///
/// Termination requires join to be monotone on a finite lattice, which
/// both analyses here satisfy (guard sets only shrink under
/// intersection; def sets only grow toward a finite universe).
template <typename Analysis>
std::vector<std::optional<typename Analysis::Domain>>
solveForward(const Cfg &G, const Analysis &A) {
  using Domain = typename Analysis::Domain;
  std::vector<std::optional<Domain>> In(G.Blocks.size());
  In[Cfg::EntryId] = A.boundary();

  std::vector<uint32_t> Order = G.rpo();
  std::deque<uint32_t> Work(Order.begin(), Order.end());
  std::vector<uint8_t> Queued(G.Blocks.size(), 0);
  for (uint32_t B : Order)
    Queued[B] = 1;

  while (!Work.empty()) {
    uint32_t B = Work.front();
    Work.pop_front();
    Queued[B] = 0;
    if (!In[B])
      continue; // Not reached yet; re-queued if a pred produces state.
    Domain Out = *In[B];
    A.transferBlock(G.Blocks[B], Out);
    for (const CfgEdge &E : G.Blocks[B].Succs) {
      Domain Along = Out;
      A.transferEdge(E, Along);
      bool Changed;
      if (!In[E.To]) {
        In[E.To] = std::move(Along);
        Changed = true;
      } else {
        Changed = Analysis::join(*In[E.To], Along);
      }
      if (Changed && !Queued[E.To]) {
        Queued[E.To] = 1;
        Work.push_back(E.To);
      }
    }
  }
  return In;
}

/// Appends to \p Out the global variable names statement \p S itself
/// defines (assignments, `var` initializers, updates, the `for..in`
/// variable) - not those of nested statements, which anchor in their
/// own blocks, and not those of condition expressions, which live in
/// block terminators. With \p IncludeConditional false, definitions
/// under a conditional expression arm or a short-circuit right-hand
/// side are skipped (must-defs); with true they count (may-defs).
void collectStmtDefs(const js::Stmt *S, bool IncludeConditional,
                     std::vector<std::string> &Out);

/// Same for a bare expression (a block terminator such as a `for`
/// step). Never descends into function literals.
void collectExprDefs(const js::Expr *E, bool IncludeConditional,
                     std::vector<std::string> &Out);

/// Per-body flow facts: lowers the body once, solves both analyses,
/// records per-statement facts, and answers per-statement queries from
/// them (see file comment).
class FlowInfo {
public:
  explicit FlowInfo(const js::Program &P);
  explicit FlowInfo(const js::FunctionLiteral &Fn);

  /// The guards dominating \p S. Empty for statements this body did
  /// not lower (including unreachable ones) - the conservative answer.
  const GuardSet &guardsAt(const js::Stmt *S) const;

  /// True if every path from operation entry to \p S definitely wrote
  /// \p Var first, making a read at \p S unexposed (see file comment).
  bool definitelyWrittenBefore(const js::Stmt *S,
                               const std::string &Var) const;

  const Cfg &cfg() const { return G; }

private:
  explicit FlowInfo(Cfg Lowered);

  /// Where a lowered statement sits, and the guards holding before it.
  struct StmtFacts {
    uint32_t Block = 0;
    uint32_t Index = 0; ///< Position in the block's Stmts.
    GuardSet Guards;    ///< Empty in unreachable blocks.
  };

  Cfg G;
  std::unordered_map<const js::Stmt *, StmtFacts> Facts;
  /// Block-entry states of the reaching-entry-defs analysis; nullopt =
  /// unreachable.
  std::vector<std::optional<std::set<std::string>>> EntryIn;
  /// Per block: variable -> index of the first statement of the block
  /// that must-defines it (kills its entry value).
  std::vector<std::unordered_map<std::string, uint32_t>> FirstMustDef;
  /// Variables with at least one definition in this body - the
  /// reaching-entry-defs universe.
  std::set<std::string> Tracked;
  GuardSet NoGuards;
};

} // namespace wr::analysis

#endif // WEBRACER_ANALYSIS_DATAFLOW_H
