//===- analysis/Dataflow.cpp - Forward dataflow over the MiniJS CFG --------===//

#include "analysis/Dataflow.h"

using namespace wr;
using namespace wr::analysis;

// --------------------------------------------------------------------------
// Definition collection
// --------------------------------------------------------------------------

namespace {

/// The defined name of an assignment/update target: an identifier or a
/// `window.x` member. Index targets and other member writes define DOM
/// state, not guard subjects or tracked variables.
std::string targetName(const js::Expr *Target) {
  if (const auto *I = js::dyn_cast<js::Ident>(Target))
    return I->Name;
  if (const auto *M = js::dyn_cast<js::Member>(Target))
    if (const auto *Base = js::dyn_cast<js::Ident>(M->Base.get()))
      if (Base->Name == "window")
        return M->Name;
  return std::string();
}

void walkExprDefs(const js::Expr *E, bool IncludeConditional,
                  std::vector<std::string> &Out) {
  if (!E)
    return;
  switch (E->kind()) {
  case js::AstKind::Assign: {
    const auto *A = js::cast<js::Assign>(E);
    if (std::string Name = targetName(A->Target.get()); !Name.empty())
      Out.push_back(std::move(Name));
    else
      walkExprDefs(A->Target.get(), IncludeConditional, Out);
    walkExprDefs(A->Value.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::Update: {
    const auto *U = js::cast<js::Update>(E);
    if (std::string Name = targetName(U->Operand.get()); !Name.empty())
      Out.push_back(std::move(Name));
    return;
  }
  case js::AstKind::Conditional: {
    const auto *C = js::cast<js::Conditional>(E);
    walkExprDefs(C->Cond.get(), IncludeConditional, Out);
    if (IncludeConditional) {
      walkExprDefs(C->Then.get(), IncludeConditional, Out);
      walkExprDefs(C->Else.get(), IncludeConditional, Out);
    }
    return;
  }
  case js::AstKind::Logical: {
    const auto *L = js::cast<js::Logical>(E);
    walkExprDefs(L->Lhs.get(), IncludeConditional, Out);
    if (IncludeConditional)
      walkExprDefs(L->Rhs.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::FunctionExpr:
    return; // Separate body, separate Cfg.
  case js::AstKind::Unary:
    walkExprDefs(js::cast<js::Unary>(E)->Operand.get(), IncludeConditional,
                 Out);
    return;
  case js::AstKind::Binary: {
    const auto *B = js::cast<js::Binary>(E);
    walkExprDefs(B->Lhs.get(), IncludeConditional, Out);
    walkExprDefs(B->Rhs.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::Member:
    walkExprDefs(js::cast<js::Member>(E)->Base.get(), IncludeConditional,
                 Out);
    return;
  case js::AstKind::Index: {
    const auto *I = js::cast<js::Index>(E);
    walkExprDefs(I->Base.get(), IncludeConditional, Out);
    walkExprDefs(I->Key.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::Call: {
    const auto *C = js::cast<js::Call>(E);
    walkExprDefs(C->Callee.get(), IncludeConditional, Out);
    for (const js::ExprPtr &Arg : C->Args)
      walkExprDefs(Arg.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::New: {
    const auto *N = js::cast<js::New>(E);
    for (const js::ExprPtr &Arg : N->Args)
      walkExprDefs(Arg.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::Sequence: {
    for (const js::ExprPtr &Sub : js::cast<js::Sequence>(E)->Exprs)
      walkExprDefs(Sub.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::ArrayLit: {
    for (const js::ExprPtr &Elt : js::cast<js::ArrayLit>(E)->Elems)
      walkExprDefs(Elt.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::ObjectLit: {
    for (const auto &Prop : js::cast<js::ObjectLit>(E)->Props)
      walkExprDefs(Prop.Value.get(), IncludeConditional, Out);
    return;
  }
  default:
    return; // Literals, identifiers, this: no definitions.
  }
}

} // namespace

void wr::analysis::collectExprDefs(const js::Expr *E, bool IncludeConditional,
                                   std::vector<std::string> &Out) {
  walkExprDefs(E, IncludeConditional, Out);
}

void wr::analysis::collectStmtDefs(const js::Stmt *S, bool IncludeConditional,
                                   std::vector<std::string> &Out) {
  switch (S->kind()) {
  case js::AstKind::ExprStmt:
    walkExprDefs(js::cast<js::ExprStmt>(S)->E.get(), IncludeConditional,
                 Out);
    return;
  case js::AstKind::VarDecl: {
    for (const js::VarDecl::Declarator &D :
         js::cast<js::VarDecl>(S)->Decls) {
      // `var x;` leaves x undefined - the entry value, not a write.
      if (!D.Init)
        continue;
      Out.push_back(D.Name);
      walkExprDefs(D.Init.get(), IncludeConditional, Out);
    }
    return;
  }
  case js::AstKind::FunctionDecl:
    // Hoisted, so in truth defined even earlier than this anchor -
    // counting the definition here is the conservative direction.
    Out.push_back(js::cast<js::FunctionDecl>(S)->Fn.Name);
    return;
  case js::AstKind::ForIn:
    Out.push_back(js::cast<js::ForIn>(S)->Var);
    return;
  case js::AstKind::Return:
    walkExprDefs(js::cast<js::Return>(S)->Value.get(), IncludeConditional,
                 Out);
    return;
  case js::AstKind::Throw:
    walkExprDefs(js::cast<js::Throw>(S)->Value.get(), IncludeConditional,
                 Out);
    return;
  default:
    // Control statements own no expressions: their conditions are
    // block terminators, their children anchor in other blocks.
    return;
  }
}

// --------------------------------------------------------------------------
// The two analyses
// --------------------------------------------------------------------------

namespace {

struct GuardAnalysis {
  using Domain = GuardSet;

  Domain boundary() const { return GuardSet(); }

  void transferBlock(const CfgBlock &B, Domain &D) const {
    std::vector<std::string> Defs;
    for (const js::Stmt *S : B.Stmts)
      collectStmtDefs(S, /*IncludeConditional=*/true, Defs);
    collectExprDefs(B.Term, /*IncludeConditional=*/true, Defs);
    // A may-write to the guarded variable invalidates the fact.
    for (const std::string &V : Defs)
      D.killSubject(V);
  }

  void transferEdge(const CfgEdge &E, Domain &D) const {
    if (!E.Cond)
      return;
    if (std::optional<Guard> G = classifyGuard(E.Cond, E.WhenTrue))
      D.add(*G);
  }

  static bool join(Domain &Into, const Domain &From) {
    size_t Before = Into.size();
    Into.intersectWith(From);
    return Into.size() != Before;
  }
};

struct EntryDefAnalysis {
  using Domain = std::set<std::string>;

  const std::set<std::string> &Universe;

  Domain boundary() const { return Universe; }

  void transferBlock(const CfgBlock &B, Domain &D) const {
    // Only definite (unconditional) definitions kill the entry value.
    std::vector<std::string> Defs;
    for (const js::Stmt *S : B.Stmts)
      collectStmtDefs(S, /*IncludeConditional=*/false, Defs);
    collectExprDefs(B.Term, /*IncludeConditional=*/false, Defs);
    for (const std::string &V : Defs)
      D.erase(V);
  }

  void transferEdge(const CfgEdge &, Domain &) const {}

  static bool join(Domain &Into, const Domain &From) {
    size_t Before = Into.size();
    Into.insert(From.begin(), From.end());
    return Into.size() != Before;
  }
};

} // namespace

// --------------------------------------------------------------------------
// FlowInfo
// --------------------------------------------------------------------------

FlowInfo::FlowInfo(Cfg Lowered) : G(std::move(Lowered)) {
  std::vector<std::string> Defs;
  for (const CfgBlock &B : G.Blocks) {
    Defs.clear();
    for (const js::Stmt *S : B.Stmts)
      collectStmtDefs(S, /*IncludeConditional=*/true, Defs);
    collectExprDefs(B.Term, /*IncludeConditional=*/true, Defs);
    Tracked.insert(Defs.begin(), Defs.end());
  }
  std::vector<std::optional<GuardSet>> GuardIn =
      solveForward(G, GuardAnalysis{});
  EntryIn = solveForward(G, EntryDefAnalysis{Tracked});

  // Replay each block once: the guard state before each statement, and
  // where each variable's first must-definition in the block sits.
  FirstMustDef.resize(G.Blocks.size());
  for (uint32_t Block = 0; Block < G.Blocks.size(); ++Block) {
    const std::vector<const js::Stmt *> &Stmts = G.Blocks[Block].Stmts;
    const std::optional<GuardSet> &In = GuardIn[Block];
    GuardSet State = In ? *In : GuardSet();
    for (uint32_t I = 0; I < Stmts.size(); ++I) {
      const js::Stmt *S = Stmts[I];
      Facts.emplace(S, StmtFacts{Block, I, State});
      if (In) {
        Defs.clear();
        collectStmtDefs(S, /*IncludeConditional=*/true, Defs);
        for (const std::string &V : Defs)
          State.killSubject(V);
      }
      if (EntryIn[Block]) {
        Defs.clear();
        collectStmtDefs(S, /*IncludeConditional=*/false, Defs);
        for (std::string &V : Defs)
          FirstMustDef[Block].emplace(std::move(V), I);
      }
    }
  }
}

FlowInfo::FlowInfo(const js::Program &P) : FlowInfo(Cfg::lower(P)) {}

FlowInfo::FlowInfo(const js::FunctionLiteral &Fn) : FlowInfo(Cfg::lower(Fn)) {}

const GuardSet &FlowInfo::guardsAt(const js::Stmt *S) const {
  auto It = Facts.find(S);
  return It == Facts.end() ? NoGuards : It->second.Guards;
}

bool FlowInfo::definitelyWrittenBefore(const js::Stmt *S,
                                       const std::string &Var) const {
  if (!Tracked.count(Var))
    return false; // Never written here, so the entry value reaches.
  auto It = Facts.find(S);
  if (It == Facts.end() || !EntryIn[It->second.Block])
    return false; // Unknown or unreachable: keep the read.
  if (!EntryIn[It->second.Block]->count(Var))
    return true; // Killed on every path into the block.
  const auto &Firsts = FirstMustDef[It->second.Block];
  auto Def = Firsts.find(Var);
  return Def != Firsts.end() && Def->second < It->second.Index;
}
