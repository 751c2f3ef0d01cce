//===- triage/Signature.cpp - Stable structural race signatures ---------------===//

#include "triage/Signature.h"

#include "support/Format.h"

#include <algorithm>

using namespace wr;
using namespace wr::triage;

std::string wr::triage::normalizeSourcePattern(std::string_view Name) {
  std::string Out;
  Out.reserve(Name.size());
  bool InDigits = false;
  for (char C : Name) {
    if (C >= '0' && C <= '9') {
      if (!InDigits)
        Out += '#';
      InDigits = true;
      continue;
    }
    InDigits = false;
    Out += C;
  }
  return Out;
}

namespace {

/// The structural location pattern: variant kind plus the stable key.
/// Runtime identities (node ids, container ids, document ids, handler
/// ids) are elided - they are assigned in execution order and differ per
/// seed - while source-level names survive with digit runs folded.
std::string locationPattern(const Location &Loc) {
  if (const auto *Var = std::get_if<JSVarLoc>(&Loc)) {
    const char *Scope = Var->Container == 0          ? "global"
                        : isDomContainer(Var->Container) ? "dom"
                                                         : "obj";
    return strFormat("var %s.%s", Scope,
                     normalizeSourcePattern(Var->Name).c_str());
  }
  if (const auto *Elem = std::get_if<HtmlElemLoc>(&Loc)) {
    switch (Elem->Kind) {
    case ElemKeyKind::ByNode:
      return "elem node";
    case ElemKeyKind::ById:
      return strFormat("elem #%s",
                       normalizeSourcePattern(Elem->Key).c_str());
    case ElemKeyKind::ByName:
      return strFormat("elem name=%s",
                       normalizeSourcePattern(Elem->Key).c_str());
    case ElemKeyKind::ByTag:
      return strFormat("elem <%s>",
                       normalizeSourcePattern(Elem->Key).c_str());
    }
    return "elem ?";
  }
  const auto &Handler = std::get<EventHandlerLoc>(Loc);
  // The handler slot class matters (the on-property slot collides on
  // overwrite, addEventListener handlers do not); the handler identity
  // and target node are run-local.
  return strFormat("handler (%s, %s)", Handler.EventType.c_str(),
                   Handler.HandlerId == 0 ? "slot" : "listener");
}

const char *triggerTag(TriggerKind Kind) {
  switch (Kind) {
  case TriggerKind::None:
    return "sync";
  case TriggerKind::Network:
    return "net";
  case TriggerKind::Timer:
    return "timer";
  case TriggerKind::User:
    return "user";
  }
  return "?";
}

/// Causal in-edge rules only: how the operation came to exist and be
/// schedulable. Order-only rules (parse order, dispatch order, the
/// DCL/load barriers, generic program order) describe one schedule's
/// accident of placement and vary with seed jitter, so they are not part
/// of the structural identity.
const char *causalTag(HbRule Rule) {
  switch (Rule) {
  case HbRule::R2_CreateBeforeExe:
    return "create-exe";
  case HbRule::R4_CreateBeforeDefer:
    return "create-defer";
  case HbRule::R8_TargetCreated:
    return "target-created";
  case HbRule::R10_AjaxSend:
    return "ajax";
  case HbRule::R16_SetTimeout:
    return "timeout";
  case HbRule::R17_SetInterval:
    return "interval";
  case HbRule::RA_DispatchChain:
    return "dispatch-chain";
  case HbRule::RA_InlineSplit:
    return "inline-split";
  default:
    return nullptr;
  }
}

/// The causal HB-rule context of \p Op: the deduplicated causal tags of
/// its in-edges, in enum order (deterministic regardless of the order
/// edges were added in). "-" when none qualify.
std::string contextOf(OpId Op, const HbGraph &Hb) {
  bool Seen[NumHbRules] = {};
  for (OpId Pred : Hb.predecessors(Op)) {
    HbRule Rule;
    if (Hb.findDirectEdgeRule(Pred, Op, Rule))
      Seen[static_cast<size_t>(Rule)] = true;
  }
  std::string Out;
  for (size_t I = 0; I < NumHbRules; ++I) {
    if (!Seen[I])
      continue;
    const char *Tag = causalTag(static_cast<HbRule>(I));
    if (!Tag)
      continue;
    if (!Out.empty())
      Out += '+';
    Out += Tag;
  }
  return Out.empty() ? "-" : Out;
}

/// One endpoint's engine-independent shape: read/write, why the access
/// happened, and what kind of operation (with what trigger) performed it.
std::string endpointShape(const Access &A, const HbGraph &Hb) {
  const Operation &Op = Hb.operation(A.Op);
  return strFormat("%s:%s:%s:%s", A.Kind == AccessKind::Write ? "w" : "r",
                   wr::toString(A.Origin), wr::toString(Op.Kind),
                   triggerTag(Op.Trigger));
}

/// One endpoint's (shape, context) components.
std::pair<std::string, std::string> endpointParts(const Access &A,
                                                  const HbGraph &Hb) {
  return {endpointShape(A, Hb), contextOf(A.Op, Hb)};
}

/// Assembles a signature from its components. The endpoints go in
/// canonical order: sorting the (shape, context) pairs makes the signature
/// independent of which endpoint the detector stored in its slot first (an
/// artifact of OpId numbering and schedule).
RaceSignature assemble(detect::RaceKind Kind, std::string Location,
                       const std::pair<std::string, std::string> &A,
                       const std::pair<std::string, std::string> &B) {
  bool Swap = B < A;
  const auto &Lo = Swap ? B : A;
  const auto &Hi = Swap ? A : B;
  RaceSignature Sig;
  Sig.Kind = detect::toString(Kind);
  Sig.Location = std::move(Location);
  Sig.Access = Lo.first + " + " + Hi.first;
  Sig.Context = Lo.second + " + " + Hi.second;
  return Sig;
}

constexpr uint32_t NoId = ~0u;

} // namespace

std::string RaceSignature::text() const {
  std::string Out;
  Out.reserve(Kind.size() + Location.size() + Access.size() +
              Context.size() + 3);
  Out += Kind;
  Out += '|';
  Out += Location;
  Out += '|';
  Out += Access;
  Out += '|';
  Out += Context;
  return Out;
}

uint64_t RaceSignature::hash() const {
  // FNV-1a, fixed offset/prime: the fingerprint must be identical across
  // platforms and standard libraries (it lands in reports).
  uint64_t H = 1469598103934665603ull;
  for (char C : text()) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  return H;
}

std::string RaceSignature::id() const {
  return strFormat("sig-%016llx", static_cast<unsigned long long>(hash()));
}

RaceSignature wr::triage::computeSignature(const detect::Race &R,
                                           const HbGraph &Hb) {
  return assemble(R.Kind, locationPattern(R.Loc), endpointParts(R.First, Hb),
                  endpointParts(R.Second, Hb));
}

uint32_t SignatureTable::sign(const detect::Race &R) {
  return sign(R.Kind, R.First, R.Second, R.Loc);
}

uint32_t SignatureTable::sign(detect::RaceKind Kind, const Access &First,
                              const Access &Second, const Location &Loc) {
  uint32_t A = endpointOf(First);
  uint32_t B = endpointOf(Second);
  Key K{static_cast<uint32_t>(Kind), patternOf(Second.Loc, Loc),
        std::min(A, B), std::max(A, B)};
  auto [It, Inserted] =
      SignatureOf.try_emplace(K, static_cast<uint32_t>(Signatures.size()));
  if (Inserted)
    Signatures.push_back(
        assemble(Kind, Patterns[K.Pattern], Endpoints[A], Endpoints[B]));
  return It->second;
}

uint32_t SignatureTable::patternOf(LocId Id, const Location &Loc) {
  // The detector and the predictive passes both resolve a race's Location
  // from the second access's LocId; hand-built races without one are
  // signed directly.
  if (Id == InvalidLocId)
    return internPattern(locationPattern(Loc));
  if (Id >= PatternOfLoc.size())
    PatternOfLoc.resize(static_cast<size_t>(Id) + 1, NoId);
  if (PatternOfLoc[Id] == NoId)
    PatternOfLoc[Id] = internPattern(locationPattern(Loc));
  return PatternOfLoc[Id];
}

uint32_t SignatureTable::internPattern(std::string Pattern) {
  auto [It, Inserted] = PatternIds.try_emplace(
      Pattern, static_cast<uint32_t>(Patterns.size()));
  if (Inserted)
    Patterns.push_back(std::move(Pattern));
  return It->second;
}

uint32_t SignatureTable::endpointOf(const Access &A) {
  uint64_t Packed = static_cast<uint64_t>(A.Op) << 16 |
                    static_cast<uint64_t>(A.Kind) << 8 |
                    static_cast<uint64_t>(A.Origin);
  auto [It, Inserted] = EndpointOfAccess.try_emplace(Packed, NoId);
  if (Inserted) {
    Endpoint Parts = endpointParts(A, Hb);
    auto [Id, New] = EndpointIds.try_emplace(
        Parts, static_cast<uint32_t>(Endpoints.size()));
    if (New)
      Endpoints.push_back(std::move(Parts));
    It->second = Id->second;
  }
  return It->second;
}
