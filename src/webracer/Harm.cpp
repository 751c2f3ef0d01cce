//===- webracer/Harm.cpp - Replay-based harmfulness classification -------------===//

#include "webracer/Harm.h"

#include "support/Format.h"

using namespace wr;
using namespace wr::webracer;
using detect::Race;
using detect::RaceKind;

const char *wr::webracer::toString(HarmVerdict V) {
  switch (V) {
  case HarmVerdict::Harmful:
    return "harmful";
  case HarmVerdict::Benign:
    return "benign";
  case HarmVerdict::Inconclusive:
    return "inconclusive";
  }
  return "?";
}

HarmAnalyzer::HarmAnalyzer(SetupFn Setup, std::string IndexUrl,
                           SessionOptions Opts)
    : Setup(std::move(Setup)), IndexUrl(std::move(IndexUrl)),
      Opts(std::move(Opts)) {}

HarmAnalyzer::ReplayOutcome
HarmAnalyzer::replay(const ReplayPlan &Plan, const Race &R) {
  SessionOptions SOpts = Opts;
  SOpts.AutoExplore = false; // The plan controls interaction precisely.
  if (Plan.ParseStepCost != 0)
    SOpts.Browser.ParseStepCost = Plan.ParseStepCost;
  Session S(SOpts);
  Setup(S.network());
  for (const auto &[Url, Latency] : Plan.Overrides)
    S.network().overrideLatency(Url, Latency);

  rt::Browser &B = S.browser();
  B.loadPage(IndexUrl);
  ++Replays;

  ReplayOutcome Out;
  auto Act = [&] {
    Node *N = B.nodeById(Plan.ActOnNode);
    Element *E = N ? dyn_cast<Element>(N) : nullptr;
    if (!E || !E->inDocument())
      return false;
    if (!Plan.TypeText.empty())
      B.userType(E, Plan.TypeText);
    else if (!Plan.UserEventType.empty())
      B.userEvent(E, Plan.UserEventType);
    else
      return false;
    return true;
  };

  if (Plan.ActOnNode != InvalidNodeId && !Plan.ActAfterLoad) {
    // Act at the earliest moment the target exists: the adversarial
    // "user beats the page" schedule.
    while (B.loop().pendingTasks() > 0) {
      if ((Out.ActionPerformed = Act()))
        break;
      B.loop().runOne();
    }
  }
  B.runToQuiescence();
  if (Plan.ActOnNode != InvalidNodeId && Plan.ActAfterLoad) {
    Out.ActionPerformed = Act();
    B.runToQuiescence();
  }
  if (Plan.Explore) {
    explore::Explorer E(B, Opts.Explore);
    E.run();
  }

  Out.Crashes = B.crashLog().size();
  if (const auto *Var = std::get_if<JSVarLoc>(&R.Loc)) {
    if (isDomContainer(Var->Container)) {
      Node *N = B.nodeById(nodeOfContainer(Var->Container));
      if (Element *E = N ? dyn_cast<Element>(N) : nullptr) {
        Out.FinalFormValue = E->formValue();
        Out.FormValueValid = true;
      }
    }
  }
  if (const auto *Handler = std::get_if<EventHandlerLoc>(&R.Loc)) {
    rt::TargetKey Key{Handler->Target, Handler->TargetObject};
    Out.HandlerInstalled =
        B.hasRegisteredHandler(Key, Handler->EventType);
    Out.HandlerExecuted = B.anyHandlerExecuted(Key, Handler->EventType);
  }
  return Out;
}

/// Finds the access performed by a user/timer/network-triggered
/// operation, preferring the given kind.
static const Access *pickAccess(const Race &R, AccessKind Kind) {
  if (R.First.Kind == Kind)
    return &R.First;
  if (R.Second.Kind == Kind)
    return &R.Second;
  return nullptr;
}

HarmEvidence HarmAnalyzer::analyzeFormRace(const Race &R,
                                           const HbGraph &Hb) {
  const auto *Var = std::get_if<JSVarLoc>(&R.Loc);
  if (!Var || !isDomContainer(Var->Container))
    return {HarmVerdict::Inconclusive, "not a form-field location"};
  NodeId Box = nodeOfContainer(Var->Container);

  // Delay any network-triggered script side so the probe input lands
  // first; then see whether the page destroys it (Sec. 6.3's "user input
  // would be deleted by a script executing later").
  ReplayPlan Plan;
  Plan.ActOnNode = Box;
  Plan.TypeText = "HARMPROBE";
  for (const Access *A : {&R.First, &R.Second}) {
    const Operation &Op = Hb.operation(A->Op);
    if (Op.Trigger == TriggerKind::Network &&
        A->Origin != AccessOrigin::UserInput)
      Plan.Overrides.push_back({Op.TriggerKey, 50'000});
  }
  ReplayOutcome Out = replay(Plan, R);
  if (!Out.ActionPerformed || !Out.FormValueValid)
    return {HarmVerdict::Inconclusive,
            "could not type into the field during replay"};
  if (Out.FinalFormValue != "HARMPROBE")
    return {HarmVerdict::Harmful,
            strFormat("typed input was overwritten with \"%s\"",
                      Out.FinalFormValue.c_str())};
  return {HarmVerdict::Benign, "typed input survived the race"};
}

HarmEvidence HarmAnalyzer::analyzeCrashRace(const Race &R,
                                            const HbGraph &Hb) {
  // Identify the reading side (the potential crasher) and the writing
  // side (the creation/declaration it may miss).
  const Access *Read = pickAccess(R, AccessKind::Read);
  const Access *Write = pickAccess(R, AccessKind::Write);
  if (!Read || !Write)
    return {HarmVerdict::Inconclusive, "no read/write pair"};
  const Operation &ReadOp = Hb.operation(Read->Op);
  const Operation &WriteOp = Hb.operation(Write->Op);

  if (ReadOp.Trigger == TriggerKind::User &&
      ReadOp.Subject != InvalidNodeId && !ReadOp.EventType.empty()) {
    // Fire the same user event as early as possible, delaying a
    // network-triggered writer; compare crashes against acting after
    // load.
    ReplayPlan Early;
    Early.ActOnNode = ReadOp.Subject;
    Early.UserEventType = ReadOp.EventType;
    if (WriteOp.Trigger == TriggerKind::Network)
      Early.Overrides.push_back({WriteOp.TriggerKey, 200'000});
    ReplayPlan Late = Early;
    Late.ActAfterLoad = true;
    Late.Overrides.clear();
    ReplayOutcome EarlyOut = replay(Early, R);
    ReplayOutcome LateOut = replay(Late, R);
    if (!EarlyOut.ActionPerformed)
      return {HarmVerdict::Inconclusive,
              "could not trigger the reading operation early"};
    if (EarlyOut.Crashes > LateOut.Crashes)
      return {HarmVerdict::Harmful,
              strFormat("early %s caused an uncaught exception (%zu vs "
                        "%zu crashes)",
                        ReadOp.EventType.c_str(), EarlyOut.Crashes,
                        LateOut.Crashes)};
    return {HarmVerdict::Benign,
            "reading operation tolerates running first"};
  }

  if (ReadOp.Trigger == TriggerKind::Timer) {
    // Slow parsing down so timer callbacks interleave with it; a reader
    // that dereferences missing nodes will crash, a guarded poller will
    // not (the Ford pattern).
    ReplayPlan Slowed;
    Slowed.ParseStepCost = 30'000;
    ReplayPlan Natural;
    ReplayOutcome SlowedOut = replay(Slowed, R);
    ReplayOutcome NaturalOut = replay(Natural, R);
    if (SlowedOut.Crashes > NaturalOut.Crashes)
      return {HarmVerdict::Harmful,
              strFormat("timer callback crashed when parsing was slow "
                        "(%zu vs %zu crashes)",
                        SlowedOut.Crashes, NaturalOut.Crashes)};
    return {HarmVerdict::Benign,
            "timer callback tolerates incomplete parsing (guarded "
            "polling)"};
  }

  return {HarmVerdict::Inconclusive,
          strFormat("cannot construct the adverse schedule for a %s-"
                    "triggered reader",
                    ReadOp.Trigger == TriggerKind::Network ? "network"
                                                           : "parser")};
}

HarmEvidence HarmAnalyzer::analyzeDispatchRace(const Race &R,
                                               const HbGraph &Hb) {
  const Access *Read = pickAccess(R, AccessKind::Read);
  const Access *Write = pickAccess(R, AccessKind::Write);
  if (!Read || !Write)
    return {HarmVerdict::Inconclusive, "no read/write pair"};
  const Operation &DispatchOp = Hb.operation(Read->Op);
  const Operation &InstallOp = Hb.operation(Write->Op);

  // Force the dispatch before the installation: hasten the dispatch's
  // network trigger, delay the installer's.
  ReplayPlan Plan;
  bool CanFlip = false;
  if (DispatchOp.Trigger == TriggerKind::Network) {
    Plan.Overrides.push_back({DispatchOp.TriggerKey, 1});
    CanFlip = true;
  }
  if (InstallOp.Trigger == TriggerKind::Network) {
    Plan.Overrides.push_back({InstallOp.TriggerKey, 200'000});
    CanFlip = true;
  }
  if (InstallOp.Trigger == TriggerKind::Timer &&
      DispatchOp.Trigger == TriggerKind::Network)
    CanFlip = true; // Fast network beats the first timer tick.
  if (!CanFlip)
    return {HarmVerdict::Inconclusive,
            "neither side of the dispatch race is network-triggered"};

  ReplayOutcome Out = replay(Plan, R);
  if (Out.HandlerInstalled && !Out.HandlerExecuted)
    return {HarmVerdict::Harmful,
            "handler was installed but its event had already dispatched; "
            "the handler never ran"};
  if (Out.HandlerExecuted)
    return {HarmVerdict::Benign,
            "handler still executed under the adverse schedule"};
  return {HarmVerdict::Inconclusive,
          "handler was never installed during replay"};
}

HarmEvidence HarmAnalyzer::analyze(const Race &R, const HbGraph &Hb) {
  switch (R.Kind) {
  case RaceKind::Variable:
    return analyzeFormRace(R, Hb);
  case RaceKind::Html:
  case RaceKind::Function:
    return analyzeCrashRace(R, Hb);
  case RaceKind::EventDispatch:
    return analyzeDispatchRace(R, Hb);
  }
  return {HarmVerdict::Inconclusive, "unknown race kind"};
}
