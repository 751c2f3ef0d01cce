//===- webracer/Harm.h - Replay-based harmfulness classification -*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mechanizes the paper's harmfulness criteria (Sec. 6.1/6.3), which the
/// authors applied by manual inspection:
///
///  * HTML race: harmful if it can cause an attempted access to a
///    yet-to-be-created DOM node (a runtime exception).
///  * Function race: harmful if it can cause an invocation of a
///    yet-to-be-parsed function.
///  * Variable (form) race: harmful if user input can be erased.
///  * Event-dispatch race: harmful if a handler attached to the event
///    might never execute.
///
/// Because every source of nondeterminism in the simulated browser is a
/// schedulable input (network latencies, user-action timing), the
/// analyzer can *replay* the page under an adversarial schedule aimed at
/// the specific race - hasten the reader, delay the writer - and then
/// observe the criterion directly: a fresh crash, a destroyed form value,
/// or an installed-but-never-executed handler. When it cannot construct
/// the flip (e.g. a timer racing with same-document parsing, where our
/// engine cannot move the timer before the parse), it reports
/// Inconclusive rather than guessing - mirroring the paper's conservative
/// "harmful only when clearly so" stance.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_WEBRACER_HARM_H
#define WEBRACER_WEBRACER_HARM_H

#include "webracer/Session.h"

#include <functional>
#include <string>

namespace wr::webracer {

/// Classification outcome.
enum class HarmVerdict : uint8_t { Harmful, Benign, Inconclusive };

const char *toString(HarmVerdict V);

/// A verdict plus the observation supporting it.
struct HarmEvidence {
  HarmVerdict Verdict = HarmVerdict::Inconclusive;
  std::string Reason;
};

/// Replays a page under race-targeted schedules and applies the paper's
/// per-type criteria.
class HarmAnalyzer {
public:
  /// \p Setup registers the page's resources into a fresh session's
  /// network; \p IndexUrl is the page to load. The analyzer constructs as
  /// many fresh sessions as it needs (the engine is deterministic modulo
  /// the perturbations it applies).
  using SetupFn = std::function<void(rt::NetworkSimulator &)>;

  HarmAnalyzer(SetupFn Setup, std::string IndexUrl,
               SessionOptions Opts = SessionOptions());

  /// Classifies one race found in a prior run over the same page.
  /// \p Hb is that run's happens-before graph (for operation metadata).
  HarmEvidence analyze(const detect::Race &R, const HbGraph &Hb);

  /// Number of replays executed so far.
  size_t replaysRun() const { return Replays; }

private:
  struct ReplayPlan {
    /// Latency overrides applied before the run.
    std::vector<std::pair<std::string, rt::VirtualTime>> Overrides;
    /// Dispatch this user event on this node as soon as the node exists
    /// ("" = none). For typing, Text is non-empty.
    NodeId ActOnNode = InvalidNodeId;
    std::string UserEventType;
    std::string TypeText;
    /// Act after window load instead of as early as possible (baseline).
    bool ActAfterLoad = false;
    /// Parser slowdown (µs per step; 0 = default).
    rt::VirtualTime ParseStepCost = 0;
    /// Run automatic exploration after load.
    bool Explore = false;
  };

  struct ReplayOutcome {
    size_t Crashes = 0;
    std::string FinalFormValue;
    bool FormValueValid = false;
    bool HandlerExecuted = false;
    bool HandlerInstalled = false;
    bool ActionPerformed = false;
  };

  /// Runs the page under \p Plan; observes the state relevant to \p R.
  ReplayOutcome replay(const ReplayPlan &Plan, const detect::Race &R);

  HarmEvidence analyzeFormRace(const detect::Race &R, const HbGraph &Hb);
  HarmEvidence analyzeCrashRace(const detect::Race &R, const HbGraph &Hb);
  HarmEvidence analyzeDispatchRace(const detect::Race &R,
                                   const HbGraph &Hb);

  SetupFn Setup;
  std::string IndexUrl;
  SessionOptions Opts;
  size_t Replays = 0;
};

} // namespace wr::webracer

#endif // WEBRACER_WEBRACER_HARM_H
