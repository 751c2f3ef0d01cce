//===- webracer/Session.h - One detection run over one page -----*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level API: a Session wires a simulated browser, the race
/// detector, and automatic exploration into one run over one page, and
/// returns raw and filtered race reports with run statistics. This is the
/// WEBRACER tool of the paper's Section 5 as a library.
///
/// With SessionOptions::Predict set, the result also carries the SHB and
/// WCP passes as event-index pairs (detect/Prediction.h) plus a shared
/// handle on the recorded trace they index, so a caller that prints the
/// predicted races - buildRunReport for `page --json` - materializes them
/// and every other caller keeps 12 bytes per finding.
///
/// Typical use:
/// \code
///   webracer::SessionOptions Opts;
///   webracer::Session S(Opts);
///   S.network().addResource("index.html", Html, 10);
///   webracer::SessionResult R = S.run("index.html");
///   for (const auto &Race : R.FilteredRaces) ...
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_WEBRACER_SESSION_H
#define WEBRACER_WEBRACER_SESSION_H

#include "detect/Filters.h"
#include "detect/Prediction.h"
#include "detect/RaceDetector.h"
#include "detect/Report.h"
#include "explore/Explorer.h"
#include "instr/TraceLog.h"
#include "obs/RunStats.h"
#include "runtime/Browser.h"

#include <memory>
#include <string>
#include <vector>

namespace wr::triage {
class SuppressionFile;
} // namespace wr::triage

namespace wr::webracer {

/// Options for a full detection run.
struct SessionOptions {
  rt::BrowserOptions Browser;
  detect::DetectorOptions Detector;
  explore::ExploreOptions Explore;
  /// Run automatic exploration after load (Sec. 5.2.2).
  bool AutoExplore = true;
  /// Run the SHB, then the WCP, predictive pass (detect/Prediction.h)
  /// after the observed run. Implies trace recording for the session's
  /// own use.
  bool Predict = false;
  /// Optional suppression file (triage/Suppression.h); matched races are
  /// dropped from FilteredRaces after the Sec. 5.3 filters, counted in
  /// Stats.Attrition.Suppressed, and tallied per entry in
  /// SessionResult::SuppressionHits. Must outlive the session.
  const triage::SuppressionFile *Suppressions = nullptr;
  /// Record the full instrumentation trace (replayable via
  /// detect::replayTrace; costs memory).
  bool RecordTrace = false;
  /// Expected operation count for this run (0 = unknown). When set, the
  /// happens-before graph pre-sizes its per-operation tables so large
  /// pages do not pay repeated vector growth while streaming operations
  /// in; purely a capacity hint, never a limit.
  size_t ExpectedOperations = 0;
};

/// Everything a run produced.
struct SessionResult {
  std::vector<detect::Race> RawRaces;
  std::vector<detect::Race> FilteredRaces; ///< After Sec. 5.3 filters.
  explore::ExploreStats Explore;
  /// The full statistics record: HB graph sizes (total and per rule),
  /// reachability counters, detector and filter attrition figures, event
  /// loop totals, and phase timings.
  obs::RunStats Stats;
  /// Predictive passes, one entry per engine run (empty when prediction
  /// was off); their pairs index into Trace's events. Mirrored into
  /// Stats.Prediction.
  std::vector<detect::PredictionPass> Predictions;
  /// The session's own recording, or null when it recorded nothing.
  /// Shared, so the passes can be materialized after the Session is gone.
  std::shared_ptr<const TraceLog> Trace;
  /// Per-suppression-entry hit counts (parallel to the suppression
  /// file's entries; empty when no file was supplied). Zero-hit entries
  /// are the caller's unmatched-suppression warnings.
  std::vector<uint64_t> SuppressionHits;
  std::vector<std::string> Crashes;
  std::vector<std::string> Alerts;
  std::vector<std::string> ParseErrors;
  /// The event-loop bound that cut the run short (rt::EventLoop::cutBy),
  /// or null when the page went idle on its own.
  const char *CutBy = nullptr;
};

/// One detection run over one page. Construct, register resources on
/// network(), then run().
class Session {
public:
  explicit Session(SessionOptions Opts = SessionOptions());
  ~Session();

  rt::NetworkSimulator &network() { return B->network(); }
  rt::Browser &browser() { return *B; }
  detect::RaceDetector &detector() { return *D; }
  const TraceLog *trace() const { return Trace.get(); }

  /// Loads \p Url, explores (if configured), and collects results.
  SessionResult run(const std::string &Url);

  /// The dispatch-count callback for the single-dispatch filter, bound to
  /// this session's browser.
  detect::DispatchCountFn dispatchCounts();

private:
  SessionOptions Opts;
  std::unique_ptr<rt::Browser> B;
  std::unique_ptr<detect::RaceDetector> D;
  std::shared_ptr<TraceLog> Trace;
};

} // namespace wr::webracer

#endif // WEBRACER_WEBRACER_SESSION_H
