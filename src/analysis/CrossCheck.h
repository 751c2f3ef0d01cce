//===- analysis/CrossCheck.h - Static vs dynamic validation -----*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-validation harness: runs the ahead-of-time static analyzer
/// and the dynamic detector (a full Session with automatic exploration)
/// over the same page, maps the dynamic races into static-location space,
/// and reports precision (what fraction of predictions some run
/// confirmed) and recall (what fraction of dynamically observed races the
/// analyzer predicted).
///
/// Dynamic races are compared against the detector's *raw* reports: the
/// Sec. 5.3 filters are reporting refinements, not soundness statements,
/// and the static analyzer should be measured against everything the
/// dynamic semantics can produce.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_ANALYSIS_CROSSCHECK_H
#define WEBRACER_ANALYSIS_CROSSCHECK_H

#include "analysis/Scenarios.h"
#include "obs/Json.h"
#include "webracer/Session.h"

#include <string>
#include <vector>

namespace wr::analysis {

/// One dynamically observed race mapped into static-location space.
struct MappedDynamicRace {
  detect::RaceKind Kind = detect::RaceKind::Variable;
  StaticLoc Loc;       ///< Name may be empty when unmappable.
  std::string Dynamic; ///< Rendering of the dynamic location.
  bool Predicted = false;
};

/// Maps dynamic race reports into static-location space. \p B must be
/// the browser the races were observed in (node identities resolve
/// against it), so call this while the session is still alive.
std::vector<MappedDynamicRace>
mapDynamicRaces(const std::vector<detect::Race> &Races, rt::Browser &B);

/// Confirmed/refuted counters for one guard class.
struct GuardClassCounts {
  uint64_t Predicted = 0;
  uint64_t Confirmed = 0;
  uint64_t Refuted = 0;
};

/// Precision accounting per guard class: how predictions fared against
/// the dynamic run, split by how much the code statically defends
/// against them. RefutedByGuards is the headline: predictions that are
/// guarded on both sides *and* never showed up dynamically - false
/// positives the guard analysis explains away.
struct StaticPrecision {
  uint64_t Predicted = 0;
  uint64_t Confirmed = 0;
  uint64_t Refuted = 0;
  uint64_t RefutedByGuards = 0;
  /// Indexed by GuardClass.
  GuardClassCounts ByClass[3];

  void add(const PredictedRace &P, bool WasConfirmed);
  void merge(const StaticPrecision &O);
  obs::Json toJson() const;
};

/// Matches \p Predictions against \p Dynamic: marks each mapped race
/// Predicted when some prediction aliases it, appends each prediction
/// to \p Confirmed or \p Refuted (either may be null), and returns the
/// per-guard-class tallies.
StaticPrecision tallyPrecision(const std::vector<PredictedRace> &Predictions,
                               std::vector<MappedDynamicRace> &Dynamic,
                               std::vector<PredictedRace> *Confirmed,
                               std::vector<PredictedRace> *Refuted);

/// Everything one page's cross-check produced.
struct CrossCheckResult {
  std::string Name;
  StaticAnalysis Static;
  webracer::SessionResult Dynamic;
  /// The compared dynamic races (raw or filtered per options), mapped.
  std::vector<MappedDynamicRace> DynamicRaces;
  /// Predictions at least one dynamic race confirmed.
  std::vector<PredictedRace> Confirmed;
  /// Predictions no dynamic race matched (potential false positives).
  std::vector<PredictedRace> Refuted;
  /// Per-guard-class precision accounting for this page.
  StaticPrecision Precision;

  size_t predictedCount() const { return Static.Races.size(); }
  size_t confirmedCount() const { return Confirmed.size(); }
  size_t dynamicCount() const { return DynamicRaces.size(); }
  size_t missedCount() const;

  /// confirmed / predicted; 1.0 when nothing was predicted.
  double precision() const;
  /// (dynamic - missed) / dynamic; 1.0 when nothing was observed.
  double recall() const;
};

/// Runs both analyses over \p Page and matches the reports; \p Opts
/// configures the dynamic session (AutoExplore defaults to on).
CrossCheckResult crossCheck(const PageSpec &Page,
                            const webracer::SessionOptions &Opts =
                                webracer::SessionOptions());

/// Multi-line per-page report: predictions with their verdicts, dynamic
/// races with their mapping, and the precision/recall summary.
std::string formatReport(const CrossCheckResult &R);

/// One aligned table, a row per page plus a totals row.
std::string formatTable(const std::vector<CrossCheckResult> &Results);

/// The schema-1 report document for a set of cross-check results: one
/// row per page (counts, precision/recall, per-prediction verdicts) plus
/// the totals the table's last row shows.
obs::Json
buildCrossCheckReport(const std::vector<CrossCheckResult> &Results);

} // namespace wr::analysis

#endif // WEBRACER_ANALYSIS_CROSSCHECK_H
