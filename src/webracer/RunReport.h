//===- webracer/RunReport.h - Machine-readable run reports ------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the stable JSON report for one detection run: the schema-1
/// envelope, the deterministic "stats" object (obs::RunStats), every raw
/// and filtered race, and - optionally - the nondeterministic wall-clock
/// timing section. Render with obs::JsonReporter for machines or
/// obs::TextReporter for terminals; both backends consume the same
/// document, so the two outputs can never drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_WEBRACER_RUNREPORT_H
#define WEBRACER_WEBRACER_RUNREPORT_H

#include "obs/Json.h"
#include "obs/Reporter.h"
#include "webracer/Session.h"

#include <string>

namespace wr::webracer {

/// One race as a JSON object (kind, location, both accesses, guard note).
obs::Json raceToJson(const detect::Race &R, const HbGraph &Hb);

/// The "races" section of a run or replay report: the raw and filtered
/// lists and, only when prediction ran (so non-predicting reports stay
/// byte-identical), "predicted": one member per engine, each listing its
/// candidate races tagged with the observed-vs-predicted verdict.
obs::Json racesToJson(const std::vector<detect::Race> &Raw,
                      const std::vector<detect::Race> &Filtered,
                      const std::vector<detect::PredictionResult> &Predictions,
                      const HbGraph &Hb);

/// The full report document for one run. \p IncludeTiming adds the
/// wall-clock section; leave it off when the report must be byte-stable
/// (golden tests, cross-job comparison). "races" is the last key so text
/// renderings end with the race listing.
obs::Json buildRunReport(const std::string &Name, const SessionResult &R,
                         const HbGraph &Hb, bool IncludeTiming = false);

} // namespace wr::webracer

#endif // WEBRACER_WEBRACER_RUNREPORT_H
