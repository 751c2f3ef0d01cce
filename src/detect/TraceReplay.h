//===- detect/TraceReplay.h - Offline detection over a trace ----*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the race-detection pipeline offline over a recorded TraceLog: the
/// happens-before graph is reconstructed event by event, the detector
/// consumes the access stream in recorded order, and the Sec. 5.3 filters
/// draw their dispatch counts from the trace's dispatch records. Because
/// replay processes events in exactly the order the engine emitted them,
/// an offline run is observationally identical to the online run that
/// recorded the trace - same races, same filtered set, same detector
/// counters (both fill them through collectStats) - so detector-mode and
/// filter ablations can compare configurations against one recorded
/// execution instead of re-running the browser per configuration.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_DETECT_TRACEREPLAY_H
#define WEBRACER_DETECT_TRACEREPLAY_H

#include "detect/Filters.h"
#include "detect/Prediction.h"
#include "detect/RaceDetector.h"
#include "detect/Report.h"
#include "instr/TraceLog.h"
#include "obs/RunStats.h"

#include <vector>

namespace wr::detect {

/// Configuration for one offline detection run. The observed-race pass
/// always replays under happens-before (byte-identical to the online
/// run); Predict adds the SHB and WCP passes of detect/Prediction.h,
/// whose results land in ReplayResult::Predictions and the stats'
/// wr_prediction rows.
struct ReplayOptions {
  DetectorOptions Detector;
  /// Run the SHB, then the WCP, predictive pass after the observed one.
  bool Predict = false;
};

/// Everything an offline run produces. Mirrors the detection-relevant
/// fields of webracer::SessionResult.
struct ReplayResult {
  std::vector<Race> RawRaces;
  std::vector<Race> FilteredRaces; ///< After the Sec. 5.3 filters.
  /// The detection-relevant statistics (operations, HB edges, CHC
  /// queries, intern/epoch counters, crashes, ...) as a structured
  /// record; the browser-side figures - tasks, virtual time, exploration
  /// - stay zero offline.
  obs::RunStats Stats;
  /// The reconstructed happens-before graph, for report rendering
  /// (describeRaces) and offline harm analysis.
  HbGraph Hb;
  /// Predictive passes' findings, one entry per engine run (empty when
  /// prediction was off). Mirrored into Stats.Prediction.
  std::vector<PredictionResult> Predictions;
};

/// Reconstructs the happens-before graph alone (operations with their full
/// metadata plus rule-tagged edges) from \p Log.
HbGraph buildHbGraphFromTrace(const TraceLog &Log);

/// A DispatchCountFn backed by the trace's dispatch records; keys counts
/// by (target node, target object, event type) exactly like the engine.
DispatchCountFn dispatchCountsFromTrace(const TraceLog &Log);

/// Replays \p Log through a fresh detector and the paper filters.
ReplayResult replayTrace(const TraceLog &Log,
                         const ReplayOptions &Opts = ReplayOptions());

} // namespace wr::detect

#endif // WEBRACER_DETECT_TRACEREPLAY_H
