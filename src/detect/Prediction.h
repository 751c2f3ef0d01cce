//===- detect/Prediction.h - Predictive races over a trace ------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The predictive race pass: replays a recorded trace's event stream
/// through a predictive order (hb/PredictiveEngine.h) and reports every
/// conflicting access pair the order leaves unordered - including races
/// *after* the first one per location, which the paper's single-slot
/// online detector never sees. A prediction run makes two passes, SHB
/// then WCP (predictAll). Each access is checked against the location's
/// full history *before* the engine applies the access's own update
/// (SHB's check-then-update discipline), so under the SHB order every
/// reported pair is a race in some feasible schedule of the recorded
/// execution.
///
/// Findings are deduplicated per (location, operation pair) and labeled:
/// a pair the observed run also reported is Observed; everything else is
/// Predicted - the per-trace value the engine adds over the single
/// observed schedule.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_DETECT_PREDICTION_H
#define WEBRACER_DETECT_PREDICTION_H

#include "detect/RaceDetector.h"
#include "hb/PredictiveEngine.h"
#include "instr/TraceLog.h"
#include "obs/RunStats.h"

#include <vector>

namespace wr::detect {

/// Whether a race found by the predictive pass was also in the observed
/// run's report or is new information.
enum class PredictionVerdict : uint8_t {
  Observed,  ///< The observed run reported this (location, pair) too.
  Predicted, ///< New: only visible under the predictive order.
};

const char *toString(PredictionVerdict Verdict);

/// One race found by the predictive pass.
struct PredictedRace {
  Race R;
  PredictionVerdict Verdict = PredictionVerdict::Predicted;
};

/// Everything one engine's pass over one trace produced.
struct PredictionResult {
  EngineKind Engine = EngineKind::Shb;
  /// Deduplicated races in trace order (first flagged occurrence wins).
  std::vector<PredictedRace> Races;
  /// Conflicting cross-operation pairs the pass posed to the engine.
  uint64_t PairsChecked = 0;
  /// HB edges the engine's order dropped (WCP weakening; 0 otherwise).
  uint64_t DroppedEdges = 0;

  size_t observedMatched() const;
  size_t predictedCount() const;
};

/// Runs the predictive pass over \p Log under \p Engine. \p ObservedRaw
/// is the observed run's raw race list (online or replayed); it only
/// labels verdicts, it never adds races.
PredictionResult predictRaces(const TraceLog &Log, EngineKind Engine,
                              const std::vector<Race> &ObservedRaw);

/// A prediction run: the SHB pass, then the WCP pass, over \p Log, so
/// the report carries the two deltas side by side. Appends each pass's
/// result to \p Results and its wr_prediction row to \p Stats.
void predictAll(const TraceLog &Log, const std::vector<Race> &ObservedRaw,
                std::vector<PredictionResult> &Results, obs::RunStats &Stats);

} // namespace wr::detect

#endif // WEBRACER_DETECT_PREDICTION_H
