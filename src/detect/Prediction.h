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
/// A pass keeps each finding as a 12-byte PredictedPair: two indices into
/// the trace's events plus the race kind, the form-filter flag and the
/// verdict, with no strings. The SHB pass flags every later conflicting
/// pair, hundreds of thousands per corpus run, and most callers only
/// count them (the wr_prediction row) or sign them (batch ingest), so a
/// full PredictedRace - a copied Location and two Accesses - is built
/// only where a report prints one, by materialize(). The trace the
/// indices point into must outlive the pass.
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

/// One race found by the predictive pass, as event indices into the
/// trace the pass ran over. The location is the second access's: both
/// accesses touch it.
struct PredictedPair {
  uint32_t FirstEvent = 0;  ///< The earlier access's TraceLog::events() index.
  uint32_t SecondEvent = 0; ///< The access whose check flagged the pair.
  RaceKind Kind = RaceKind::Variable;
  /// The form-filter flag: a racing write's operation had read the
  /// location first (Race::WriteHadPriorReadInOp).
  bool WriteHadPriorReadInOp = false;
  PredictionVerdict Verdict = PredictionVerdict::Predicted;
};

static_assert(sizeof(PredictedPair) == 12,
              "a pass holds one pair per finding; keep it two indices and "
              "three bytes");

/// Everything one engine's pass over one trace produced.
struct PredictionPass {
  EngineKind Engine = EngineKind::Shb;
  /// Deduplicated findings in trace order (first flagged occurrence wins).
  std::vector<PredictedPair> Pairs;
  /// Conflicting cross-operation pairs the pass posed to the engine.
  uint64_t PairsChecked = 0;
  /// HB edges the engine's order dropped (WCP weakening; 0 otherwise).
  uint64_t DroppedEdges = 0;
};

/// One race found by the predictive pass, with its location and both
/// accesses copied out of the trace.
struct PredictedRace {
  Race R;
  PredictionVerdict Verdict = PredictionVerdict::Predicted;
};

/// A pass in the report's shape: every pair built into a PredictedRace.
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
PredictionPass predictRaces(const TraceLog &Log, EngineKind Engine,
                            const std::vector<Race> &ObservedRaw);

/// A prediction run: the SHB pass, then the WCP pass, over \p Log, so
/// the report carries the two deltas side by side. Appends each pass to
/// \p Passes and its wr_prediction row to \p Stats.
void predictAll(const TraceLog &Log, const std::vector<Race> &ObservedRaw,
                std::vector<PredictionPass> &Passes, obs::RunStats &Stats);

/// Builds \p Pass's findings into PredictedRaces, in order. \p Log must
/// be the trace the pass ran over.
PredictionResult materialize(const TraceLog &Log, const PredictionPass &Pass);

} // namespace wr::detect

#endif // WEBRACER_DETECT_PREDICTION_H
