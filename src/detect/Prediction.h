//===- detect/Prediction.h - Predictive races over a trace ------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The predictive race pass: replays a recorded trace's event stream
/// through the predictive orders (hb/PredictiveEngine.h) and reports every
/// conflicting access pair an order leaves unordered - including races
/// *after* the first one per location, which the paper's single-slot
/// online detector never sees. A prediction run (predictAll) walks the
/// trace once and feeds every event to both orders, SHB and WCP, and
/// hands out one pass per order, SHB first. Each access is checked
/// against the location's history *before* the engines apply the
/// access's own update (SHB's check-then-update discipline), so under the
/// SHB order every reported pair is a race in some feasible schedule of
/// the recorded execution.
///
/// Findings are unique per (location, operation pair) and labeled: a pair
/// the observed run also reported is Observed; everything else is
/// Predicted - the per-trace value the engine adds over the single
/// observed schedule. The orders' clocks only grow, so a pair's verdict
/// can only move from concurrent to ordered, and only a pair's first
/// check at a location can find it: the walk poses each (location, pair)
/// once, at that check, and needs no set of the findings so far
/// (DESIGN.md "Predictive orders").
///
/// The walk's bookkeeping is flat and per trace. A pre-pass counts each
/// location's runs of accesses by one operation, which bounds its
/// per-operation records, so every location's records and writer list
/// are slices of two arrays sized once, and a loop re-reading one
/// location costs no slots. A record carries the facts a finding needs from the prior
/// access - its event index and whether it hoisted a function
/// declaration - so a scan never reads a prior event, and the location
/// keeps its race kinds and its range of observed races, so labeling a
/// finding probes no map.
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
  /// One finding per (location, operation pair), in trace order, at the
  /// pair's first check.
  std::vector<PredictedPair> Pairs;
  /// Conflicting cross-operation access pairs the pass checked: for each
  /// access, the location's earlier conflicting accesses by other ops.
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
  /// One race per (location, operation pair), in trace order.
  std::vector<PredictedRace> Races;
  /// Conflicting cross-operation access pairs the pass checked: for each
  /// access, the location's earlier conflicting accesses by other ops.
  uint64_t PairsChecked = 0;
  /// HB edges the engine's order dropped (WCP weakening; 0 otherwise).
  uint64_t DroppedEdges = 0;

  size_t observedMatched() const;
  size_t predictedCount() const;
};

/// A prediction run over \p Log: one walk that yields the SHB pass and
/// the WCP pass, so the report carries the two deltas side by side.
/// Appends each pass, SHB first, to \p Passes and its wr_prediction row
/// to \p Stats. \p ObservedRaw is the observed run's raw race list
/// (online or replayed); it only labels verdicts, it never adds races.
void predictAll(const TraceLog &Log, const std::vector<Race> &ObservedRaw,
                std::vector<PredictionPass> &Passes, obs::RunStats &Stats);

/// Builds \p Pass's findings into PredictedRaces, in order. \p Log must
/// be the trace the pass ran over.
PredictionResult materialize(const TraceLog &Log, const PredictionPass &Pass);

} // namespace wr::detect

#endif // WEBRACER_DETECT_PREDICTION_H
