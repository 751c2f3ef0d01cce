//===- obs/RunStats.h - Structured statistics of one run --------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured statistics record of one detection run - the paper's
/// per-site evaluation columns (operations, HB edges, races per category,
/// filter attrition, detection overhead) as one mergeable value. This is
/// what SessionResult carries instead of loose counters, what the corpus
/// runner aggregates across sites, and what serializes into the stable
/// "stats" JSON object of every report. That object is the one stats
/// schema: the CLI's --metrics listing is its numeric leaves
/// (RunStats::metrics), and tools/diff_baseline.py compares a corpus
/// report's leaves.
///
/// Everything in RunStats is deterministic for a fixed seed except the
/// wall-clock portion of the phase timers, which toJson() therefore
/// excludes (reports surface wall time in a separate timing section).
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_OBS_RUNSTATS_H
#define WEBRACER_OBS_RUNSTATS_H

#include "obs/Json.h"
#include "obs/PhaseTimer.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wr::obs {

/// Counts by race kind (the paper's four categories, Sec. 2).
struct RaceCounts {
  uint64_t Variable = 0;
  uint64_t Html = 0;
  uint64_t Function = 0;
  uint64_t EventDispatch = 0;

  uint64_t total() const { return Variable + Html + Function + EventDispatch; }

  void merge(const RaceCounts &O) {
    Variable += O.Variable;
    Html += O.Html;
    Function += O.Function;
    EventDispatch += O.EventDispatch;
  }

  bool operator==(const RaceCounts &O) const = default;

  Json toJson() const;
};

/// Where the Sec. 5.3 filter pipeline dropped reports.
struct FilterAttrition {
  uint64_t Input = 0;          ///< Raw races entering the pipeline.
  uint64_t NotFormField = 0;   ///< Variable races off form fields.
  uint64_t PriorReadGuard = 0; ///< Write guarded by a read (refinement).
  uint64_t MultiDispatch = 0;  ///< Event races on multi-dispatch events.
  uint64_t Suppressed = 0;     ///< Matched a user suppression (triage).
  uint64_t Kept = 0;           ///< Races surviving every filter.

  void merge(const FilterAttrition &O) {
    Input += O.Input;
    NotFormField += O.NotFormField;
    PriorReadGuard += O.PriorReadGuard;
    MultiDispatch += O.MultiDispatch;
    Suppressed += O.Suppressed;
    Kept += O.Kept;
  }

  bool operator==(const FilterAttrition &O) const = default;

  Json toJson() const;
};

/// What the sampling layer admitted and dropped (the wr_sampling report
/// group; see sample/Sampling.h). When the layer was off, Enabled is
/// false and toJson() renders nothing, so unsampled reports keep the
/// pre-sampling byte layout. Invariant the sampler maintains (and
/// bench/sampling_recall gates): seen == sampled + dropped per kind.
struct SamplingStats {
  bool Enabled = false; ///< The sampler ran.
  uint64_t RatePpm = 0; ///< Sampling rate in parts-per-million.
  uint64_t SeenReads = 0;
  uint64_t SeenWrites = 0;
  uint64_t SampledReads = 0;
  uint64_t SampledWrites = 0;
  uint64_t DroppedReads = 0;
  uint64_t DroppedWrites = 0;

  bool enabled() const { return Enabled; }

  void merge(const SamplingStats &O) {
    // Corpus sites share one configuration; adopt it from the first
    // enabled record and sum the counters.
    if (!Enabled) {
      Enabled = O.Enabled;
      RatePpm = O.RatePpm;
    }
    SeenReads += O.SeenReads;
    SeenWrites += O.SeenWrites;
    SampledReads += O.SampledReads;
    SampledWrites += O.SampledWrites;
    DroppedReads += O.DroppedReads;
    DroppedWrites += O.DroppedWrites;
  }

  bool operator==(const SamplingStats &O) const = default;

  Json toJson() const;
};

/// A (name, count) pair; used for per-HB-rule edge counts so obs stays
/// independent of the hb layer's enum.
struct NamedCount {
  std::string Name;
  uint64_t Count = 0;

  bool operator==(const NamedCount &O) const = default;
};

/// Predicted-vs-observed race deltas of one predictive pass over a
/// recorded trace (detect/Prediction.h). Engine is the order's report
/// key (shb, wcp) so obs stays independent of the hb layer's enum.
struct PredictionRow {
  std::string Engine;
  uint64_t PairsChecked = 0; ///< Conflicting pairs posed to the engine.
  uint64_t DroppedEdges = 0; ///< HB edges the engine's order dropped.
  uint64_t Candidates = 0;   ///< Deduplicated races the pass flagged.
  uint64_t Observed = 0;     ///< ... of which the observed run also saw.
  RaceCounts Predicted;      ///< Predicted-only races, by kind.

  void merge(const PredictionRow &O) {
    PairsChecked += O.PairsChecked;
    DroppedEdges += O.DroppedEdges;
    Candidates += O.Candidates;
    Observed += O.Observed;
    Predicted.merge(O.Predicted);
  }

  bool operator==(const PredictionRow &O) const = default;

  Json toJson() const;
};

/// The full statistics record of one run (or a merged aggregate of many).
struct RunStats {
  // Happens-before graph.
  uint64_t Operations = 0;
  uint64_t HbEdges = 0;
  std::vector<NamedCount> HbEdgesByRule; ///< Nonzero rules, enum order.

  // Reachability machinery.
  uint64_t ChcQueries = 0;
  uint64_t VcChains = 0;
  uint64_t ClockBytes = 0;   ///< Bytes held by the vector-clock arena.
  uint64_t ClockMerges = 0;  ///< Merges that materialized a clock slab.
  uint64_t SharedClocks = 0; ///< Ops whose clock aliases a predecessor's.

  // Detector.
  uint64_t AccessesSeen = 0;
  uint64_t TrackedLocations = 0;
  uint64_t InternedLocations = 0; ///< Distinct locations in the interner.
  uint64_t InternHits = 0;        ///< Intern lookups that found an id.
  uint64_t EpochHits = 0;         ///< HB questions answered without a CHC query.
  // Adaptive read-epoch representation (the "wr_epochs" report group).
  uint64_t ReadsSeen = 0;           ///< Read accesses among AccessesSeen.
  uint64_t EpochReads = 0;          ///< Reads whose CHC check stayed O(1).
  uint64_t ReadInflations = 0;      ///< Read-state epoch -> vector inflations.
  uint64_t ReadDeflations = 0;      ///< Read-state vector -> empty deflations.
  uint64_t ReadVectorLocations = 0; ///< Locations whose read state ever inflated.
  uint64_t DetectorBytes = 0;       ///< Structural bytes of detector state.
  /// The sampling layer's attrition record (the "wr_sampling" report
  /// group; omitted from toJson() when sampling was off).
  SamplingStats Sampling;
  RaceCounts Raw;
  RaceCounts Filtered;
  FilterAttrition Attrition;
  /// One row per predictive engine that ran (empty when prediction was
  /// off; toJson() then omits the wr_prediction key so existing reports
  /// stay byte-identical). Rows merge by engine name.
  std::vector<PredictionRow> Prediction;

  // Runtime / event loop.
  uint64_t TasksRun = 0;
  uint64_t VirtualTimeUs = 0;
  uint64_t Crashes = 0;
  uint64_t Alerts = 0;
  uint64_t ParseErrors = 0;

  // Exploration.
  uint64_t EventsDispatched = 0;
  uint64_t LinksClicked = 0;
  uint64_t BoxesTyped = 0;

  // Phase accounting (wall portion excluded from toJson()).
  PhaseStats Phases;

  /// Sums \p O into this record. Per-rule counts merge by name; the
  /// result keeps this record's order with unseen names appended, so
  /// merging site records in corpus order is order-insensitive as long
  /// as every site enumerates rules in enum order (they do).
  void merge(const RunStats &O);

  /// The deterministic "stats" object of the report schema: the one list
  /// of report paths, their order and their presence rules.
  Json toJson() const;

  /// The --metrics listing, derived from toJson(): every numeric leaf as
  /// (dotted path, value), plus phases.<p>.wall_ns, which toJson() leaves
  /// out, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> metrics() const;
};

} // namespace wr::obs

#endif // WEBRACER_OBS_RUNSTATS_H
