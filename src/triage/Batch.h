//===- triage/Batch.h - Deduplicating batch trace ingest --------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet-ingest mode: consume a directory of recorded WRT traces,
/// replay each through the offline detection pipeline, and collapse the
/// per-trace race reports into one ranked, deduplicated report keyed by
/// structural signature (triage/Signature.h). This is the ROADMAP's
/// "same Southwest-form race from 10^6 user traces must become one
/// actionable report" item.
///
/// With prediction on, ingest replays the observed run alone and runs the
/// SHB and WCP passes itself on the decoded trace: a pass keeps each
/// finding as an event-index pair (detect/Prediction.h), and ingest signs
/// each predicted-only pair from the trace's own events and location
/// table, so the tens of thousands of findings per trace never become
/// Race objects.
///
/// Determinism: trace files are sorted by path before any work starts,
/// per-trace results land in input-order slots (support/WorkerPool.h,
/// shared with the corpus runner: workers claim indices through an
/// atomic counter and never touch shared aggregates), and the merge walks
/// the slots sequentially. Group rank is (occurrences desc, signature
/// text asc).
/// The emitted report is therefore byte-identical at any --jobs count.
///
/// Attrition is never silent: unreadable traces are reported per path,
/// suppression drops land in each trace's (and the aggregate's)
/// FilterAttrition, per-entry suppression hit counts are merged, and
/// entries that matched nothing across the whole batch are listed as
/// unmatched.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_TRIAGE_BATCH_H
#define WEBRACER_TRIAGE_BATCH_H

#include "detect/TraceReplay.h"
#include "obs/Json.h"
#include "obs/RunStats.h"
#include "triage/Signature.h"
#include "triage/Suppression.h"

#include <string>
#include <vector>

namespace wr::triage {

/// Configuration for one batch run.
struct BatchOptions {
  /// Worker threads; 0 uses the hardware concurrency. The report is
  /// byte-identical for every value.
  unsigned Jobs = 1;
  /// Per-trace replay configuration. With Predict set, ingest runs the
  /// prediction passes itself on the decoded trace (see the file comment).
  detect::ReplayOptions Replay;
  /// Optional suppressions; applied to observed and predicted races
  /// alike. Must outlive the run.
  const SuppressionFile *Suppressions = nullptr;
};

/// A signature plus the human-readable location of a concrete witness.
struct WitnessRace {
  RaceSignature Sig;
  std::string Location;
};

/// What one trace file contributed.
///
/// Kept races are few and each carries its own witness. Predicted-only
/// findings run to thousands per trace over a handful of signatures, so
/// each one is stored as a 32-bit index into PredictedSignatures: the
/// trace's distinct predicted signatures, in order of first finding, each
/// with the location of that first finding. Both lists exclude suppressed
/// races.
struct TraceIngest {
  std::string Path;
  bool Ok = false;
  std::string Error; ///< Read/decode failure diagnostic when !Ok.
  obs::RunStats Stats;
  std::vector<WitnessRace> Kept; ///< Post-filter, post-suppression.
  /// Predicted-only findings: one index into PredictedSignatures each.
  std::vector<uint32_t> Predicted;
  std::vector<WitnessRace> PredictedSignatures; ///< Distinct, first-seen.
  uint64_t Suppressed = 0; ///< Observed + predicted drops.
  std::vector<uint64_t> SuppressionHits; ///< Per suppression entry.
};

/// One deduplicated signature across the batch.
struct SignatureGroup {
  RaceSignature Sig;
  uint64_t Occurrences = 0;          ///< Kept observed races collapsing here.
  uint64_t PredictedOccurrences = 0; ///< Predicted-only findings.
  uint64_t Traces = 0;               ///< Distinct traces contributing.
  std::string FirstWitness;          ///< Path of the first contributing trace.
  std::string ExampleLocation;       ///< Concrete location at that witness.
};

/// Everything a batch run produced.
struct BatchResult {
  std::vector<TraceIngest> Traces; ///< Input order (sorted by path).
  std::vector<SignatureGroup> Groups; ///< Ranked.
  obs::RunStats Aggregate;            ///< Merge of every Ok trace's stats.
  uint64_t TracesOk = 0;
  uint64_t TracesFailed = 0;
  uint64_t TotalKept = 0;       ///< == sum of Groups[i].Occurrences.
  uint64_t TotalPredicted = 0;  ///< == sum of PredictedOccurrences.
  uint64_t TotalSuppressed = 0;
  std::vector<uint64_t> SuppressionHits;        ///< Merged per entry.
  std::vector<std::string> UnmatchedSuppressions; ///< Zero-hit entry names.
};

/// Lists the .wrt files directly inside \p Dir, sorted by path. Returns
/// false with \p Error set when \p Dir is not a readable directory.
bool listTraceFiles(const std::string &Dir, std::vector<std::string> &Out,
                    std::string &Error);

/// Ingests one trace file: read, decode, replay, filter, sign, suppress.
/// Signing goes through one SignatureTable per trace, so suppressions are
/// matched once per distinct signature (hits still count per race).
TraceIngest ingestTraceFile(const std::string &Path,
                            const BatchOptions &Opts);

/// Runs the full batch over \p Paths (processed in the given order; sort
/// first for path-independent output - listTraceFiles already does).
BatchResult runBatch(const std::vector<std::string> &Paths,
                     const BatchOptions &Opts);

/// The deterministic schema-1 report document (kind "batch").
obs::Json buildBatchReport(const std::string &Name, const BatchResult &R);

} // namespace wr::triage

#endif // WEBRACER_TRIAGE_BATCH_H
