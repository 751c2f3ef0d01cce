//===- detect/RaceDetector.h - The WebRacer race detector -------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic race detector of the paper's Section 5.1: per logical
/// location, LastRead and LastWrite slots hold the identifier of the most
/// recent reading/writing operation; an access races with the stored
/// operation when Can-Happen-Concurrently (CHC) holds, i.e., neither is
/// ⊥ and the operations are unordered in happens-before.
///
/// Two modes:
///  * SingleSlot - the paper's constant-space-per-location algorithm,
///    including its known miss (Sec. 5.1 "Limitation": the sequence
///    3·1·2 with 1 -> 2 hides the 2-3 race).
///  * FullHistory - keeps every access per location (a FastTrack-style
///    upper bound); `bench/ablation_detectors` measures what SingleSlot
///    misses and what FullHistory costs.
///
/// Accesses arrive keyed by interned LocId (mem/LocationInterner.h), so
/// all per-location state lives in one dense vector indexed by id. Each
/// slot stores its operation's (chain, position) clock epoch from the
/// HbGraph's clock index, so every CHC question is one O(1) clock probe
/// (see DESIGN.md "Epoch slots"). The reader set of the Sec. 5.3
/// refinement is a sorted InlineVec (deterministic iteration, no heap
/// until a location has three readers). The predictive SHB/WCP orders
/// run in detect/Prediction.h, not here.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_DETECT_RACEDETECTOR_H
#define WEBRACER_DETECT_RACEDETECTOR_H

#include "hb/HbGraph.h"
#include "instr/Instrumentation.h"
#include "mem/Location.h"
#include "mem/LocationInterner.h"
#include "obs/PhaseTimer.h"
#include "obs/RunStats.h"
#include "sample/Sampling.h"
#include "support/InlineVec.h"

#include <memory>
#include <string>
#include <vector>

namespace wr::detect {

/// The four race types of the paper's Section 2.
enum class RaceKind : uint8_t { Variable, Html, Function, EventDispatch };

const char *toString(RaceKind Kind);

/// One reported race. Loc is resolved from the interner at report time,
/// so reports stay self-contained (filters, harm analysis, and JSON
/// rendering never need the interner).
struct Race {
  RaceKind Kind = RaceKind::Variable;
  Location Loc;
  Access First;  ///< The access stored in LastRead/LastWrite.
  Access Second; ///< The access that triggered the report.
  /// True when the racing write's operation read the location before
  /// writing it (the form-filter refinement of Sec. 5.3: such reads often
  /// guard against clobbering user input, making the race harmless).
  bool WriteHadPriorReadInOp = false;
};

/// Detector configuration.
struct DetectorOptions {
  enum class Mode : uint8_t { SingleSlot, FullHistory };
  Mode HistoryMode = Mode::SingleSlot;
  /// Report at most one race per location per run (paper footnote 13).
  bool OnePerLocation = true;
  /// The production-overhead sampling layer (sample/Sampling.h). At the
  /// default rate 1.0 no sampler is constructed and every access reaches
  /// the detector - output is byte-identical to a build without the
  /// layer. Below 1.0 the detector consults the sampler before any
  /// per-access work; dropped accesses cost one location hash and are
  /// counted in the wr_sampling report group.
  sample::SamplingOptions Sampling;
};

/// Classifies a racing access pair into the paper's Section 2 taxonomy
/// (shared by the observed detector and the predictive pass).
RaceKind classifyRace(const Access &First, const Access &Second,
                      const Location &Loc);

/// The dynamic race detector; attach to a Browser as an instrumentation
/// sink. \p Interner must be the interner that assigned the LocIds the
/// sink will observe (the browser's online, the trace's offline) and must
/// outlive the detector, as must \p Hb. Every ordering question is one
/// epoch probe of \p Hb's clock index.
class RaceDetector final : public InstrumentationSink {
public:
  RaceDetector(const HbGraph &Hb, const LocationInterner &Interner,
               DetectorOptions Opts = DetectorOptions())
      : Hb(Hb), Interner(Interner), Opts(Opts) {
    if (Opts.Sampling.enabled())
      Sampler = std::make_unique<sample::AccessSampler>(Opts.Sampling);
  }

  const std::vector<Race> &races() const { return Races; }

  /// Races of one kind.
  size_t countByKind(RaceKind Kind) const;

  /// Number of CHC questions that escalated past an epoch probe to a
  /// graph query. Always 0 - every question is an epoch hit - and kept
  /// so the chc_queries report key keeps its meaning.
  uint64_t chcQueries() const { return 0; }

  /// CHC questions the access stream posed, each answered in O(1):
  /// ⊥-slot answers, same-operation checks, muted locations, and single
  /// epoch probes.
  uint64_t epochHits() const { return EpochHits; }

  /// Number of instrumented accesses processed (accesses the sampling
  /// layer dropped are excluded - they count in samplingStats() only).
  uint64_t accessesSeen() const { return AccessesSeen; }

  /// The sampling layer, or null when Sampling.Rate is 1.0.
  const sample::AccessSampler *sampler() const { return Sampler.get(); }

  /// The wr_sampling report group: rate, and every seen / sampled /
  /// dropped count. Disabled (omitted from reports) when no sampler
  /// exists, so unsampled runs keep the pre-sampling byte layout.
  obs::SamplingStats samplingStats() const;

  /// Read accesses among accessesSeen().
  uint64_t readsSeen() const { return ReadsSeen; }

  /// Always 0: the detector keeps no adaptive read state. A shim kept
  /// only for bench/perf's detect.read_inflations counter.
  uint64_t readInflations() const { return 0; }

  /// Structural bytes the detector currently holds: the dense per-location
  /// table plus all reader-set and history heap storage. Access
  /// Detail strings are excluded - this measures the representation, not
  /// the payload.
  uint64_t detectorBytes() const;

  /// Attaches a phase accumulator; access processing then bills its wall
  /// time to obs::Phase::Detect. Null (the default) disables timing.
  void setPhaseStats(obs::PhaseStats *Stats) { Phases = Stats; }

  /// Number of distinct locations tracked (== locations with at least one
  /// access seen).
  size_t trackedLocations() const { return Tracked; }

  void onMemoryAccess(const Access &A) override;

private:
  struct Slot {
    OpId Op = InvalidOpId;
    /// The op's clock epoch, recorded at store time.
    ClockEpoch E;
    Access A;
    /// For writes: had the writing op read this location first?
    bool HadPriorRead = false;
  };

  /// All per-location detector state, one vector element per LocId.
  struct LocState {
    Slot LastRead;
    Slot LastWrite;
    /// Operations that read this location, sorted (the Sec. 5.3
    /// prior-read metadata). Exact, because inline dispatch nests
    /// operations: a later-streamed access can belong to an earlier
    /// operation, so LastRead alone cannot answer membership.
    InlineVec<OpId, 2> Readers;
    bool Touched = false;  ///< Any access seen (tracked-locations count).
    bool Reported = false; ///< One-per-location race already emitted.
    /// FullHistory mode keeps every access (allocated on first use so
    /// single-slot locations pay one pointer).
    std::unique_ptr<std::vector<Slot>> History;
  };

  /// Makes \p Op the current operation, fetching its epoch once (ops
  /// stream their accesses contiguously except across inline-dispatch
  /// splits, which re-fetch). The fetch also builds the clock index up
  /// to \p Op, which every probe of the access relies on.
  void enterOp(OpId Op);
  LocState &state(LocId Id);
  /// CHC between a stored prior slot and the current operation: the one
  /// CHC question, answered by one epoch probe.
  bool priorConcurrent(const Slot &S, OpId Current);
  void report(LocState &St, const Slot &Prior, const Access &Current);
  /// One CHC question: \p A against the stored slot \p Prior, answered
  /// by an unset slot, the same operation, or one epoch probe. Reports
  /// and returns true when they race.
  bool raceWithSlot(LocState &St, const Slot &Prior, const Access &A);
  /// True iff \p Op is in the sorted reader set.
  static bool isReader(const LocState &St, OpId Op);

  const HbGraph &Hb;
  const LocationInterner &Interner;
  DetectorOptions Opts;
  /// Non-null iff Opts.Sampling.enabled(): the per-access gate.
  std::unique_ptr<sample::AccessSampler> Sampler;

  std::vector<LocState> Locs;
  size_t Tracked = 0;

  /// The current access's operation and epoch (see enterOp).
  OpId CurOp = InvalidOpId;
  ClockEpoch CurEpoch;

  std::vector<Race> Races;
  uint64_t EpochHits = 0;
  uint64_t AccessesSeen = 0;
  uint64_t ReadsSeen = 0;
  obs::PhaseStats *Phases = nullptr;
};

/// Copies the graph and detector counters of one run into \p S: the one
/// collector the online session and the offline replay share. The
/// intern counters stay with the callers - online the browser probes its
/// interner per access, offline the trace's interner is prepopulated.
void collectStats(const HbGraph &Hb, const RaceDetector &D,
                  obs::RunStats &S);

} // namespace wr::detect

#endif // WEBRACER_DETECT_RACEDETECTOR_H
