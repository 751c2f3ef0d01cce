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
/// all per-location state lives in one dense vector indexed by id. Per
/// location the detector keeps the adaptive VerifiedFT-v2-style epoch
/// representation (see DESIGN.md "Adaptive epochs"): each slot stores the
/// operation's (chain, position) clock epoch from the HbGraph's clock
/// index, so every CHC question is one O(1) clock probe, and the
/// active-read state is a single read epoch in the common case, inflated
/// to a compact sorted read vector only when a concurrent read arrives
/// and deflated back to the epoch form by a dominating write. The reader
/// set is a sorted InlineVec (deterministic iteration, no heap in the
/// common case), so per-tracked-location memory is O(1) unless a
/// location actually sees concurrent readers. The predictive SHB/WCP
/// orders run in detect/Prediction.h, not here.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_DETECT_RACEDETECTOR_H
#define WEBRACER_DETECT_RACEDETECTOR_H

#include "hb/HbGraph.h"
#include "hb/PartialOrderEngine.h"
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
  /// Which partial order the analysis runs over. The observed-race pass
  /// always probes the happens-before graph it was constructed with;
  /// Shb/Wcp select the predictive engine used when replaying or
  /// predicting over a recorded trace (detect/Prediction.h).
  EngineKind Engine = EngineKind::Hb;
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
  /// ⊥-slot answers, same-operation checks, muted locations, single
  /// epoch probes, and deflation-covered read checks.
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

  /// Read accesses whose CHC question (vs the last write) was answered
  /// on the epoch path: every read. The epoch-path read rate
  /// epochReads() / readsSeen() is gated >= 90% by bench/hb_scaling.
  uint64_t epochReads() const { return ReadsSeen; }

  /// Epoch -> vector transitions of the per-location read state (a read
  /// concurrent with the stored read epoch arrived).
  uint64_t readInflations() const { return ReadInflations; }

  /// Vector -> empty collapses of an inflated read state (a write
  /// dominated every stored read epoch).
  uint64_t readDeflations() const { return ReadDeflations; }

  /// Locations whose read state ever inflated to the vector form; the
  /// O(1)-common-case memory claim is this staying a small fraction of
  /// trackedLocations() (bench/hb_scaling gates < 10% on the corpus).
  size_t readVectorLocations() const;

  /// Structural bytes the detector currently holds: the dense per-location
  /// table plus all reader/read-vector/history heap storage. Access
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

  /// One entry of the active-read state: a reading op and its epoch.
  struct ReadEntry {
    OpId Op = InvalidOpId;
    ClockEpoch E;
  };

  /// Shape of the active-read state (the VerifiedFT-v2 adaptive
  /// representation). Maintained in single-slot mode; race checks never
  /// read it - it drives the deflation fast path and the memory
  /// accounting.
  enum class ReadRep : uint8_t {
    Empty,  ///< No undominated read (initial, or after deflation).
    Epoch,  ///< One read epoch (ReadVec holds exactly one entry).
    Vector, ///< Concurrent reads: sorted epoch vector (inflated).
  };

  /// All per-location detector state, one vector element per LocId.
  struct LocState {
    Slot LastRead;
    Slot LastWrite;
    /// Active-read state: the entries whose epochs are not yet dominated
    /// by a write, sorted by OpId. Inline room for two - inflation
    /// itself needs no heap until a third concurrent reader shows up.
    InlineVec<ReadEntry, 2> ReadVec;
    /// Operations that read this location, sorted (form-filter
    /// refinement metadata; exact, because inline dispatch nests
    /// operations - see DESIGN.md "Adaptive epochs" for why this set
    /// never deflates).
    InlineVec<OpId, 2> Readers;
    ReadRep Rep = ReadRep::Empty;
    bool Touched = false;  ///< Any access seen (tracked-locations count).
    bool Reported = false; ///< One-per-location race already emitted.
    /// Read state ever reached the vector form (readVectorLocations()).
    bool EverInflated = false;
    /// Rep == Empty because a write dominated every active read, and
    /// every write stored since was ordered after that write - so all
    /// reads are ordered before LastWrite and a write ordered after
    /// LastWrite needs no read probe at all.
    bool ReadsCovered = false;
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
  /// Read-side maintenance of the adaptive read state (slide / inflate).
  void noteRead(LocState &St, const Access &A);
  /// Write-side maintenance: deflate when the write dominates every
  /// active read epoch; propagate the ReadsCovered invariant.
  void noteWrite(LocState &St, const Access &A, bool OrderedAfterLastWrite);
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
  uint64_t ReadInflations = 0;
  uint64_t ReadDeflations = 0;
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
