//===- sample/Sampling.h - Access-stream sampling layer ---------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production-overhead sampling layer: a per-access gate in front of
/// the race detector that decides which accesses the detector sees. The
/// paper's Sec. 6 bottleneck is instrumentation overhead (~500x on heavy
/// JavaScript); at fleet scale the question becomes what recall survives
/// when only a fraction of the access stream can be observed
/// ("Dynamic Race Detection with O(1) Samples", PAPERS.md).
///
/// Three strategies:
///
///  * PerLocation - a deterministic hash of the LocId against the rate:
///    a location is entirely in or entirely out, so kept locations see
///    their exact full access history (reader sets and prior-read flags
///    stay exact) and expected recall tracks the rate. The baseline of
///    the frontier.
///  * PerPair - samples the (prior-writer, current-op) pair space, the
///    RPT idea: every pair of a location's access stream gets an
///    independent chance, so hot locations cannot monopolize the budget.
///    The pair is keyed on the two operations' (chain, pos) clock epochs
///    (ClockEpoch::packed()), making keys stable across OpId numbering.
///  * Adaptive - cold-region biasing: a location's first ColdAccesses
///    accesses always pass, a location whose read state inflated or
///    which raced gets a HotBudget-access window (decaying per access),
///    and everything else falls back to a rate-biased coin from the
///    sampler's own RNG stream.
///
/// Determinism: the sampler draws randomness only from its own
/// Rng::fork() stream seeded by SamplingOptions::Seed - never from the
/// browser's generator - so site generation and schedules are
/// byte-identical with sampling on or off, and a fixed seed replays the
/// exact drop pattern. Rate 1.0 disables the layer entirely (the
/// detector never constructs a sampler), so full-rate runs are
/// byte-identical to unsampled ones, reports included.
///
/// Soundness: the happens-before graph is built from the full operation
/// and edge stream - sampling gates only the *access* stream - so every
/// race the detector reports is still a genuinely concurrent pair.
/// Sampling can only drop observations (and can shift which witness pair
/// the single-slot algorithm stores); it never invents a race.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_SAMPLE_SAMPLING_H
#define WEBRACER_SAMPLE_SAMPLING_H

#include "hb/HbGraph.h"
#include "mem/Location.h"
#include "support/Rng.h"

#include <cstdint>
#include <vector>

namespace wr::sample {

/// The pluggable sampling strategies (CLI spellings in toString()).
enum class SamplingStrategy : uint8_t { PerLocation, PerPair, Adaptive };

const char *toString(SamplingStrategy S);

/// Parses a CLI spelling; false (leaving \p Out untouched) when \p Name
/// names no strategy.
bool parseSamplingStrategy(const char *Name, SamplingStrategy &Out);

/// Configuration of the sampling layer, threaded through DetectorOptions
/// (and hence SessionOptions / ReplayOptions) and the --sample-* flags.
struct SamplingOptions {
  SamplingStrategy Strategy = SamplingStrategy::Adaptive;
  /// Fraction of the access stream the detector sees, in [0, 1]. 1.0
  /// means the layer is off (enabled() is false, no sampler exists).
  double Rate = 1.0;
  /// Seed of the sampler's private RNG stream (corpus runs mix the
  /// per-site seed in, drawn in corpus order, so reports stay identical
  /// at any --jobs count).
  uint64_t Seed = 1;
  /// Adaptive: a location's first ColdAccesses accesses always pass.
  uint32_t ColdAccesses = 4;
  /// Adaptive: accesses granted by one inflation/race heat event.
  uint32_t HotBudget = 64;

  bool enabled() const { return Rate < 1.0; }
};

/// Every decision the sampler made, by access kind and by the reason an
/// access passed; feeds the wr_sampling report group so attrition is
/// never silent. Invariants: Seen* == Sampled* + Dropped* per kind, and
/// the pass-reason counters sum to SampledReads + SampledWrites.
struct SamplerCounters {
  uint64_t SeenReads = 0;
  uint64_t SeenWrites = 0;
  uint64_t SampledReads = 0;
  uint64_t SampledWrites = 0;
  uint64_t DroppedReads = 0;
  uint64_t DroppedWrites = 0;
  // Pass reasons (which rule admitted a sampled access).
  uint64_t LocationPass = 0; ///< Per-location: the LocId hash passed.
  uint64_t PairPass = 0;     ///< Per-pair: the pair hash passed (or no prior).
  uint64_t ColdPass = 0;     ///< Adaptive: within the first-K cold window.
  uint64_t HotPass = 0;      ///< Adaptive: a hot location's budget passed it.
  uint64_t RngPass = 0;      ///< Adaptive: the background coin passed it.
  uint64_t HotLocations = 0; ///< Adaptive: locations ever marked hot.
};

/// The per-access gate. Owned by RaceDetector when sampling is enabled;
/// the detector consults shouldSample() before any per-access work and
/// feeds heat back through noteInflation()/noteRace().
class AccessSampler {
public:
  explicit AccessSampler(const SamplingOptions &Opts);

  /// Decides whether the detector processes \p A and counts the outcome.
  /// \p PriorWriteOp / \p PriorWriteEpoch describe the operation stored
  /// in the location's last-write slot (InvalidOpId / default epoch when
  /// none); \p CurEpoch is the current op's epoch. Only the per-pair
  /// strategy reads them.
  bool shouldSample(const Access &A, OpId PriorWriteOp,
                    ClockEpoch PriorWriteEpoch, ClockEpoch CurEpoch);

  /// Heat feedback: \p Loc's read state inflated (concurrent readers).
  void noteInflation(LocId Loc) { markHot(Loc); }

  /// Heat feedback: \p Loc raced.
  void noteRace(LocId Loc) { markHot(Loc); }

  const SamplerCounters &counters() const { return Counters; }
  const SamplingOptions &options() const { return Opts; }

  /// Structural bytes of the sampler's per-location heat table.
  uint64_t samplerBytes() const;

private:
  /// Per-location adaptive state (indexed by LocId, grown on demand).
  struct LocHeat {
    uint32_t Seen = 0;   ///< Accesses seen, saturating at ColdAccesses.
    uint32_t Budget = 0; ///< Remaining hot-window accesses.
    bool EverHot = false;
  };

  bool decide(const Access &A, OpId PriorWriteOp, ClockEpoch PriorWriteEpoch,
              ClockEpoch CurEpoch);
  LocHeat &heat(LocId Id);
  void markHot(LocId Loc);
  /// Maps a 64-bit hash onto [0, 1) and compares against the rate (the
  /// same 53-bit mapping Rng::nextDouble uses, so a rate of 1.0 would
  /// pass everything and 0.0 nothing).
  bool hashPasses(uint64_t H) const;

  SamplingOptions Opts;
  Rng Stream; ///< The sampler's private stream (adaptive's coin).
  std::vector<LocHeat> Heat;
  SamplerCounters Counters;
};

} // namespace wr::sample

#endif // WEBRACER_SAMPLE_SAMPLING_H
