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
/// The sampler is per-location: a deterministic hash of the LocId against
/// the rate. A location is entirely in or entirely out, so a kept
/// location sees its exact full access history (reader sets and
/// prior-read flags stay exact) and the share of accesses admitted
/// follows the rate. A sampled run's races are therefore exactly the
/// unsampled run's races on the admitted locations
/// (tests/sampling_test.cpp checks this race by race).
///
/// Determinism: the decision is a pure function of (Seed, LocId) and
/// draws no randomness, so site generation and schedules are
/// byte-identical with sampling on or off, and a fixed seed replays the
/// exact drop pattern. Rate 1.0 disables the layer entirely (the
/// detector never constructs a sampler), so full-rate runs are
/// byte-identical to unsampled ones, reports included.
///
/// Soundness: the happens-before graph is built from the full operation
/// and edge stream - sampling gates only the *access* stream - so every
/// race the detector reports is still a genuinely concurrent pair.
/// Sampling can only drop observations; it never invents a race.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_SAMPLE_SAMPLING_H
#define WEBRACER_SAMPLE_SAMPLING_H

#include "mem/Location.h"

#include <cstdint>

namespace wr::sample {

/// Configuration of the sampling layer, threaded through DetectorOptions
/// (and hence SessionOptions / ReplayOptions) and --sample-rate.
struct SamplingOptions {
  /// Fraction of the locations (and so, in expectation, of the access
  /// stream) the detector sees, in [0, 1]. 1.0 means the layer is off
  /// (enabled() is false, no sampler exists).
  double Rate = 1.0;
  /// Hash seed (corpus runs mix the per-site seed in, drawn in corpus
  /// order, so reports stay identical at any --jobs count).
  uint64_t Seed = 1;

  bool enabled() const { return Rate < 1.0; }
};

/// Every decision the sampler made, by access kind; feeds the wr_sampling
/// report group so attrition is never silent. Invariant: Seen* ==
/// Sampled* + Dropped* per kind.
struct SamplerCounters {
  uint64_t SeenReads = 0;
  uint64_t SeenWrites = 0;
  uint64_t SampledReads = 0;
  uint64_t SampledWrites = 0;
  uint64_t DroppedReads = 0;
  uint64_t DroppedWrites = 0;
};

/// The per-access gate. Owned by RaceDetector when sampling is enabled;
/// the detector consults shouldSample() before any per-access work.
class AccessSampler {
public:
  explicit AccessSampler(const SamplingOptions &Opts) : Opts(Opts) {}

  /// Decides whether the detector processes \p A - true iff the hash of
  /// A.Loc passes the rate - and counts the outcome.
  bool shouldSample(const Access &A);

  const SamplerCounters &counters() const { return Counters; }

private:
  SamplingOptions Opts;
  SamplerCounters Counters;
};

} // namespace wr::sample

#endif // WEBRACER_SAMPLE_SAMPLING_H
