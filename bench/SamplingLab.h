//===- bench/SamplingLab.h - Shared sampling-frontier helpers ---*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement core shared by bench/sampling_recall (the tier-1
/// gates) and bench/perf_overhead (the full recall-vs-rate frontier
/// table): run the synthetic corpus under one sampling configuration,
/// key every kept race by site + structural signature, and score recall
/// against the unsampled baseline. Races are identified by signature,
/// not by index - sampling can reorder which access becomes the recorded
/// witness, and the signature is the identity that survives that.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_BENCH_SAMPLINGLAB_H
#define WEBRACER_BENCH_SAMPLINGLAB_H

#include "sample/Sampling.h"
#include "sites/Corpus.h"
#include "sites/CorpusRunner.h"
#include "webracer/Session.h"

#include <set>
#include <string>
#include <vector>

namespace wr::bench {

/// Site-qualified signature keys of every filtered race in \p Stats.
/// The site name prefixes the key so the same structural pattern found
/// on two sites counts as two recall units, matching how the corpus
/// seeds expected races per site.
inline std::set<std::string> raceKeys(const sites::CorpusStats &Stats) {
  std::set<std::string> Keys;
  for (const sites::SiteRunStats &Site : Stats.Sites)
    for (const triage::RaceSignature &Sig : Site.Signatures)
      Keys.insert(Site.Name + "|" + Sig.text());
  return Keys;
}

/// One measured cell of the recall frontier.
struct RecallCell {
  double Rate = 1.0;
  size_t BaselineRaces = 0; ///< Distinct keys in the unsampled run.
  size_t FoundRaces = 0;    ///< Distinct keys in the sampled run.
  size_t MatchedRaces = 0;  ///< Intersection with the baseline.
  double Recall = 1.0;      ///< Matched / Baseline (1 when empty).
  uint64_t SeenAccesses = 0;
  uint64_t SampledAccesses = 0;
  uint64_t DroppedAccesses = 0;
  uint64_t DetectorAccesses = 0; ///< The run's aggregate AccessesSeen.
  bool ReconcileOk = false; ///< seen == sampled + dropped, exactly.
};

/// Runs \p Corpus under \p Sampling and scores the cell against
/// \p BaselineKeys (the unsampled run's keys, from raceKeys).
inline RecallCell runCell(const std::vector<sites::GeneratedSite> &Corpus,
                          const sample::SamplingOptions &Sampling,
                          uint64_t Seed, unsigned Jobs,
                          const std::set<std::string> &BaselineKeys) {
  webracer::SessionOptions Opts;
  Opts.Detector.Sampling = Sampling;
  Opts.Detector.Sampling.Seed = Seed;
  sites::CorpusStats Stats = sites::runCorpus(Corpus, Opts, Seed, Jobs);

  RecallCell Cell;
  Cell.Rate = Sampling.Rate;
  Cell.BaselineRaces = BaselineKeys.size();
  std::set<std::string> Found = raceKeys(Stats);
  Cell.FoundRaces = Found.size();
  for (const std::string &Key : Found)
    Cell.MatchedRaces += BaselineKeys.count(Key);
  Cell.Recall = BaselineKeys.empty()
                    ? 1.0
                    : static_cast<double>(Cell.MatchedRaces) /
                          static_cast<double>(BaselineKeys.size());

  obs::RunStats Agg = Stats.aggregate();
  const obs::SamplingStats &S = Agg.Sampling;
  Cell.SeenAccesses = S.SeenReads + S.SeenWrites;
  Cell.SampledAccesses = S.SampledReads + S.SampledWrites;
  Cell.DroppedAccesses = S.DroppedReads + S.DroppedWrites;
  Cell.DetectorAccesses = Agg.AccessesSeen;
  // Rate 1.0 bypasses the sampler entirely (no wr_sampling record), so
  // reconciliation degenerates to all-zero on that row - still exact.
  Cell.ReconcileOk =
      Cell.SeenAccesses == Cell.SampledAccesses + Cell.DroppedAccesses;
  return Cell;
}

} // namespace wr::bench

#endif // WEBRACER_BENCH_SAMPLINGLAB_H
