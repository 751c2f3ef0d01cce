//===- sites/CorpusRunner.cpp - Run WebRacer over a corpus ---------------------===//

#include "sites/CorpusRunner.h"

#include "support/WorkerPool.h"

#include <algorithm>

using namespace wr;
using namespace wr::sites;
using wr::detect::RaceKind;

SiteRunStats wr::sites::runSite(const GeneratedSite &Site,
                                const webracer::SessionOptions &Base,
                                uint64_t SiteSeed) {
  webracer::SessionOptions Opts = Base;
  Opts.Browser.Seed = SiteSeed;
  // Give each site its own sampling stream, keyed off the pre-drawn site
  // seed: seeds are drawn in corpus order before any site runs, so the
  // drop pattern (and hence every report byte) is identical at any
  // --jobs count.
  if (Opts.Detector.Sampling.enabled())
    Opts.Detector.Sampling.Seed ^= SiteSeed;
  // Corpus pages run a few hundred operations; pre-size the HB tables so
  // every site skips the doubling-growth phase of addOperation.
  if (Opts.ExpectedOperations == 0)
    Opts.ExpectedOperations = 512;
  webracer::Session S(Opts);
  S.network().addResource(Site.IndexUrl, Site.Html, 10);
  for (const SiteResource &R : Site.Resources)
    S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                      R.MaxLatencyUs);
  webracer::SessionResult Result = S.run(Site.IndexUrl);

  SiteRunStats Stats;
  Stats.Name = Site.Name;
  Stats.Raw = detect::tally(Result.RawRaces);
  Stats.Filtered = detect::tally(Result.FilteredRaces);
  Stats.Expected = Site.Expected;

  // Static side of the corpus cross-check: analyze the same bytes
  // without executing, then score predictions against the raw dynamic
  // races (mapped while the session's browser is still alive).
  analysis::StaticAnalysis Static =
      analysis::analyzePage(Site.Html, [&Site](const std::string &Url)
                                -> std::optional<std::string> {
        for (const SiteResource &R : Site.Resources)
          if (R.Url == Url)
            return R.Body;
        return std::nullopt;
      });
  std::vector<analysis::MappedDynamicRace> Mapped =
      analysis::mapDynamicRaces(Result.RawRaces, S.browser());
  Stats.Static = analysis::tallyPrecision(Static.Races, Mapped,
                                          /*Confirmed=*/nullptr,
                                          /*Refuted=*/nullptr);

  // Sign the kept races now, while the session's HB graph is still
  // alive - the signature is the only race identity that survives the
  // browser (and is stable across seeds and job counts).
  Stats.Signatures.reserve(Result.FilteredRaces.size());
  for (const detect::Race &R : Result.FilteredRaces)
    Stats.Signatures.push_back(
        triage::computeSignature(R, S.browser().hb()));
  Stats.SuppressionHits = std::move(Result.SuppressionHits);

  Stats.Stats = std::move(Result.Stats);
  Stats.FilteredRaces = std::move(Result.FilteredRaces);
  return Stats;
}

CorpusStats wr::sites::runCorpus(const std::vector<GeneratedSite> &Corpus,
                                 const webracer::SessionOptions &Base,
                                 uint64_t Seed, unsigned Jobs) {
  CorpusStats Stats;
  // Seeds are drawn in corpus order regardless of job count, so site i
  // always gets the seed the serial run would give it.
  Rng SeedGen(Seed);
  std::vector<uint64_t> Seeds;
  Seeds.reserve(Corpus.size());
  for (size_t I = 0; I < Corpus.size(); ++I)
    Seeds.push_back(SeedGen.next());

  // Sites land in corpus-order slots, so aggregation never depends on
  // completion order.
  Stats.Sites.resize(Corpus.size());
  support::forEachIndex(Corpus.size(), Jobs, [&](size_t I) {
    Stats.Sites[I] = runSite(Corpus[I], Base, Seeds[I]);
  });
  return Stats;
}

static CorpusStats::Distribution
distributionOf(std::vector<size_t> Counts) {
  CorpusStats::Distribution D;
  if (Counts.empty())
    return D;
  std::sort(Counts.begin(), Counts.end());
  double Sum = 0;
  for (size_t C : Counts)
    Sum += static_cast<double>(C);
  D.Mean = Sum / static_cast<double>(Counts.size());
  size_t N = Counts.size();
  D.Median = (N % 2 == 1)
                 ? static_cast<double>(Counts[N / 2])
                 : (static_cast<double>(Counts[N / 2 - 1]) +
                    static_cast<double>(Counts[N / 2])) /
                       2.0;
  D.Max = Counts.back();
  return D;
}

CorpusStats::Distribution
CorpusStats::rawDistribution(RaceKind Kind) const {
  std::vector<size_t> Counts;
  Counts.reserve(Sites.size());
  for (const SiteRunStats &S : Sites)
    Counts.push_back(S.Raw[Kind]);
  return distributionOf(std::move(Counts));
}

CorpusStats::Distribution CorpusStats::rawTotalDistribution() const {
  std::vector<size_t> Counts;
  Counts.reserve(Sites.size());
  for (const SiteRunStats &S : Sites)
    Counts.push_back(S.Raw.total());
  return distributionOf(std::move(Counts));
}

detect::RaceTally CorpusStats::filteredTotals() const {
  detect::RaceTally T;
  for (const SiteRunStats &S : Sites) {
    T.Variable += S.Filtered.Variable;
    T.Html += S.Filtered.Html;
    T.Function += S.Filtered.Function;
    T.EventDispatch += S.Filtered.EventDispatch;
  }
  return T;
}

analysis::StaticPrecision CorpusStats::staticTotals() const {
  analysis::StaticPrecision T;
  for (const SiteRunStats &S : Sites)
    T.merge(S.Static);
  return T;
}

obs::RunStats CorpusStats::aggregate() const {
  obs::RunStats Total;
  for (const SiteRunStats &S : Sites)
    Total.merge(S.Stats);
  return Total;
}

std::vector<uint64_t> CorpusStats::suppressionHits() const {
  std::vector<uint64_t> Total;
  for (const SiteRunStats &S : Sites) {
    if (S.SuppressionHits.size() > Total.size())
      Total.resize(S.SuppressionHits.size(), 0);
    for (size_t I = 0; I < S.SuppressionHits.size(); ++I)
      Total[I] += S.SuppressionHits[I];
  }
  return Total;
}
