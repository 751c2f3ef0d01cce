//===- bench/race_prediction.cpp - Predictive-engine dominance gate -----------===//
//
// The acceptance gate for the SHB and WCP predictive passes:
//
//  1. On each seeded prediction pattern (a single-pattern site), SHB
//     strictly dominates the first-race-only observed run: every race
//     the online single-slot detector reported is re-found, plus at
//     least one predicted race the observed run missed.
//
//  2. WCP's findings are a superset of SHB's - per seeded site by
//     (location, operation-pair) key, and corpus-wide by the headline
//     counters (candidates and predicted, per site).
//
//  3. The predictive orders leave the observed run alone: the fig1-fig5
//     run reports without prediction are byte-identical to the
//     checked-in golden file (tests/golden/fig_reports.json).
//
// Usage: race_prediction [--quick]   (--quick runs a 25-site corpus)
//
//===----------------------------------------------------------------------===//

#include "analysis/Scenarios.h"
#include "obs/Json.h"
#include "sites/CorpusRunner.h"
#include "webracer/RunReport.h"
#include "webracer/Session.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

using namespace wr;
using namespace wr::detect;

namespace {

webracer::SessionResult runSpec(const sites::SiteSpec &Spec,
                                webracer::SessionOptions Opts) {
  sites::GeneratedSite Site = sites::buildSite(Spec);
  webracer::Session S(Opts);
  S.network().addResource(Site.IndexUrl, Site.Html, 10);
  for (const sites::SiteResource &R : Site.Resources)
    S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                      R.MaxLatencyUs);
  return S.run(Site.IndexUrl);
}

const PredictionResult *findEngine(const webracer::SessionResult &R,
                                   EngineKind Kind) {
  for (const PredictionResult &P : R.Predictions)
    if (P.Engine == Kind)
      return &P;
  return nullptr;
}

using RaceKey = std::tuple<std::string, OpId, OpId>;

std::set<RaceKey> keysOf(const PredictionResult &P) {
  std::set<RaceKey> Keys;
  for (const PredictedRace &PR : P.Races)
    Keys.insert({toString(PR.R.Loc), std::min(PR.R.First.Op, PR.R.Second.Op),
                 std::max(PR.R.First.Op, PR.R.Second.Op)});
  return Keys;
}

const obs::PredictionRow *findRow(const obs::RunStats &Stats,
                                  const char *Engine) {
  for (const obs::PredictionRow &Row : Stats.Prediction)
    if (Row.Engine == Engine)
      return &Row;
  return nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--quick") == 0)
      Quick = true;

  std::printf("== Race-prediction gate (SHB / WCP engines) ==\n\n");
  int Failures = 0;

  // Gates 1 and 2a: per seeded pattern, SHB dominance and WCP superset.
  const sites::PatternKind Seeded[] = {sites::PatternKind::PostFirstRaceBenign,
                                       sites::PatternKind::IntervalSkipBenign};
  for (sites::PatternKind Kind : Seeded) {
    sites::SiteSpec Spec;
    Spec.Name = "gate";
    Spec.Patterns.push_back({Kind, 1});
    webracer::SessionOptions Opts;
    Opts.Predict = true;
    webracer::SessionResult R = runSpec(Spec, Opts);

    const PredictionResult *Shb = findEngine(R, EngineKind::Shb);
    const PredictionResult *Wcp = findEngine(R, EngineKind::Wcp);
    if (!Shb || !Wcp) {
      std::printf("FAIL: %s missing prediction passes (%zu present)\n",
                  toString(Kind), R.Predictions.size());
      ++Failures;
      continue;
    }
    if (Shb->observedMatched() != R.RawRaces.size()) {
      std::printf("FAIL: %s SHB re-found %zu of %zu observed race(s)\n",
                  toString(Kind), Shb->observedMatched(), R.RawRaces.size());
      ++Failures;
    }
    if (Shb->predictedCount() < 1) {
      std::printf("FAIL: %s SHB predicted nothing beyond the observed "
                  "run\n",
                  toString(Kind));
      ++Failures;
    }
    std::set<RaceKey> ShbKeys = keysOf(*Shb);
    std::set<RaceKey> WcpKeys = keysOf(*Wcp);
    if (!std::includes(WcpKeys.begin(), WcpKeys.end(), ShbKeys.begin(),
                       ShbKeys.end())) {
      std::printf("FAIL: %s WCP findings do not contain SHB's\n",
                  toString(Kind));
      ++Failures;
    }
    std::printf("%-24s observed %zu/%zu, shb +%zu predicted, "
                "wcp +%zu predicted (%llu edge(s) dropped)\n",
                toString(Kind), Shb->observedMatched(), R.RawRaces.size(),
                Shb->predictedCount(), Wcp->predictedCount(),
                static_cast<unsigned long long>(Wcp->DroppedEdges));
  }

  // Gate 2b: corpus-wide, every site's WCP headline counters contain
  // SHB's, and prediction finds real value beyond the observed runs.
  const uint64_t Seed = 2012;
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(Seed);
  if (Quick)
    Corpus.resize(25);
  webracer::SessionOptions CorpusOpts;
  CorpusOpts.Predict = true;
  sites::CorpusStats Stats =
      sites::runCorpus(Corpus, CorpusOpts, Seed, /*Jobs=*/0);

  uint64_t ShbPredicted = 0, WcpPredicted = 0, WcpDropped = 0;
  for (const sites::SiteRunStats &Site : Stats.Sites) {
    const obs::PredictionRow *Shb = findRow(Site.Stats, "shb");
    const obs::PredictionRow *Wcp = findRow(Site.Stats, "wcp");
    if (!Shb || !Wcp) {
      std::printf("FAIL: %s missing wr_prediction rows\n",
                  Site.Name.c_str());
      ++Failures;
      continue;
    }
    if (Wcp->Candidates < Shb->Candidates ||
        Wcp->Predicted.total() < Shb->Predicted.total()) {
      std::printf("FAIL: %s WCP counters below SHB's (candidates "
                  "%llu < %llu or predicted %llu < %llu)\n",
                  Site.Name.c_str(),
                  static_cast<unsigned long long>(Wcp->Candidates),
                  static_cast<unsigned long long>(Shb->Candidates),
                  static_cast<unsigned long long>(Wcp->Predicted.total()),
                  static_cast<unsigned long long>(Shb->Predicted.total()));
      ++Failures;
    }
    if (Shb->Predicted.total() == 0) {
      std::printf("FAIL: %s SHB predicted nothing (every site seeds a "
                  "post-first-race pattern)\n",
                  Site.Name.c_str());
      ++Failures;
    }
    ShbPredicted += Shb->Predicted.total();
    WcpPredicted += Wcp->Predicted.total();
    WcpDropped += Wcp->DroppedEdges;
  }
  std::printf("\ncorpus (%zu sites): shb predicted %llu, wcp predicted "
              "%llu, wcp dropped %llu edge(s)\n",
              Stats.Sites.size(),
              static_cast<unsigned long long>(ShbPredicted),
              static_cast<unsigned long long>(WcpPredicted),
              static_cast<unsigned long long>(WcpDropped));

  // Gate 3: the fig-page reports without prediction are byte-identical
  // to the golden file - the observed run is untouched.
  obs::Json All = obs::Json::array();
  for (const analysis::PageSpec &Page : analysis::figurePages()) {
    webracer::SessionOptions Opts;
    Opts.Browser.Seed = 7;
    webracer::Session S(Opts);
    S.network().addResource(Page.EntryUrl, Page.Html, 10);
    for (const analysis::PageResource &R : Page.Resources)
      S.network().addResource(R.Url, R.Content, R.LatencyUs);
    webracer::SessionResult Result = S.run(Page.EntryUrl);
    All.push(webracer::buildRunReport(Page.Name, Result, S.browser().hb()));
  }
  std::string Actual = obs::writeJson(All);
  std::ifstream In(WR_GOLDEN_FILE, std::ios::binary);
  if (!In) {
    std::printf("FAIL: missing golden file %s\n", WR_GOLDEN_FILE);
    ++Failures;
  } else {
    std::ostringstream Expected;
    Expected << In.rdbuf();
    if (Actual != Expected.str()) {
      std::printf("FAIL: fig reports differ from %s "
                  "(%zu vs %zu bytes)\n",
                  WR_GOLDEN_FILE, Actual.size(), Expected.str().size());
      ++Failures;
    } else {
      std::printf("fig reports without prediction: byte-identical to "
                  "golden (%zu bytes)\n",
                  Actual.size());
    }
  }

  if (Failures) {
    std::printf("RESULT: %d FAILURE(S)\n", Failures);
    return 1;
  }
  std::printf("RESULT: OK (SHB dominates, WCP contains SHB, observed "
              "output unchanged)\n");
  return 0;
}
