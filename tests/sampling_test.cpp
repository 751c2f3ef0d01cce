//===- tests/sampling_test.cpp - Sampling-layer behavior ----------------------===//
//
// The src/sample contract, from the unit up:
//
//  * AccessSampler behavior: decisions are a pure function of the
//    location, and the counters partition exactly.
//  * Detector integration: rate 1.0 constructs no sampler and changes no
//    bytes (the fig golden file stays byte-identical); below 1.0 the
//    detector processes exactly the admitted accesses, and its raw and
//    filtered races are exactly the unsampled run's races on the
//    admitted locations, field by field.
//  * Determinism: sampled corpus reports are byte-identical at --jobs
//    1/2/4/8.
//
//===----------------------------------------------------------------------===//

#include "RandomTrace.h"

#include "analysis/Scenarios.h"
#include "detect/RaceDetector.h"
#include "detect/TraceReplay.h"
#include "hb/HbGraph.h"
#include "mem/LocationInterner.h"
#include "sample/Sampling.h"
#include "sites/CorpusReport.h"
#include "sites/CorpusRunner.h"
#include "support/Rng.h"
#include "webracer/RunReport.h"
#include "webracer/Session.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>

using namespace wr;
using sample::AccessSampler;
using sample::SamplingOptions;

namespace {

Access makeAccess(OpId Op, LocId Loc, AccessKind Kind) {
  Access A;
  A.Op = Op;
  A.Loc = Loc;
  A.Kind = Kind;
  return A;
}

TEST(AccessSamplerTest, PerLocationDecisionIsAFunctionOfTheLocation) {
  SamplingOptions Opts;
  Opts.Rate = 0.5;
  Opts.Seed = 42;
  AccessSampler S(Opts);
  // Whatever the verdict for a location is, it never changes across
  // repeated accesses, operations, or access kinds.
  for (LocId Loc = 0; Loc < 64; ++Loc) {
    bool First = S.shouldSample(makeAccess(1, Loc, AccessKind::Read));
    for (OpId Op = 2; Op < 6; ++Op)
      EXPECT_EQ(S.shouldSample(makeAccess(Op, Loc, AccessKind::Write)),
                First);
  }
  // Rate 0.5 over 64 locations keeps a nontrivial subset of both sides.
  const sample::SamplerCounters &C = S.counters();
  EXPECT_GT(C.SampledReads + C.SampledWrites, 0u);
  EXPECT_GT(C.DroppedReads + C.DroppedWrites, 0u);
}

TEST(AccessSamplerTest, RateZeroPerLocationDropsEverything) {
  SamplingOptions Opts;
  Opts.Rate = 0.0;
  AccessSampler S(Opts);
  for (LocId Loc = 0; Loc < 32; ++Loc)
    EXPECT_FALSE(S.shouldSample(makeAccess(1, Loc, AccessKind::Read)));
  EXPECT_EQ(S.counters().SeenReads, 32u);
  EXPECT_EQ(S.counters().DroppedReads, 32u);
  EXPECT_EQ(S.counters().SampledReads, 0u);
}

TEST(AccessSamplerTest, CountersPartitionExactly) {
  SamplingOptions Opts;
  Opts.Rate = 0.3;
  Opts.Seed = 9;
  AccessSampler S(Opts);
  for (int I = 0; I < 500; ++I)
    S.shouldSample(makeAccess(1 + static_cast<OpId>(I % 7),
                              static_cast<LocId>(I % 23),
                              I % 3 ? AccessKind::Read : AccessKind::Write));
  const sample::SamplerCounters &C = S.counters();
  EXPECT_EQ(C.SeenReads + C.SeenWrites, 500u);
  EXPECT_EQ(C.SeenReads, C.SampledReads + C.DroppedReads);
  EXPECT_EQ(C.SeenWrites, C.SampledWrites + C.DroppedWrites);
}

TEST(RaceDetectorSamplingTest, RateOneConstructsNoSampler) {
  HbGraph Hb;
  LocationInterner Interner;
  detect::DetectorOptions Opts;
  Opts.Sampling.Rate = 1.0;
  detect::RaceDetector D(Hb, Interner, Opts);
  EXPECT_EQ(D.sampler(), nullptr);
  EXPECT_FALSE(D.samplingStats().enabled());
}

TEST(RaceDetectorSamplingTest, DetectorProcessesExactlyAdmittedAccesses) {
  HbGraph Hb;
  LocationInterner Interner;
  OpId A = Hb.addOperation(Operation());
  OpId B = Hb.addOperation(Operation());
  Hb.addEdge(A, B, HbRule::RProgram);
  detect::DetectorOptions Opts;
  Opts.Sampling.Rate = 0.4;
  Opts.Sampling.Seed = 5;
  detect::RaceDetector D(Hb, Interner, Opts);
  ASSERT_NE(D.sampler(), nullptr);
  for (int I = 0; I < 400; ++I) {
    char Name[16];
    std::snprintf(Name, sizeof(Name), "x%d", I % 31);
    Access Acc = makeAccess(I % 2 ? A : B, Interner.internVar(0, Name),
                            I % 3 ? AccessKind::Read : AccessKind::Write);
    D.onMemoryAccess(Acc);
  }
  obs::SamplingStats S = D.samplingStats();
  ASSERT_TRUE(S.enabled());
  EXPECT_EQ(S.SeenReads + S.SeenWrites, 400u);
  EXPECT_EQ(S.SeenReads + S.SeenWrites,
            S.SampledReads + S.SampledWrites + S.DroppedReads +
                S.DroppedWrites);
  // AccessesSeen counts only what the sampler admitted - attrition is
  // visible in the report, never silently folded into detector counters.
  EXPECT_EQ(D.accessesSeen(), S.SampledReads + S.SampledWrites);
  EXPECT_GT(S.DroppedReads + S.DroppedWrites, 0u);
}

/// One array document holding the five figure run reports, mirroring
/// tests/report_schema_test.cpp but with the given sampling options.
std::string figureReportsDocument(const SamplingOptions &Sampling) {
  obs::Json All = obs::Json::array();
  for (const analysis::PageSpec &Page : analysis::figurePages()) {
    webracer::SessionOptions Opts;
    Opts.Browser.Seed = 7;
    Opts.Detector.Sampling = Sampling;
    webracer::Session S(Opts);
    S.network().addResource(Page.EntryUrl, Page.Html, 10);
    for (const analysis::PageResource &R : Page.Resources)
      S.network().addResource(R.Url, R.Content, R.LatencyUs);
    webracer::SessionResult Result = S.run(Page.EntryUrl);
    All.push(webracer::buildRunReport(Page.Name, Result, S.browser().hb()));
  }
  return obs::writeJson(All);
}

TEST(RaceDetectorSamplingTest, RateOneReportsMatchGoldenFile) {
  // Rate 1.0 must be indistinguishable from the pre-sampling detector:
  // the same golden bytes report_schema_test locks down, no wr_sampling
  // section, regardless of the configured seed.
  SamplingOptions Sampling;
  Sampling.Rate = 1.0;
  Sampling.Seed = 99;
  std::string Actual = figureReportsDocument(Sampling);
  std::ifstream In(WR_GOLDEN_FILE, std::ios::binary);
  ASSERT_TRUE(In) << "missing golden file " << WR_GOLDEN_FILE;
  std::ostringstream Expected;
  Expected << In.rdbuf();
  EXPECT_EQ(Actual, Expected.str());
}

TEST(RaceDetectorSamplingTest, SampledFigureReportsAreDeterministic) {
  SamplingOptions Sampling;
  Sampling.Rate = 0.2;
  Sampling.Seed = 13;
  EXPECT_EQ(figureReportsDocument(Sampling),
            figureReportsDocument(Sampling));
}

/// Every field the detector fills in a race, as one line.
std::string describe(const detect::Race &R) {
  auto Side = [](const Access &A) {
    return std::to_string(A.Op) + " " + toString(A.Kind) + " " +
           toString(A.Origin) + " loc " + std::to_string(A.Loc) + " '" +
           A.Detail + "'";
  };
  return std::string(detect::toString(R.Kind)) + " on " + toString(R.Loc) +
         ": " + Side(R.First) + " / " + Side(R.Second) +
         (R.WriteHadPriorReadInOp ? " prior-read" : "");
}

/// The raw and filtered races of one run of an input.
struct RunRaces {
  std::vector<detect::Race> Raw;
  std::vector<detect::Race> Filtered;
};

/// Runs one input with the given sampling options.
using RunFn = std::function<RunRaces(const SamplingOptions &)>;

/// Raw races of the unsampled runs the admitted-location oracle kept and
/// dropped, summed over rates.
struct Tally {
  uint64_t Kept = 0;
  uint64_t Dropped = 0;
};

/// Runs one input unsampled and at rates 0.1, 0.3 and 0.7 with hash seed
/// \p Seed. Each sampled run's raw and filtered races must be exactly the
/// unsampled run's races whose Second.Loc the same sampler admits: a kept
/// location sees its whole access history, and no detector state crosses
/// locations.
void checkAdmittedLocationRaces(const RunFn &Run, uint64_t Seed,
                                const std::string &What, Tally &T) {
  RunRaces Full = Run(SamplingOptions());
  for (double Rate : {0.1, 0.3, 0.7}) {
    SamplingOptions Opts;
    Opts.Rate = Rate;
    Opts.Seed = Seed;
    RunRaces Got = Run(Opts);
    AccessSampler Admits(Opts);
    auto Admitted = [&](const std::vector<detect::Race> &Races) {
      std::vector<std::string> Out;
      for (const detect::Race &R : Races)
        if (Admits.shouldSample(R.Second))
          Out.push_back(describe(R));
      return Out;
    };
    auto All = [](const std::vector<detect::Race> &Races) {
      std::vector<std::string> Out;
      for (const detect::Race &R : Races)
        Out.push_back(describe(R));
      return Out;
    };
    std::string Config = What + " at rate " + std::to_string(Rate);
    std::vector<std::string> WantRaw = Admitted(Full.Raw);
    T.Kept += WantRaw.size();
    T.Dropped += Full.Raw.size() - WantRaw.size();
    EXPECT_EQ(All(Got.Raw), WantRaw) << Config << ", raw races";
    EXPECT_EQ(All(Got.Filtered), Admitted(Full.Filtered))
        << Config << ", filtered races";
  }
}

/// A session run of the page \p Html at \p EntryUrl, whose other
/// resources \p Add registers, at browser seed \p Seed.
template <typename AddResources>
RunRaces runPage(const std::string &EntryUrl, const std::string &Html,
                 uint64_t Seed, const SamplingOptions &Sampling,
                 AddResources Add) {
  webracer::SessionOptions Opts;
  Opts.Browser.Seed = Seed;
  Opts.Detector.Sampling = Sampling;
  webracer::Session S(Opts);
  S.network().addResource(EntryUrl, Html, 10);
  Add(S.network());
  webracer::SessionResult R = S.run(EntryUrl);
  return {R.RawRaces, R.FilteredRaces};
}

TEST(RaceDetectorSamplingTest, SampledRacesAreTheAdmittedLocationsRaces) {
  Tally Random;
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    test::RandomTrace Trace(Seed);
    checkAdmittedLocationRaces(
        [&](const SamplingOptions &Sampling) {
          detect::ReplayOptions Opts;
          Opts.Detector.Sampling = Sampling;
          detect::ReplayResult R = detect::replayTrace(Trace.log(), Opts);
          return RunRaces{R.RawRaces, R.FilteredRaces};
        },
        Seed, "random trace " + std::to_string(Seed), Random);
  }

  Tally Figures;
  for (const analysis::PageSpec &Page : analysis::figurePages())
    checkAdmittedLocationRaces(
        [&](const SamplingOptions &Sampling) {
          return runPage(Page.EntryUrl, Page.Html, 7, Sampling,
                         [&](rt::NetworkSimulator &Net) {
                           for (const analysis::PageResource &R :
                                Page.Resources)
                             Net.addResource(R.Url, R.Content, R.LatencyUs);
                         });
        },
        13, Page.Name, Figures);

  Tally Corpus;
  std::vector<sites::GeneratedSite> Sites =
      sites::buildFortune100Corpus(2012);
  Sites.resize(25);
  Rng Seeds(2012);
  for (const sites::GeneratedSite &Site : Sites) {
    uint64_t BrowserSeed = Seeds.next();
    checkAdmittedLocationRaces(
        [&](const SamplingOptions &Sampling) {
          return runPage(Site.IndexUrl, Site.Html, BrowserSeed, Sampling,
                         [&](rt::NetworkSimulator &Net) {
                           for (const sites::SiteResource &R :
                                Site.Resources)
                             Net.addResourceWithJitter(R.Url, R.Body,
                                                       R.MinLatencyUs,
                                                       R.MaxLatencyUs);
                         });
        },
        BrowserSeed, Site.Name, Corpus);
  }

  // Every input family must both keep and drop races, or the comparison
  // says nothing.
  for (const auto &[Inputs, T] :
       {std::pair<const char *, Tally>{"random traces", Random},
        {"figure pages", Figures},
        {"corpus sites", Corpus}}) {
    std::printf("%s: %llu raw races kept, %llu dropped\n", Inputs,
                static_cast<unsigned long long>(T.Kept),
                static_cast<unsigned long long>(T.Dropped));
    EXPECT_GT(T.Kept, 0u) << Inputs;
    EXPECT_GT(T.Dropped, 0u) << Inputs;
  }
}

TEST(CorpusSamplingTest, SampledReportsAreJobCountInvariant) {
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(2012);
  Corpus.resize(12);
  webracer::SessionOptions Opts;
  Opts.Detector.Sampling.Rate = 0.1;
  Opts.Detector.Sampling.Seed = 2012;
  std::string Reference;
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    sites::CorpusStats Stats = sites::runCorpus(Corpus, Opts, 2012, Jobs);
    std::string Bytes =
        obs::writeJson(sites::buildCorpusReport("fortune100", Stats));
    if (Reference.empty())
      Reference = Bytes;
    EXPECT_EQ(Bytes, Reference) << "report drifted at --jobs " << Jobs;
  }
}

} // namespace
