//===- bench/perf/WebWorkloads.cpp - corpus, pages and batch workloads --------===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The three workloads over the 100-site Fortune-100 corpus:
//
//   corpus  runSite over every site with prediction on, then the corpus
//           report (= `webracer-cli corpus --jobs 1`). Static analysis and
//           prediction dominate, so their gains show here.
//   pages   Session::run per site with default options: the paper's tool
//           alone (browser, online detection, exploration). Static and
//           predict changes must not move it.
//   batch   runBatch with prediction over the corpus traces recorded to
//           WRT2 files in set-up, then the batch report (= `webracer-cli
//           batch --predict`): offline fleet ingest with no browser.
//
// The bare run of corpus and pages is a sink-less browser plus explorer
// over the same sites; that of batch reads and decodes the same traces.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "analysis/CrossCheck.h"
#include "analysis/StaticAnalyzer.h"
#include "obs/Reporter.h"
#include "sites/CorpusReport.h"
#include "sites/CorpusRunner.h"
#include "triage/Batch.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

using namespace wr;
using namespace perf;

namespace {

/// The corpus every web workload runs: the sites plus one browser seed
/// per site, drawn in corpus order the way runCorpus draws them.
struct SiteSet {
  std::vector<sites::GeneratedSite> Sites;
  std::vector<uint64_t> Seeds;
};

/// The generator's seed is fixed (the corpus of bench/baseline.json):
/// its heavy-tailed noise counts change the corpus' total work by a
/// third from one seed to the next, which would swamp every bound. The
/// run's seed draws the per-site browser seeds, so it varies network
/// jitter and schedules over the same pages.
constexpr uint64_t CorpusSeed = 2012;

SiteSet buildSites(uint64_t Seed, Tracer &SetupSpans) {
  SiteSet S;
  {
    Span Sp(&SetupSpans, "sites.generate_ms");
    S.Sites = sites::buildFortune100Corpus(CorpusSeed);
  }
  Rng SeedGen(Seed);
  for (size_t I = 0; I < S.Sites.size(); ++I)
    S.Seeds.push_back(SeedGen.next());
  return S;
}

void addResources(rt::NetworkSimulator &Net, const sites::GeneratedSite &Site) {
  Net.addResource(Site.IndexUrl, Site.Html, 10);
  for (const sites::SiteResource &R : Site.Resources)
    Net.addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs, R.MaxLatencyUs);
}

/// The generator's ground truth for one site's filtered races.
bool matchesExpected(const obs::RaceCounts &Filtered,
                     const sites::ExpectedRaces &E) {
  auto U = [](int V) { return static_cast<uint64_t>(V); };
  return Filtered.Html == U(E.Html) && Filtered.Function == U(E.Function) &&
         Filtered.Variable == U(E.Variable) &&
         Filtered.EventDispatch == U(E.EventDispatch);
}

void emitReport(const obs::Json &Doc) {
  std::string Out;
  obs::JsonReporter(Out).emit(Doc);
}

/// One site through a sink-less browser and the explorer: the page work
/// of Session::run without the race detector.
void bareSite(const sites::GeneratedSite &Site, uint64_t SiteSeed,
              Tracer *T) {
  std::unique_ptr<rt::Browser> B;
  {
    Span Sp(T, "runtime.load_ms", /*Probe=*/true);
    rt::BrowserOptions Opts;
    Opts.Seed = SiteSeed;
    B = std::make_unique<rt::Browser>(Opts);
    addResources(B->network(), Site);
    B->loadPage(Site.IndexUrl);
    B->runToQuiescence();
  }
  Span Sp(T, "explore.run_ms", /*Probe=*/true);
  explore::Explorer(*B).run();
}

double bareSites(const SiteSet &S, Tracer *T) {
  Clock::time_point Start = Clock::now();
  for (size_t I = 0; I < S.Sites.size(); ++I)
    bareSite(S.Sites[I], S.Seeds[I], T);
  return secondsSince(Start);
}

/// One session over \p Site, seeded like runSite seeds it.
webracer::SessionResult runSession(const sites::GeneratedSite &Site,
                                   webracer::SessionOptions Opts,
                                   uint64_t SiteSeed) {
  Opts.Browser.Seed = SiteSeed;
  webracer::Session S(Opts);
  addResources(S.network(), Site);
  return S.run(Site.IndexUrl);
}

//===----------------------------------------------------------------------===//
// corpus
//===----------------------------------------------------------------------===//

class CorpusWorkload final : public Workload {
public:
  void setup(uint64_t Seed, bool InjectFault, Tracer &SetupSpans) override {
    S = buildSites(Seed, SetupSpans);
    if (InjectFault)
      S.Sites.front().Expected.Html += 1;
    Base.Predict = true;
  }

  PassResult pass(Tracer *T) override {
    PassResult R;
    sites::CorpusStats Stats;
    Clock::time_point Start = Clock::now();
    for (size_t I = 0; I < S.Sites.size(); ++I) {
      Clock::time_point ItemStart = Clock::now();
      Stats.Sites.push_back(T ? runSiteTraced(I, *T)
                              : sites::runSite(S.Sites[I], Base, S.Seeds[I]));
      R.ItemMs.push_back(secondsSince(ItemStart) * 1e3);
    }
    {
      Span Sp(T, "obs.report_ms");
      emitReport(sites::buildCorpusReport("fortune100", Stats));
    }
    R.AnalysedSec = secondsSince(Start);
    R.BareSec = bareSites(S, T);

    if (T) {
      // Predict = session - the same session without prediction; online
      // detection = what the session costs beyond the bare page work.
      webracer::SessionOptions NoPredict = Base;
      NoPredict.Predict = false;
      NoPredict.ExpectedOperations = 512;
      for (size_t I = 0; I < S.Sites.size(); ++I) {
        Span Sp(T, "webracer.session_nopredict_ms", /*Probe=*/true);
        runSession(S.Sites[I], NoPredict, S.Seeds[I]);
      }
      double Session = T->ms("webracer.session_nopredict_ms");
      T->derive("detect.predict_ms", T->ms("webracer.session_ms") - Session);
      T->derive("detect.online_ms", Session - T->ms("runtime.load_ms") -
                                        T->ms("explore.run_ms"));
    }

    obs::RunStats Agg = Stats.aggregate();
    uint64_t Chains = 0, Signatures = 0;
    std::set<std::string> Groups;
    for (const sites::SiteRunStats &Site : Stats.Sites) {
      R.check(matchesExpected(Site.Filtered, Site.Expected));
      Chains = std::max(Chains, Site.Stats.VcChains);
      Signatures += Site.Signatures.size();
      for (const triage::RaceSignature &Sig : Site.Signatures)
        Groups.insert(Sig.text());
    }
    R.Ops = Agg.Operations;
    R.Accesses = Agg.AccessesSeen;
    R.countRunStats(Agg, Chains);
    analysis::StaticPrecision Static = Stats.staticTotals();
    R.count("analysis.static_predicted", static_cast<double>(Static.Predicted));
    R.count("analysis.static_precision",
            Static.Predicted ? static_cast<double>(Static.Confirmed) /
                                   static_cast<double>(Static.Predicted)
                             : 0.0);
    R.count("triage.signatures", static_cast<double>(Signatures));
    R.count("triage.groups", static_cast<double>(Groups.size()));
    R.count("triage.dedup_ratio",
            Signatures ? static_cast<double>(Groups.size()) /
                             static_cast<double>(Signatures)
                       : 0.0);
    return R;
  }

private:
  /// sites::runSite, decomposed into its public calls so each layer gets
  /// a span. Produces the same SiteRunStats.
  sites::SiteRunStats runSiteTraced(size_t I, Tracer &T) {
    const sites::GeneratedSite &Site = S.Sites[I];
    webracer::SessionOptions Opts = Base;
    Opts.Browser.Seed = S.Seeds[I];
    Opts.ExpectedOperations = 512;
    std::unique_ptr<webracer::Session> Live;
    webracer::SessionResult Result;
    {
      Span Sp(&T, "webracer.session_ms");
      Live = std::make_unique<webracer::Session>(Opts);
      addResources(Live->network(), Site);
      Result = Live->run(Site.IndexUrl);
    }
    sites::SiteRunStats Stats;
    Stats.Name = Site.Name;
    Stats.Raw = detect::tally(Result.RawRaces);
    Stats.Filtered = detect::tally(Result.FilteredRaces);
    Stats.Expected = Site.Expected;
    analysis::StaticAnalysis Static;
    {
      Span Sp(&T, "analysis.static_ms");
      Static = analysis::analyzePage(
          Site.Html,
          [&Site](const std::string &Url) -> std::optional<std::string> {
            for (const sites::SiteResource &R : Site.Resources)
              if (R.Url == Url)
                return R.Body;
            return std::nullopt;
          });
    }
    {
      Span Sp(&T, "analysis.crosscheck_ms");
      std::vector<analysis::MappedDynamicRace> Mapped =
          analysis::mapDynamicRaces(Result.RawRaces, Live->browser());
      Stats.Static = analysis::tallyPrecision(Static.Races, Mapped,
                                              /*Confirmed=*/nullptr,
                                              /*Refuted=*/nullptr);
    }
    {
      Span Sp(&T, "triage.sign_ms");
      for (const detect::Race &Race : Result.FilteredRaces)
        Stats.Signatures.push_back(
            triage::computeSignature(Race, Live->browser().hb()));
    }
    {
      // Teardown belongs to the layer that built the state.
      Span Sp(&T, "webracer.session_ms");
      Live.reset();
    }
    {
      Span Sp(&T, "analysis.static_ms");
      Static = analysis::StaticAnalysis();
    }
    Stats.Stats = std::move(Result.Stats);
    Stats.FilteredRaces = std::move(Result.FilteredRaces);
    return Stats;
  }

  SiteSet S;
  webracer::SessionOptions Base;
};

//===----------------------------------------------------------------------===//
// pages
//===----------------------------------------------------------------------===//

class PagesWorkload final : public Workload {
public:
  void setup(uint64_t Seed, bool InjectFault, Tracer &SetupSpans) override {
    S = buildSites(Seed, SetupSpans);
    if (InjectFault)
      S.Sites.front().Expected.Html += 1;
  }

  PassResult pass(Tracer *T) override {
    PassResult R;
    std::vector<obs::RunStats> Runs;
    Runs.reserve(S.Sites.size());
    Clock::time_point Start = Clock::now();
    for (size_t I = 0; I < S.Sites.size(); ++I) {
      Clock::time_point ItemStart = Clock::now();
      {
        Span Sp(T, "webracer.session_ms");
        Runs.push_back(
            runSession(S.Sites[I], webracer::SessionOptions(), S.Seeds[I])
                .Stats);
      }
      R.ItemMs.push_back(secondsSince(ItemStart) * 1e3);
    }
    R.AnalysedSec = secondsSince(Start);
    R.BareSec = bareSites(S, T);
    if (T)
      T->derive("detect.online_ms", T->ms("webracer.session_ms") -
                                        T->ms("runtime.load_ms") -
                                        T->ms("explore.run_ms"));

    obs::RunStats Agg;
    uint64_t Chains = 0;
    for (size_t I = 0; I < Runs.size(); ++I) {
      R.check(matchesExpected(Runs[I].Filtered, S.Sites[I].Expected));
      Chains = std::max(Chains, Runs[I].VcChains);
      Agg.merge(Runs[I]);
    }
    R.Ops = Agg.Operations;
    R.Accesses = Agg.AccessesSeen;
    R.countRunStats(Agg, Chains);
    return R;
  }

private:
  SiteSet S;
};

//===----------------------------------------------------------------------===//
// batch
//===----------------------------------------------------------------------===//

/// What the online run of one site reported, which every replay of its
/// trace must reproduce.
struct OnlineRecord {
  obs::RaceCounts Raw;
  obs::RaceCounts Filtered;
  std::vector<std::string> RawRaces; ///< raceKey of each, in order.
  std::vector<std::string> FilteredLocations;
  /// A set-up replay of the trace file reported the same raw races.
  bool ReplayOk = false;
};

std::string raceKey(const detect::Race &R) {
  return std::to_string(static_cast<int>(R.Kind)) + " " + toString(R.Loc) +
         " " + std::to_string(R.First.Op) + ">" + std::to_string(R.Second.Op);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

class BatchWorkload final : public Workload {
public:
  explicit BatchWorkload(std::filesystem::path Dir) : Dir(std::move(Dir)) {}
  ~BatchWorkload() override {
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }

  void setup(uint64_t Seed, bool InjectFault, Tracer &SetupSpans) override {
    SiteSet S = buildSites(Seed, SetupSpans);
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
    webracer::SessionOptions Opts;
    Opts.RecordTrace = true;
    for (size_t I = 0; I < S.Sites.size(); ++I) {
      Opts.Browser.Seed = S.Seeds[I];
      webracer::Session Recorder(Opts);
      addResources(Recorder.network(), S.Sites[I]);
      webracer::SessionResult Result = Recorder.run(S.Sites[I].IndexUrl);
      OnlineRecord Rec;
      Rec.Raw = detect::tally(Result.RawRaces);
      Rec.Filtered = detect::tally(Result.FilteredRaces);
      for (const detect::Race &Race : Result.RawRaces)
        Rec.RawRaces.push_back(raceKey(Race));
      for (const detect::Race &Race : Result.FilteredRaces)
        Rec.FilteredLocations.push_back(toString(Race.Loc));
      Online.push_back(std::move(Rec));
      std::string Bytes = Recorder.trace()->serialize();
      TraceBytes += Bytes.size();
      TraceEvents += Recorder.trace()->size();
      char Name[32];
      std::snprintf(Name, sizeof(Name), "site-%03zu.wrt", I);
      std::ofstream Out(Dir / Name, std::ios::binary | std::ios::trunc);
      Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
      if (!Out)
        throw std::runtime_error("cannot write " + (Dir / Name).string());
    }
    std::string Error;
    if (!triage::listTraceFiles(Dir.string(), Paths, Error))
      throw std::runtime_error(Error);
    if (Paths.size() != Online.size())
      throw std::runtime_error("trace directory holds foreign files");
    if (InjectFault) {
      // Corrupt the first trace's header: a flip further in can land in
      // a label the analysis never reads.
      std::string Bytes = readFile(Paths.front());
      Bytes[0] ^= 0x5a;
      std::ofstream(Paths.front(), std::ios::binary | std::ios::trunc)
          << Bytes;
    }
    BatchOpts.Jobs = 1;
    BatchOpts.Replay.Predict = true;
    for (size_t I = 0; I < Paths.size(); ++I)
      Online[I].ReplayOk = replayAgrees(Paths[I], Online[I]);
  }

  PassResult pass(Tracer *T) override {
    PassResult R;
    Clock::time_point Start = Clock::now();
    triage::BatchResult Batch;
    {
      Span Sp(T, "triage.batch_ms");
      Batch = triage::runBatch(Paths, BatchOpts);
    }
    {
      Span Sp(T, "obs.report_ms");
      emitReport(triage::buildBatchReport(Dir.filename().string(), Batch));
    }
    R.AnalysedSec = secondsSince(Start);
    // Per-trace latency: runBatch times no trace on its own, so each trace
    // is ingested once more through the per-trace step runBatch calls.
    if (!T)
      for (const std::string &Path : Paths) {
        Clock::time_point ItemStart = Clock::now();
        triage::ingestTraceFile(Path, BatchOpts);
        R.ItemMs.push_back(secondsSince(ItemStart) * 1e3);
      }

    Clock::time_point BareStart = Clock::now();
    for (const std::string &Path : Paths) {
      TraceLog Log;
      decode(Path, Log, T);
    }
    R.BareSec = secondsSince(BareStart);
    if (T)
      probe(*T);

    uint64_t Chains = 0, Signatures = 0;
    for (size_t I = 0; I < Batch.Traces.size(); ++I) {
      const triage::TraceIngest &In = Batch.Traces[I];
      Chains = std::max(Chains, In.Stats.VcChains);
      Signatures += In.Kept.size() + In.Predicted.size();
      R.check(I < Online.size() && agreesWithOnline(In, Online[I]));
    }
    R.Ops = Batch.Aggregate.Operations;
    R.Accesses = Batch.Aggregate.AccessesSeen;
    R.countRunStats(Batch.Aggregate, Chains);
    R.count("instr.trace_bytes", static_cast<double>(TraceBytes));
    R.count("instr.trace_events", static_cast<double>(TraceEvents));
    R.count("detect.observed_unpredicted",
            static_cast<double>(ObservedUnpredicted));
    R.count("triage.signatures", static_cast<double>(Signatures));
    R.count("triage.groups", static_cast<double>(Batch.Groups.size()));
    R.count("triage.dedup_ratio",
            Signatures ? static_cast<double>(Batch.Groups.size()) /
                             static_cast<double>(Signatures)
                       : 0.0);
    return R;
  }

private:
  /// Reads and decodes one trace: the bare ingest of the batch.
  static bool decode(const std::string &Path, TraceLog &Log, Tracer *T) {
    std::string Bytes;
    {
      Span Sp(T, "instr.read_ms", /*Probe=*/true);
      Bytes = readFile(Path);
    }
    Span Sp(T, "instr.decode_ms", /*Probe=*/true);
    return TraceLog::deserialize(Bytes, Log);
  }

  /// Replays \p Path and compares its raw races with the online run's.
  /// Also counts the observed race locations that SHB prediction does not
  /// flag. Observed is not yet a subset of predicted, so that gap is a
  /// counter, not an oracle.
  bool replayAgrees(const std::string &Path, const OnlineRecord &Rec) {
    TraceLog Log;
    if (!decode(Path, Log, nullptr))
      return false;
    detect::ReplayResult Result = detect::replayTrace(Log, BatchOpts.Replay);
    std::vector<std::string> Raw;
    for (const detect::Race &Race : Result.RawRaces)
      Raw.push_back(raceKey(Race));
    std::set<std::string> ShbLocations;
    for (const detect::PredictionResult &P : Result.Predictions)
      if (P.Engine == EngineKind::Shb)
        for (const detect::PredictedRace &PR : P.Races)
          ShbLocations.insert(toString(PR.R.Loc));
    for (const detect::Race &Race : Result.RawRaces)
      ObservedUnpredicted += !ShbLocations.count(toString(Race.Loc));
    return Raw == Rec.RawRaces;
  }

  /// Splits runBatch: per-trace replay and signing re-run in isolation;
  /// merge is what runBatch spends beyond them.
  void probe(Tracer &T) {
    detect::ReplayOptions NoPredict = BatchOpts.Replay;
    NoPredict.Predict = false;
    for (const std::string &Path : Paths) {
      TraceLog Log;
      decode(Path, Log, nullptr);
      Log.setSource(Path);
      detect::ReplayResult Result;
      {
        Span Sp(&T, "detect.replay_ms", /*Probe=*/true);
        Result = detect::replayTrace(Log, BatchOpts.Replay);
      }
      {
        Span Sp(&T, "triage.sign_ms", /*Probe=*/true);
        for (const detect::Race &Race : Result.FilteredRaces)
          triage::computeSignature(Race, Result.Hb);
        for (const detect::PredictionResult &P : Result.Predictions)
          for (const detect::PredictedRace &PR : P.Races)
            if (PR.Verdict == detect::PredictionVerdict::Predicted)
              triage::computeSignature(PR.R, Result.Hb);
      }
      Span Sp(&T, "detect.replay_nopredict_ms", /*Probe=*/true);
      detect::replayTrace(Log, NoPredict);
    }
    T.derive("detect.predict_ms",
             T.ms("detect.replay_ms") - T.ms("detect.replay_nopredict_ms"));
    T.derive("triage.merge_ms",
             T.ms("triage.batch_ms") - T.ms("instr.read_ms") -
                 T.ms("instr.decode_ms") - T.ms("detect.replay_ms") -
                 T.ms("triage.sign_ms"));
  }

  /// The batch's view of one trace reproduces the online run: race
  /// tallies before and after filtering, and the kept races' locations.
  static bool agreesWithOnline(const triage::TraceIngest &In,
                               const OnlineRecord &Rec) {
    std::vector<std::string> Kept;
    for (const triage::WitnessRace &W : In.Kept)
      Kept.push_back(W.Location);
    return Rec.ReplayOk && In.Ok && In.Stats.Raw == Rec.Raw &&
           In.Stats.Filtered == Rec.Filtered && Kept == Rec.FilteredLocations;
  }

  std::filesystem::path Dir;
  std::vector<std::string> Paths;
  std::vector<OnlineRecord> Online;
  uint64_t TraceBytes = 0;
  uint64_t TraceEvents = 0;
  uint64_t ObservedUnpredicted = 0;
  triage::BatchOptions BatchOpts;
};

} // namespace

std::unique_ptr<Workload> perf::makeCorpusWorkload() {
  return std::make_unique<CorpusWorkload>();
}

std::unique_ptr<Workload> perf::makePagesWorkload() {
  return std::make_unique<PagesWorkload>();
}

std::unique_ptr<Workload>
perf::makeBatchWorkload(std::filesystem::path WorkDir) {
  return std::make_unique<BatchWorkload>(std::move(WorkDir));
}
