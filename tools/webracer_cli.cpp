//===- tools/webracer_cli.cpp - WebRacer command-line front end ----------------===//
//
// Subcommand interface:
//
//   webracer-cli page <index.html> [options]
//       run race detection over a page stored on disk. Every file under
//       the page's directory (or --root DIR) is registered on the
//       simulated network under its path relative to that directory, so
//       <script src="js/app.js"> resolves to <root>/js/app.js.
//   webracer-cli replay <trace.wrt> [options]
//       skip the browser: deserialize a recorded trace and run detection
//       + filters offline over it
//   webracer-cli corpus [options]
//       run the synthetic Fortune-100 corpus (optionally in parallel)
//   webracer-cli cross-check <index.html> [options]
//       run the static analyzer AND a dynamic session, then print the
//       precision/recall comparison (--static-only skips the dynamic
//       run; --precision adds the per-guard-class accounting)
//   webracer-cli batch --traces DIR [options]
//       ingest every .wrt trace in DIR, deduplicate races by structural
//       signature, and emit one ranked report (byte-identical at any
//       --jobs count)
//
// Options (per subcommand; unknown options exit 2):
//   --root DIR          page, cross-check: resource root (default: the
//                       page's directory)
//   --seed N            page, corpus, cross-check: determinism seed
//                       (default 1)
//   --latency N         page, cross-check: fixed resource latency in
//                       microseconds (default: jitter 500..3000)
//   --raw               page, replay: print unfiltered races
//   --no-explore        page, cross-check: skip automatic exploration
//   --predict           page, replay, batch: run the SHB, then the WCP,
//                       predictive pass after the observed run (the
//                       observed races are always computed under
//                       happens-before; corpus always predicts)
//   --suppressions FILE page, replay, corpus, batch: drop races matching
//                       the suppression file; drops are counted in the
//                       filter attrition and unmatched entries warn
//   --sample-rate X     page, replay, corpus, batch: fraction of the
//                       access stream the detector sees, in [0, 1]
//                       (default 1 = full instrumentation; below 1 the
//                       report grows a wr_sampling attrition group)
//   --trace             page: dump the full instrumentation trace;
//                       cross-check --static-only: dump the must-HB graph
//   --record FILE       page: write the execution trace to FILE (WRT2)
//   --sites N           corpus: only the first N sites (default 100)
//   --jobs N            corpus, batch: thread-pool size (default 1; must
//                       be at least 1)
//   --traces DIR        batch: the directory of .wrt traces to ingest
//   --precision         cross-check: per-guard-class precision accounting
//   --static-only       cross-check: static analysis alone, no dynamic run
//   --json FILE         write the schema-1 JSON report to FILE
//   --metrics           dump run statistics as a name-sorted listing:
//                       every numeric leaf of the report's stats object
//                       plus phases.<p>.wall_ns
//
// A first argument that is not a subcommand exits 2 with the usage text.
//
// Count-valued options take strict unsigned decimal integers; anything
// else (including a bare "-" or trailing junk) is a usage error.
//
//===----------------------------------------------------------------------===//

#include "sample/Sampling.h"
#include "support/StringUtils.h"
#include "webracer/WebRacer.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace wr;
namespace fs = std::filesystem;

namespace {

std::string readFile(const fs::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s <subcommand> [options]\n"
      "\n"
      "subcommands:\n"
      "  page <index.html>     detect races on a page stored on disk\n"
      "  replay <trace.wrt>    offline detection over a recorded trace\n"
      "  corpus                run the synthetic Fortune-100 corpus\n"
      "  cross-check <index.html>\n"
      "                        static-vs-dynamic race comparison\n"
      "  batch --traces DIR    deduplicating ingest of a trace directory\n"
      "\n"
      "common options: --json FILE, --metrics, --predict,\n"
      "  --suppressions FILE, --sample-rate X; see the header of this\n"
      "  tool or README.md for the per-subcommand tables.\n",
      Argv0);
  return 2;
}

/// Strict unsigned parse for a count-valued flag; on failure prints a
/// usage error naming the flag and the offending value.
bool parseCountArg(const char *Flag, const char *Value, uint64_t &Out) {
  if (parseUint64(Value, Out))
    return true;
  std::fprintf(stderr, "error: %s expects an unsigned integer, got '%s'\n",
               Flag, Value);
  return false;
}

/// Strict parse for --sample-rate: a decimal number within [0, 1];
/// anything else (trailing junk, NaN, out of range) is a usage error.
bool parseRateArg(const char *Flag, const char *Value, double &Out) {
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Value, &End);
  if (End == Value || *End != '\0' || errno != 0 || !(V >= 0.0 && V <= 1.0)) {
    std::fprintf(stderr,
                 "error: %s expects a number within [0, 1], got '%s'\n",
                 Flag, Value);
    return false;
  }
  Out = V;
  return true;
}

/// Serializes \p Doc with the stable JSON backend and writes it to
/// \p Path; false (with a message) when the file cannot be written.
bool writeReportFile(const std::string &Path, const obs::Json &Doc) {
  std::string Bytes;
  obs::JsonReporter Reporter(Bytes);
  Reporter.emit(Doc);
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  Out.flush();
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  std::printf("report: %zu bytes -> %s\n", Bytes.size(), Path.c_str());
  return true;
}

/// Renders \p Doc with the text backend onto stdout.
void printReportText(const obs::Json &Doc) {
  std::string Out;
  obs::TextReporter Reporter(Out);
  Reporter.emit(Doc);
  std::printf("%s", Out.c_str());
}

/// \p Doc minus the member named \p Key (races render separately via
/// describeRaces; per-site rows are too bulky for a terminal).
obs::Json withoutMember(const obs::Json &Doc, const std::string &Key) {
  obs::Json Out = obs::Json::object();
  for (const auto &[Name, Value] : Doc.members())
    if (Name != Key)
      Out.set(Name, Value);
  return Out;
}

/// Dumps \p Stats as the name-sorted --metrics listing.
void printMetrics(const obs::RunStats &Stats) {
  std::printf("\n-- metrics --\n");
  for (const auto &[Name, Value] : Stats.metrics())
    std::printf("webracer.%s %llu\n", Name.c_str(),
                static_cast<unsigned long long>(Value));
}

/// The schema-1 report for an offline replay: stats plus the races.
obs::Json buildReplayReport(const std::string &Name,
                            const detect::ReplayResult &R) {
  obs::Json Doc = obs::makeReportEnvelope("replay", Name);
  Doc.set("stats", R.Stats.toJson());
  Doc.set("races", webracer::racesToJson(R.RawRaces, R.FilteredRaces,
                                         R.Predictions, R.Hb));
  return Doc;
}

/// One summary line per predictive pass (page and replay modes), read
/// from the passes' wr_prediction rows.
void printPredictionSummary(const obs::RunStats &Stats) {
  for (const obs::PredictionRow &Row : Stats.Prediction)
    std::printf("%s prediction: %llu candidate(s), %llu observed, "
                "%llu predicted, %llu dropped edge(s)\n",
                Row.Engine.c_str(),
                static_cast<unsigned long long>(Row.Candidates),
                static_cast<unsigned long long>(Row.Observed),
                static_cast<unsigned long long>(Row.Predicted.total()),
                static_cast<unsigned long long>(Row.DroppedEdges));
}

/// Names the event-loop bound that cut a page run short (a page that
/// never goes idle), so a cut run is not mistaken for a finished one.
void warnIfCut(const webracer::SessionResult &R) {
  if (R.CutBy)
    std::fprintf(stderr,
                 "warning: the run reached the event loop's %s; later "
                 "tasks were dropped\n",
                 R.CutBy);
}

/// True when \p Index names a regular file; otherwise prints the error.
/// Checked before any resource walk: a directory would load as an empty
/// page with every file under its parent served beside it.
bool isPageFile(const fs::path &Index) {
  std::error_code Ec;
  if (fs::is_regular_file(Index, Ec))
    return true;
  std::fprintf(stderr, "error: cannot read %s\n", Index.string().c_str());
  return false;
}

/// Builds a PageSpec from the files on disk under \p Root, mirroring the
/// dynamic mode's resource registration.
analysis::PageSpec pageSpecFromDisk(const fs::path &Index,
                                    const fs::path &Root,
                                    uint64_t FixedLatency) {
  analysis::PageSpec Page;
  std::error_code Ec;
  Page.Name = Index.filename().string();
  Page.EntryUrl = fs::relative(Index, Root, Ec).generic_string();
  Page.Html = readFile(Index);
  uint64_t Latency = FixedLatency ? FixedLatency : 1500;
  if (fs::is_directory(Root, Ec)) {
    for (const auto &Entry : fs::recursive_directory_iterator(Root, Ec)) {
      if (!Entry.is_regular_file())
        continue;
      std::string Url =
          fs::relative(Entry.path(), Root, Ec).generic_string();
      if (Url == Page.EntryUrl)
        continue;
      Page.Resources.push_back({Url, readFile(Entry.path()), Latency});
    }
  }
  return Page;
}

/// The subcommands of the redesigned interface.
enum class Mode { Page, Replay, Corpus, CrossCheck, Batch };

const char *modeName(Mode M) {
  switch (M) {
  case Mode::Page:
    return "page";
  case Mode::Replay:
    return "replay";
  case Mode::Corpus:
    return "corpus";
  case Mode::CrossCheck:
    return "cross-check";
  case Mode::Batch:
    return "batch";
  }
  return "?";
}

/// Every option of every subcommand (one shared table; the parser
/// rejects options a subcommand does not accept).
struct CliOptions {
  Mode M = Mode::Page;
  fs::path Index;        ///< page / cross-check positional.
  std::string TraceFile; ///< replay positional.
  fs::path Root;
  uint64_t Seed = 1;
  uint64_t FixedLatency = 0;
  bool Raw = false;
  bool Explore = true;
  bool Trace = false;
  bool Predict = false;
  bool Metrics = false;
  bool Precision = false;
  bool StaticOnly = false;
  double SampleRate = 1.0;
  std::string RecordFile, JsonFile, SuppressionsFile, TracesDir;
  uint64_t Sites = 0;
  unsigned Jobs = 1;

  /// The sampling configuration the parsed flags describe; \p Seed keys
  /// the sampler's location hash (the run's --seed where the subcommand
  /// has one).
  sample::SamplingOptions samplingOptions(uint64_t Seed) const {
    sample::SamplingOptions S;
    S.Rate = SampleRate;
    S.Seed = Seed;
    return S;
  }
};

/// True when subcommand \p M accepts \p Flag (the shared option table).
bool modeAccepts(Mode M, const std::string &Flag) {
  auto In = [&](std::initializer_list<Mode> Modes) {
    for (Mode Candidate : Modes)
      if (Candidate == M)
        return true;
    return false;
  };
  if (Flag == "--root" || Flag == "--latency" || Flag == "--no-explore")
    return In({Mode::Page, Mode::CrossCheck});
  if (Flag == "--seed")
    return In({Mode::Page, Mode::Corpus, Mode::CrossCheck});
  if (Flag == "--raw")
    return In({Mode::Page, Mode::Replay});
  if (Flag == "--predict")
    return In({Mode::Page, Mode::Replay, Mode::Batch});
  if (Flag == "--suppressions")
    return In({Mode::Page, Mode::Replay, Mode::Corpus, Mode::Batch});
  if (Flag == "--sample-rate")
    return In({Mode::Page, Mode::Replay, Mode::Corpus, Mode::Batch});
  if (Flag == "--trace")
    return In({Mode::Page, Mode::CrossCheck});
  if (Flag == "--record")
    return In({Mode::Page});
  if (Flag == "--sites")
    return In({Mode::Corpus});
  if (Flag == "--jobs")
    return In({Mode::Corpus, Mode::Batch});
  if (Flag == "--traces")
    return In({Mode::Batch});
  if (Flag == "--precision" || Flag == "--static-only")
    return In({Mode::CrossCheck});
  if (Flag == "--json" || Flag == "--metrics")
    return true;
  return false;
}

/// Parses the arguments after the subcommand. Returns 0 on success, else
/// the exit code (2 for usage errors).
int parseModeArgs(CliOptions &O, const std::vector<std::string> &Args,
                  const char *Argv0) {
  auto NeedsPositional = [&] {
    return O.M == Mode::Page || O.M == Mode::CrossCheck;
  };
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    auto Value = [&](const char *Flag) -> const char * {
      if (I + 1 < Args.size())
        return Args[++I].c_str();
      std::fprintf(stderr, "error: %s expects a value\n", Flag);
      return nullptr;
    };
    if (!Arg.empty() && Arg[0] != '-') {
      if (NeedsPositional() && O.Index.empty()) {
        O.Index = Arg;
        if (O.Root.empty())
          O.Root = O.Index.parent_path();
        // A bare filename has no parent component; serve its directory.
        if (O.Root.empty())
          O.Root = ".";
        continue;
      }
      if (O.M == Mode::Replay && O.TraceFile.empty()) {
        O.TraceFile = Arg;
        continue;
      }
      std::fprintf(stderr, "error: unexpected argument '%s'\n",
                   Arg.c_str());
      return 2;
    }
    if (!modeAccepts(O.M, Arg)) {
      std::fprintf(stderr, "error: unknown option '%s' for '%s %s'\n",
                   Arg.c_str(), Argv0, modeName(O.M));
      return 2;
    }
    if (Arg == "--root") {
      const char *V = Value("--root");
      if (!V)
        return 2;
      O.Root = V;
    } else if (Arg == "--seed") {
      const char *V = Value("--seed");
      if (!V || !parseCountArg("--seed", V, O.Seed))
        return 2;
    } else if (Arg == "--latency") {
      const char *V = Value("--latency");
      if (!V || !parseCountArg("--latency", V, O.FixedLatency))
        return 2;
    } else if (Arg == "--raw") {
      O.Raw = true;
    } else if (Arg == "--no-explore") {
      O.Explore = false;
    } else if (Arg == "--predict") {
      O.Predict = true;
    } else if (Arg == "--suppressions") {
      const char *V = Value("--suppressions");
      if (!V)
        return 2;
      O.SuppressionsFile = V;
    } else if (Arg == "--sample-rate") {
      const char *V = Value("--sample-rate");
      if (!V || !parseRateArg("--sample-rate", V, O.SampleRate))
        return 2;
    } else if (Arg == "--trace") {
      O.Trace = true;
    } else if (Arg == "--record") {
      const char *V = Value("--record");
      if (!V)
        return 2;
      O.RecordFile = V;
    } else if (Arg == "--sites") {
      const char *V = Value("--sites");
      if (!V || !parseCountArg("--sites", V, O.Sites))
        return 2;
    } else if (Arg == "--jobs") {
      const char *V = Value("--jobs");
      uint64_t Jobs = 0;
      if (!V || !parseCountArg("--jobs", V, Jobs))
        return 2;
      if (Jobs == 0) {
        std::fprintf(stderr, "error: --jobs must be at least 1\n");
        return 2;
      }
      if (Jobs > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr, "error: --jobs must be at most %u\n",
                     std::numeric_limits<unsigned>::max());
        return 2;
      }
      O.Jobs = static_cast<unsigned>(Jobs);
    } else if (Arg == "--traces") {
      const char *V = Value("--traces");
      if (!V)
        return 2;
      O.TracesDir = V;
    } else if (Arg == "--precision") {
      O.Precision = true;
    } else if (Arg == "--static-only") {
      O.StaticOnly = true;
    } else if (Arg == "--json") {
      const char *V = Value("--json");
      if (!V)
        return 2;
      O.JsonFile = V;
    } else if (Arg == "--metrics") {
      O.Metrics = true;
    }
  }
  if (NeedsPositional() && O.Index.empty()) {
    std::fprintf(stderr, "error: '%s' expects a page argument\n",
                 modeName(O.M));
    return 2;
  }
  if (O.M == Mode::Replay && O.TraceFile.empty()) {
    std::fprintf(stderr, "error: 'replay' expects a trace-file argument\n");
    return 2;
  }
  if (O.M == Mode::Batch && O.TracesDir.empty()) {
    std::fprintf(stderr, "error: 'batch' requires --traces DIR\n");
    return 2;
  }
  return 0;
}

/// Loads --suppressions when given. Returns false (exit 1) on a parse
/// error; \p Loaded says whether \p File holds anything.
bool loadSuppressions(const std::string &Path, triage::SuppressionFile &File,
                      bool &Loaded) {
  Loaded = false;
  if (Path.empty())
    return true;
  std::string Error;
  if (!triage::SuppressionFile::load(Path, File, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  Loaded = true;
  return true;
}

/// Warns (stderr) about suppression entries that matched nothing, so
/// stale suppressions are noticed rather than rotting silently.
void warnUnmatchedSuppressions(const triage::SuppressionFile &File,
                               const std::vector<uint64_t> &Hits) {
  for (size_t I = 0; I < File.entries().size(); ++I)
    if (I >= Hits.size() || Hits[I] == 0)
      std::fprintf(stderr, "warning: suppression '%s' matched nothing\n",
                   File.entries()[I].Name.c_str());
}

/// Offline mode: deserialize a recorded trace and rerun detection.
int replayMain(const CliOptions &O) {
  std::ifstream In(O.TraceFile, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "error: cannot read %s\n", O.TraceFile.c_str());
    return 1;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  TraceLog Log;
  std::string Error;
  if (!TraceLog::deserialize(Buffer.str(), Log, &Error)) {
    std::fprintf(stderr, "error: %s: %s\n", O.TraceFile.c_str(),
                 Error.c_str());
    return 1;
  }
  Log.setSource(O.TraceFile);
  triage::SuppressionFile Suppressions;
  bool HaveSuppressions = false;
  if (!loadSuppressions(O.SuppressionsFile, Suppressions, HaveSuppressions))
    return 1;
  detect::ReplayOptions Opts;
  // Replay has no --seed; the default stream keeps repeated replays of
  // the same trace byte-identical.
  Opts.Detector.Sampling = O.samplingOptions(/*Seed=*/1);
  Opts.Predict = O.Predict;
  detect::ReplayResult R = detect::replayTrace(Log, Opts);
  if (HaveSuppressions) {
    std::vector<uint64_t> Hits;
    R.FilteredRaces = triage::applySuppressions(
        R.FilteredRaces, R.Hb, Suppressions, &R.Stats.Attrition, &Hits);
    R.Stats.Filtered = detect::tally(R.FilteredRaces);
    warnUnmatchedSuppressions(Suppressions, Hits);
  }
  std::printf("webracer: replaying %s (%zu events)\n", O.TraceFile.c_str(),
              Log.size());
  obs::Json Doc = buildReplayReport(O.TraceFile, R);
  printReportText(withoutMember(Doc, "races"));
  if (!O.JsonFile.empty() && !writeReportFile(O.JsonFile, Doc))
    return 1;
  if (O.Metrics)
    printMetrics(R.Stats);
  const std::vector<detect::Race> &Races =
      O.Raw ? R.RawRaces : R.FilteredRaces;
  std::printf("\n%s races: %s\n", O.Raw ? "raw" : "filtered",
              detect::summaryLine(Races).c_str());
  std::printf("%s", detect::describeRaces(Races, R.Hb).c_str());
  printPredictionSummary(R.Stats);
  return Races.empty() ? 0 : 1;
}

/// Corpus mode: run the synthetic Fortune-100 corpus, optionally in
/// parallel, and print Table 1-style aggregates plus throughput.
int corpusMain(const CliOptions &O) {
  triage::SuppressionFile Suppressions;
  bool HaveSuppressions = false;
  if (!loadSuppressions(O.SuppressionsFile, Suppressions, HaveSuppressions))
    return 1;
  std::printf("webracer: building corpus (seed %llu)...\n",
              static_cast<unsigned long long>(O.Seed));
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(O.Seed);
  if (O.Sites && O.Sites < Corpus.size())
    Corpus.resize(O.Sites);
  webracer::SessionOptions Opts;
  // runSite mixes each site's pre-drawn seed into this base, so the
  // per-site streams are independent yet --jobs invariant.
  Opts.Detector.Sampling = O.samplingOptions(O.Seed);
  if (HaveSuppressions)
    Opts.Suppressions = &Suppressions;
  // Corpus reports always carry the wr_prediction section: the corpus
  // seeds post-first-race and interval-skip patterns precisely so the
  // SHB/WCP deltas are measured alongside Table 1/2 (bench/baseline.json
  // holds them, and tools/diff_baseline.py compares every leaf).
  Opts.Predict = true;
  std::printf("running %zu sites with %u job(s)...\n", Corpus.size(),
              O.Jobs);
  auto Start = std::chrono::steady_clock::now();
  sites::CorpusStats Stats = runCorpus(Corpus, Opts, O.Seed, O.Jobs);
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  std::printf("\n%zu sites in %.2fs (%.1f sites/sec)\n", Stats.Sites.size(),
              Secs, Secs > 0 ? static_cast<double>(Stats.Sites.size()) / Secs
                             : 0.0);
  if (HaveSuppressions)
    warnUnmatchedSuppressions(Suppressions, Stats.suppressionHits());
  // The --json document excludes timing so it is byte-identical for any
  // --jobs count; per-site rows are elided from the terminal rendering.
  obs::Json Doc = sites::buildCorpusReport("fortune100", Stats);
  printReportText(withoutMember(Doc, "sites"));
  if (!O.JsonFile.empty() && !writeReportFile(O.JsonFile, Doc))
    return 1;
  if (O.Metrics)
    printMetrics(Stats.aggregate());
  return 0;
}

/// Batch mode: deduplicating ingest of a directory of recorded traces.
int batchMain(const CliOptions &O) {
  triage::SuppressionFile Suppressions;
  bool HaveSuppressions = false;
  if (!loadSuppressions(O.SuppressionsFile, Suppressions, HaveSuppressions))
    return 1;
  std::vector<std::string> Paths;
  std::string Error;
  if (!triage::listTraceFiles(O.TracesDir, Paths, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  if (Paths.empty()) {
    std::fprintf(stderr, "error: no .wrt traces in %s\n",
                 O.TracesDir.c_str());
    return 1;
  }
  triage::BatchOptions Opts;
  Opts.Jobs = O.Jobs;
  Opts.Replay.Detector.Sampling = O.samplingOptions(/*Seed=*/1);
  Opts.Replay.Predict = O.Predict;
  if (HaveSuppressions)
    Opts.Suppressions = &Suppressions;
  std::printf("webracer: ingesting %zu trace(s) from %s with %u job(s)...\n",
              Paths.size(), O.TracesDir.c_str(), O.Jobs);
  triage::BatchResult R = triage::runBatch(Paths, Opts);
  for (const triage::TraceIngest &In : R.Traces)
    if (!In.Ok)
      std::fprintf(stderr, "error: %s: %s\n", In.Path.c_str(),
                   In.Error.c_str());
  if (HaveSuppressions)
    warnUnmatchedSuppressions(Suppressions, R.SuppressionHits);
  obs::Json Doc = triage::buildBatchReport(O.TracesDir, R);
  printReportText(Doc);
  if (!O.JsonFile.empty() && !writeReportFile(O.JsonFile, Doc))
    return 1;
  if (O.Metrics)
    printMetrics(R.Aggregate);
  return R.TracesFailed ? 1 : 0;
}

/// Cross-check mode: static analysis alone (--static-only), the
/// static-vs-dynamic comparison, or the per-guard-class precision
/// accounting (--precision).
int crossCheckMain(const CliOptions &O) {
  if (!isPageFile(O.Index))
    return 1;
  analysis::PageSpec Page =
      pageSpecFromDisk(O.Index, O.Root, O.FixedLatency);

  if (O.StaticOnly) {
    analysis::StaticAnalysis A =
        analysis::analyzePage(Page.Html, Page.resolver());
    std::printf("webracer: static analysis of %s (%zu resources)\n",
                Page.EntryUrl.c_str(), Page.Resources.size());
    std::printf("effect sources: %zu, must-hb edges: %zu\n",
                A.Graph.sources().size(), A.Graph.numEdges());
    if (O.Trace)
      std::printf("\n-- static must-hb graph --\n%s\n",
                  A.Graph.toString().c_str());
    std::printf("\npredicted races: %zu\n", A.Races.size());
    for (const analysis::PredictedRace &P : A.Races)
      std::printf("  %s\n", analysis::toString(P).c_str());
    for (const std::string &Note : A.Notes)
      std::printf("note: %s\n", Note.c_str());
    return A.Races.empty() ? 0 : 1;
  }

  webracer::SessionOptions Opts;
  Opts.Browser.Seed = O.Seed;
  Opts.AutoExplore = O.Explore;
  analysis::CrossCheckResult R = analysis::crossCheck(Page, Opts);
  warnIfCut(R.Dynamic);

  if (O.Precision) {
    std::printf("webracer: static precision of %s (%zu resources, seed "
                "%llu)\n\n",
                Page.EntryUrl.c_str(), Page.Resources.size(),
                static_cast<unsigned long long>(O.Seed));
    const analysis::StaticPrecision &P = R.Precision;
    std::printf("%-20s %9s %9s %7s\n", "guard class", "predicted",
                "confirmed", "refuted");
    static const analysis::GuardClass Classes[3] = {
        analysis::GuardClass::Unguarded,
        analysis::GuardClass::GuardedOneSide,
        analysis::GuardClass::GuardedBothSides};
    for (analysis::GuardClass C : Classes) {
      const analysis::GuardClassCounts &N =
          P.ByClass[static_cast<size_t>(C)];
      std::printf("%-20s %9llu %9llu %7llu\n", analysis::toString(C),
                  static_cast<unsigned long long>(N.Predicted),
                  static_cast<unsigned long long>(N.Confirmed),
                  static_cast<unsigned long long>(N.Refuted));
    }
    std::printf("%-20s %9llu %9llu %7llu\n", "total",
                static_cast<unsigned long long>(P.Predicted),
                static_cast<unsigned long long>(P.Confirmed),
                static_cast<unsigned long long>(P.Refuted));
    std::printf("\nrefuted by guards: %llu (guarded-both-sides with no "
                "dynamic counterpart)\n",
                static_cast<unsigned long long>(P.RefutedByGuards));
    std::printf("recall: %s, missed dynamic races: %zu\n",
                R.recall() == 1.0 ? "1.00" : "DEGRADED",
                R.missedCount());
    for (const analysis::PredictedRace &Pr : R.Confirmed)
      std::printf("  [confirmed] %s\n", analysis::toString(Pr).c_str());
    for (const analysis::PredictedRace &Pr : R.Refuted)
      std::printf("  [refuted]   %s\n", analysis::toString(Pr).c_str());
  } else {
    std::printf("webracer: cross-check of %s (%zu resources, seed "
                "%llu)\n\n",
                Page.EntryUrl.c_str(), Page.Resources.size(),
                static_cast<unsigned long long>(O.Seed));
    std::printf("%s", analysis::formatReport(R).c_str());
  }
  obs::Json Doc = analysis::buildCrossCheckReport({R});
  if (!O.JsonFile.empty() && !writeReportFile(O.JsonFile, Doc))
    return 1;
  if (O.Metrics)
    printMetrics(R.Dynamic.Stats);
  return R.missedCount() == 0 ? 0 : 1;
}

/// Page mode: run detection over a page stored on disk.
int pageMain(const CliOptions &O) {
  if (!isPageFile(O.Index))
    return 1;
  triage::SuppressionFile Suppressions;
  bool HaveSuppressions = false;
  if (!loadSuppressions(O.SuppressionsFile, Suppressions, HaveSuppressions))
    return 1;

  webracer::SessionOptions Opts;
  Opts.Browser.Seed = O.Seed;
  Opts.AutoExplore = O.Explore;
  Opts.Detector.Sampling = O.samplingOptions(O.Seed);
  Opts.Predict = O.Predict;
  if (HaveSuppressions)
    Opts.Suppressions = &Suppressions;
  Opts.RecordTrace = O.Trace || !O.RecordFile.empty();
  webracer::Session S(Opts);

  // Register the tree under the resource root.
  size_t Registered = 0;
  std::error_code Ec;
  if (fs::is_directory(O.Root, Ec)) {
    for (const auto &Entry :
         fs::recursive_directory_iterator(O.Root, Ec)) {
      if (!Entry.is_regular_file())
        continue;
      std::string Url =
          fs::relative(Entry.path(), O.Root, Ec).generic_string();
      std::string Body = readFile(Entry.path());
      if (O.FixedLatency)
        S.network().addResource(Url, Body, O.FixedLatency);
      else
        S.network().addResourceWithJitter(Url, Body, 500, 3000);
      ++Registered;
    }
  }
  std::string IndexUrl =
      fs::relative(O.Index, O.Root, Ec).generic_string();
  if (!S.network().hasResource(IndexUrl)) {
    S.network().addResource(IndexUrl, readFile(O.Index), 10);
    ++Registered;
  } else {
    // Make the page itself arrive promptly.
    S.network().overrideLatency(IndexUrl, 10);
  }

  std::printf("webracer: loading %s (%zu resources, seed %llu)\n",
              IndexUrl.c_str(), Registered,
              static_cast<unsigned long long>(O.Seed));
  webracer::SessionResult R = S.run(IndexUrl);
  warnIfCut(R);
  if (HaveSuppressions)
    warnUnmatchedSuppressions(Suppressions, R.SuppressionHits);

  obs::Json Doc = webracer::buildRunReport(IndexUrl, R, S.browser().hb(),
                                           /*IncludeTiming=*/true);
  printReportText(withoutMember(Doc, "races"));
  if (!R.ParseErrors.empty()) {
    std::printf("script parse errors:\n");
    for (const std::string &E : R.ParseErrors)
      std::printf("  %s\n", E.c_str());
  }
  if (!R.Crashes.empty()) {
    std::printf("uncaught exceptions (hidden crashes):\n");
    for (const std::string &C : R.Crashes)
      std::printf("  %s\n", C.c_str());
  }

  if (!O.RecordFile.empty() && S.trace()) {
    std::ofstream Out(O.RecordFile, std::ios::binary | std::ios::trunc);
    std::string Bytes = S.trace()->serialize();
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   O.RecordFile.c_str());
      return 1;
    }
    std::printf("trace: %zu events, %zu bytes -> %s\n",
                S.trace()->size(), Bytes.size(), O.RecordFile.c_str());
  }

  if (!O.JsonFile.empty() && !writeReportFile(O.JsonFile, Doc))
    return 1;
  if (O.Metrics)
    printMetrics(R.Stats);

  const std::vector<detect::Race> &Races =
      O.Raw ? R.RawRaces : R.FilteredRaces;
  std::printf("\n%s races: %s\n", O.Raw ? "raw" : "filtered",
              detect::summaryLine(Races).c_str());
  std::printf("%s", detect::describeRaces(Races,
                                          S.browser().hb()).c_str());
  printPredictionSummary(R.Stats);

  if (O.Trace && S.trace())
    std::printf("\n-- trace --\n%s", S.trace()->toString().c_str());
  return Races.empty() ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);

  CliOptions O;
  std::string First = Argv[1];
  if (First == "--help" || First == "-h") {
    usage(Argv[0]);
    return 0;
  }
  if (First == "page") {
    O.M = Mode::Page;
  } else if (First == "replay") {
    O.M = Mode::Replay;
  } else if (First == "corpus") {
    O.M = Mode::Corpus;
  } else if (First == "cross-check") {
    O.M = Mode::CrossCheck;
  } else if (First == "batch") {
    O.M = Mode::Batch;
  } else {
    std::fprintf(stderr, "error: unknown subcommand '%s'\n", First.c_str());
    return usage(Argv[0]);
  }

  std::vector<std::string> Args(Argv + 2, Argv + Argc);
  if (int Rc = parseModeArgs(O, Args, Argv[0]))
    return Rc;
  switch (O.M) {
  case Mode::Page:
    return pageMain(O);
  case Mode::Replay:
    return replayMain(O);
  case Mode::Corpus:
    return corpusMain(O);
  case Mode::CrossCheck:
    return crossCheckMain(O);
  case Mode::Batch:
    return batchMain(O);
  }
  return 2;
}
