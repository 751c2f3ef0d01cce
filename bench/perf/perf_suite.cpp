//===- bench/perf/perf_suite.cpp - End-to-end and per-layer benchmark ---------===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload in this (single-threaded) process and reports its
// end-to-end metrics, or with --trace its per-layer metrics. The metric
// names, units and regression bounds are listed in BENCHMARK.json at the
// repository root; bench/perf/README.md explains each of them.
//
// Usage:
//   perf_suite --workload corpus|pages|batch|synth|kernels
//              [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//   perf_suite --selftest
//
// A run sets the workload up several times (each set-up ends with one
// warm-up pass; setup_s is their median) and runs passes until they have
// taken --seconds. A traced run alternates untraced and traced
// passes, so the tracing overhead is measured in the same process. The
// last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --out writes the full result (run metadata, every metric, every span
// and counter) for compare.py.
//
// --selftest plants one fault per oracle and exits non-zero unless every
// oracle reports it.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "obs/Json.h"
#include "support/Watermarks.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace perf;
using wr::obs::Json;

namespace {

const char *const WorkloadNames[] = {"corpus", "pages", "batch", "synth",
                                     "kernels"};

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Reported with --trace (BENCHMARK.json "per_layer"). A layer a
/// workload does not run reads 0.
const MetricDef LayerSpans[] = {
    {"sites.generate_ms", "ms"},     {"webracer.session_ms", "ms"},
    {"runtime.load_ms", "ms"},       {"explore.run_ms", "ms"},
    {"detect.online_ms", "ms"},      {"detect.predict_ms", "ms"},
    {"analysis.static_ms", "ms"},    {"analysis.crosscheck_ms", "ms"},
    {"triage.sign_ms", "ms"},        {"triage.merge_ms", "ms"},
    {"triage.batch_ms", "ms"},       {"obs.report_ms", "ms"},
    {"instr.read_ms", "ms"},         {"instr.decode_ms", "ms"},
    {"hb.build_ms", "ms"},           {"detect.replay_ms", "ms"},
    {"detect.access_ms", "ms"},      {"js.parse_ms", "ms"},
    {"js.run_bare_ms", "ms"},        {"js.run_instrumented_ms", "ms"},
    {"detect.hook_ms", "ms"},
};
const MetricDef LayerCounters[] = {
    {"hb.operations", "count"},
    {"hb.edges", "count"},
    {"hb.vc_chains", "count"},
    {"hb.clock_bytes", "B"},
    {"hb.shared_clock_ratio", "ratio"},
    {"detect.accesses", "count"},
    {"detect.read_share", "ratio"},
    {"detect.epoch_hit_rate", "ratio"},
    {"detect.chc_queries", "count"},
    {"detect.read_inflations", "count"},
    {"detect.detector_bytes", "B"},
    {"detect.raw_races", "count"},
    {"detect.filter_keep_ratio", "ratio"},
    {"detect.predicted_races", "count"},
    {"detect.predict_yield", "ratio"},
    {"detect.observed_unpredicted", "count"},
    {"instr.trace_bytes", "B"},
    {"instr.trace_events", "count"},
    {"analysis.static_predicted", "count"},
    {"analysis.static_precision", "ratio"},
    {"triage.signatures", "count"},
    {"triage.groups", "count"},
    {"triage.dedup_ratio", "ratio"},
    {"runtime.tasks_run", "count"},
    {"explore.events_dispatched", "count"},
};

/// Set-up repeats at least MinSetups times and until MinSetupSec have
/// been spent on it, so that even millisecond set-ups get a steady median.
/// The repeats are spread evenly over the passes: each one replaces the
/// workload, so set-up and passes see the same machine load.
constexpr size_t MinSetups = 3;
constexpr size_t MaxSetups = 25;
constexpr double MinSetupSec = 1;
constexpr size_t MinPasses = 3;
/// The traced pass's non-probe spans must cover it to within this share.
constexpr double PartitionTolerancePct = 5;

struct Options {
  std::string Workload;
  uint64_t Seed = 2012;
  double Seconds = 10;
  bool Trace = false;
  std::string Out;
  bool SelfTest = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: perf_suite --workload corpus|pages|batch|synth|kernels"
               "\n                  [--seed N] [--seconds S] [--trace [0|1]]"
               " [--out FILE]\n       perf_suite --selftest\n");
  return 2;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    bool HasValue = I + 1 < Argc;
    char *End = nullptr;
    if (Arg == "--selftest") {
      O.SelfTest = true;
    } else if (Arg == "--trace") {
      O.Trace = true;
      if (HasValue && (std::strcmp(Argv[I + 1], "0") == 0 ||
                       std::strcmp(Argv[I + 1], "1") == 0))
        O.Trace = Argv[++I][0] == '1';
    } else if (Arg == "--workload" && HasValue) {
      O.Workload = Argv[++I];
    } else if (Arg == "--out" && HasValue) {
      O.Out = Argv[++I];
    } else if (Arg == "--seed" && HasValue) {
      O.Seed = std::strtoull(Argv[++I], &End, 10);
      if (*Argv[I] == '\0' || *End != '\0')
        return false;
    } else if (Arg == "--seconds" && HasValue) {
      O.Seconds = std::strtod(Argv[++I], &End);
      if (*End != '\0' || !(O.Seconds > 0) || O.Seconds > 600)
        return false;
    } else {
      return false;
    }
  }
  if (O.SelfTest)
    return O.Workload.empty();
  return std::find(std::begin(WorkloadNames), std::end(WorkloadNames),
                   O.Workload) != std::end(WorkloadNames);
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const std::filesystem::path &WorkDir) {
  if (Name == "corpus")
    return makeCorpusWorkload();
  if (Name == "pages")
    return makePagesWorkload();
  if (Name == "batch")
    return makeBatchWorkload(WorkDir);
  if (Name == "synth")
    return makeSynthWorkload();
  return makeKernelsWorkload();
}

/// Linear interpolation between closest ranks; \p Q in [0, 1].
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

Json metricsJson(const std::vector<std::pair<MetricDef, double>> &Metrics) {
  Json J = Json::object();
  for (const auto &[Def, Value] : Metrics) {
    Json M = Json::object();
    M.set("value", Value);
    M.set("unit", Def.Unit);
    J.set(Def.Name, std::move(M));
  }
  return J;
}

void printMetrics(const char *Title,
                  const std::vector<std::pair<MetricDef, double>> &Metrics) {
  std::printf("%s\n", Title);
  for (const auto &[Def, Value] : Metrics)
    std::printf("  %-28s %16.6f %s\n", Def.Name, Value, Def.Unit);
}

std::filesystem::path workDirFor(const char *Argv0) {
  return std::filesystem::absolute(Argv0).parent_path() /
         ("work-" + std::to_string(getpid()));
}

int selfTest(const std::filesystem::path &WorkDir) {
  int Missed = 0;
  for (const char *Name : WorkloadNames) {
    std::unique_ptr<Workload> W = makeWorkload(Name, WorkDir);
    Tracer SetupSpans;
    W->setup(2012, /*InjectFault=*/true, SetupSpans);
    PassResult R = W->pass(nullptr);
    bool Fired = R.Failed > 0;
    Missed += !Fired;
    std::printf("selftest %-8s fail_frac %.4f (%llu/%llu) %s\n", Name,
                R.Attempted ? static_cast<double>(R.Failed) /
                                  static_cast<double>(R.Attempted)
                            : 0.0,
                static_cast<unsigned long long>(R.Failed),
                static_cast<unsigned long long>(R.Attempted),
                Fired ? "fired" : "MISSED");
  }
  std::printf("selftest: %s\n", Missed ? "FAIL" : "OK (every oracle fired)");
  return Missed ? 1 : 0;
}

int run(const Options &O, const std::filesystem::path &WorkDir) {
  Tracer SetupSpans;
  std::vector<double> SetupSec;
  std::unique_ptr<Workload> W;
  auto SetUp = [&] {
    W.reset();
    Clock::time_point Start = Clock::now();
    W = makeWorkload(O.Workload, WorkDir);
    W->setup(O.Seed, /*InjectFault=*/false, SetupSpans);
    W->pass(nullptr); // Warm-up.
    SetupSec.push_back(secondsSince(Start));
  };
  SetUp();
  size_t Setups = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(MinSetupSec / SetupSec.front())),
      MinSetups, MaxSetups);

  // Only pass time counts towards --seconds.
  std::vector<PassResult> Untraced, Traced;
  std::vector<Tracer> Traces;
  double PassSec = 0;
  for (;;) {
    bool Enough = PassSec >= O.Seconds && Untraced.size() >= MinPasses &&
                  (!O.Trace || Traced.size() >= MinPasses);
    double Due = O.Seconds * static_cast<double>(SetupSec.size()) /
                 static_cast<double>(Setups);
    if (SetupSec.size() < Setups && (Enough || PassSec >= Due)) {
      SetUp();
      continue;
    }
    if (Enough)
      break;
    Clock::time_point PassStart = Clock::now();
    if (O.Trace && Traced.size() < Untraced.size()) {
      Traces.emplace_back();
      Traced.push_back(W->pass(&Traces.back()));
    } else {
      Untraced.push_back(W->pass(nullptr));
    }
    PassSec += secondsSince(PassStart);
  }

  uint64_t Attempted = 0, Failed = 0;
  bool CountersStable = true;
  const PassResult &First = Untraced.front();
  for (const std::vector<PassResult> *Set : {&Untraced, &Traced})
    for (const PassResult &R : *Set) {
      Attempted += R.Attempted;
      Failed += R.Failed;
      CountersStable &= R.Counters == First.Counters;
    }

  std::vector<double> Analysed, Bare, Items;
  for (const PassResult &R : Untraced) {
    Analysed.push_back(R.AnalysedSec);
    Bare.push_back(R.BareSec);
    Items.insert(Items.end(), R.ItemMs.begin(), R.ItemMs.end());
  }
  double Wall = median(Analysed);
  // Reported with tracing off (BENCHMARK.json "end_to_end").
  std::vector<std::pair<MetricDef, double>> E2e = {
      {{"setup_s", "s"}, median(SetupSec)},
      {{"wall_s", "s"}, Wall},
      {{"item_p50_ms", "ms"}, quantile(Items, 0.5)},
      {{"ops_per_s", "1/s"}, static_cast<double>(First.Ops) / Wall},
      {{"accesses_per_s", "1/s"}, static_cast<double>(First.Accesses) / Wall},
      {{"overhead_x", "x"}, Wall / median(Bare)},
      {{"peak_rss_mb", "MB"}, peakRssMb()},
  };
  // The latency tail is printed and written to --out but carries no
  // bound: where items are alike (synth, kernels) it lands on whichever
  // side of other tenants' load the run happened to see.
  std::vector<std::pair<MetricDef, double>> Reported = E2e;
  Reported.push_back({{"item_p90_ms", "ms"}, quantile(Items, 0.9)});
  double FailFrac = static_cast<double>(Failed) /
                    static_cast<double>(std::max<uint64_t>(Attempted, 1));

  std::vector<std::pair<MetricDef, double>> Layers;
  std::map<std::string, double> AllSpans;
  double PartitionPct = 0, OverheadPct = 0, TracedPassMs = 0;
  if (O.Trace) {
    std::vector<double> TracedMs, Partition;
    for (size_t I = 0; I < Traced.size(); ++I) {
      double PassMs = Traced[I].AnalysedSec * 1e3;
      TracedMs.push_back(PassMs);
      Partition.push_back(100 * Traces[I].nonProbeMs() / PassMs);
      for (const Tracer::Entry &E : Traces[I].entries())
        AllSpans[E.Name] = 0;
    }
    for (auto &[Name, Ms] : AllSpans) {
      std::vector<double> PerPass;
      for (const Tracer &T : Traces)
        PerPass.push_back(T.ms(Name));
      Ms = median(PerPass);
    }
    // Set-up spans are timed once per set-up, not per pass.
    std::vector<double> Generate;
    for (const Tracer::Entry &E : SetupSpans.entries())
      Generate.push_back(E.Ms);
    if (!Generate.empty())
      AllSpans["sites.generate_ms"] = median(Generate);
    for (const MetricDef &D : LayerSpans)
      Layers.push_back({D, AllSpans.count(D.Name) ? AllSpans[D.Name] : 0.0});
    TracedPassMs = median(TracedMs);
    PartitionPct = median(Partition);
    OverheadPct = 100 * (TracedPassMs - Wall * 1e3) / (Wall * 1e3);
    Layers.push_back({{"trace.pass_ms", "ms"}, TracedPassMs});
    Layers.push_back({{"trace.partition_pct", "%"}, PartitionPct});
    Layers.push_back({{"trace_overhead_pct", "%"}, OverheadPct});
  }
  std::vector<std::pair<MetricDef, double>> Counters;
  for (const MetricDef &D : LayerCounters) {
    double V = 0;
    for (const auto &[Name, Value] : First.Counters)
      if (Name == D.Name)
        V = Value;
    Counters.push_back({D, V});
  }
  if (O.Trace)
    Layers.insert(Layers.end(), Counters.begin(), Counters.end());

  // Human-readable report.
  std::printf("perf_suite: workload %s, seed %llu, %zu untraced + %zu "
              "traced passes in %.1f s, %zu set-ups, %zu items\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              Untraced.size(), Traced.size(), PassSec, SetupSec.size(),
              Items.size());
  std::printf("correctness: %llu/%llu oracle items failed (fail_frac %.4f)%s\n",
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted), FailFrac,
              CountersStable ? ""
                             : "; WARNING: counters differ between passes");
  bool PartitionOk = true;
  if (O.Trace) {
    printMetrics("per-layer (ms per pass; probes excluded from the partition):",
                 Layers);
    PartitionOk = std::abs(PartitionPct - 100) <= PartitionTolerancePct;
    std::printf("partition: non-probe spans cover %.2f%% of the traced pass "
                "(%s); tracing overhead %.2f%%\n",
                PartitionPct, PartitionOk ? "ok" : "OFF BY MORE THAN 5%",
                OverheadPct);
  } else {
    printMetrics("end-to-end:", Reported);
  }

  if (!O.Out.empty()) {
    Json Doc = Json::object();
    Json Meta = Json::object();
    const char *Sha = std::getenv("PERF_GIT_SHA");
    Meta.set("git_sha", Sha && *Sha ? Sha : "unknown");
    Meta.set("compiler", PERF_COMPILER);
    Meta.set("build_type", PERF_BUILD_TYPE);
    Meta.set("isa", wr::support::watermarksIsa());
    Meta.set("nproc", std::thread::hardware_concurrency());
    Meta.set("seed", O.Seed);
    Meta.set("seconds", O.Seconds);
    Meta.set("setup_runs", static_cast<uint64_t>(SetupSec.size()));
    Meta.set("untraced_passes", static_cast<uint64_t>(Untraced.size()));
    Meta.set("traced_passes", static_cast<uint64_t>(Traced.size()));
    Meta.set("item_samples", static_cast<uint64_t>(Items.size()));
    Doc.set("workload", O.Workload);
    Doc.set("trace", O.Trace);
    Doc.set("meta", std::move(Meta));
    Doc.set("correct", Failed == 0);
    Doc.set("attempted", Attempted);
    Doc.set("failed", Failed);
    Doc.set("fail_frac", FailFrac);
    Doc.set("counters_stable", CountersStable);
    Json PassSec = Json::array();
    for (double Sec : Analysed)
      PassSec.push(Sec);
    Doc.set("pass_s", std::move(PassSec));
    Doc.set("metrics", metricsJson(Reported));
    Doc.set("counters", metricsJson(Counters));
    if (O.Trace) {
      Json Spans = Json::object();
      for (const auto &[Name, Ms] : AllSpans)
        Spans.set(Name, Ms);
      Doc.set("spans_ms", std::move(Spans));
      Doc.set("trace_pass_ms", TracedPassMs);
      Doc.set("partition_pct", PartitionPct);
      Doc.set("partition_ok", PartitionOk);
      Doc.set("trace_overhead_pct", OverheadPct);
    }
    std::ofstream Out(O.Out, std::ios::binary | std::ios::trunc);
    Out << wr::obs::writeJson(Doc);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", O.Out.c_str());
      return 1;
    }
  }

  Json Result = Json::object();
  Result.set("correct", Failed == 0);
  Result.set("attempted", Attempted);
  Result.set("failed", Failed);
  Result.set("metrics", metricsJson(O.Trace ? Layers : E2e));
  std::printf("%s\n", wr::obs::writeJson(Result, /*Pretty=*/false).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return usage();
  std::filesystem::path WorkDir = workDirFor(Argv[0]);
  try {
    return O.SelfTest ? selfTest(WorkDir) : run(O, WorkDir);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perf_suite: %s\n", E.what());
    return 1;
  }
}
