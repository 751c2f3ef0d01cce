//===- bench/parallel_corpus.cpp - Thread-pool corpus throughput ---------------===//
//
// Measures corpus throughput (sites/sec) of the thread-pool runCorpus at
// --jobs 1/2/4/8 and asserts that every job count produces the *identical*
// schema-1 corpus report, byte for byte (per-site stats, aggregate,
// distributions, filtered totals). Sessions are self-contained and
// per-site seeds are pre-drawn in corpus order, so parallelism must not
// change any result; a mismatch is a bug and exits 1.
//
// An optional argument names a file to receive the jobs=1 report, so CI
// can archive it and diff it against a checked-in baseline:
//
//   parallel_corpus [report.json]
//
//===----------------------------------------------------------------------===//

#include "sites/CorpusReport.h"
#include "sites/CorpusRunner.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

using namespace wr;
using namespace wr::sites;

int main(int Argc, char **Argv) {
  const uint64_t Seed = 2012;
  std::printf("== parallel corpus: sites/sec by job count ==\n");
  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());
  std::printf("building corpus (seed %llu)...\n",
              static_cast<unsigned long long>(Seed));
  std::vector<GeneratedSite> Corpus = buildFortune100Corpus(Seed);
  webracer::SessionOptions Opts;

  const unsigned JobCounts[] = {1, 2, 4, 8};
  std::string BaselineReport;
  obs::RunStats BaselineAggregate;
  double BaselineSecs = 0;
  bool Mismatch = false;

  std::printf("\n%6s | %8s | %10s | %8s\n", "jobs", "secs", "sites/sec",
              "speedup");
  std::printf("-------+----------+------------+---------\n");
  for (unsigned Jobs : JobCounts) {
    auto Start = std::chrono::steady_clock::now();
    CorpusStats Stats = runCorpus(Corpus, Opts, Seed, Jobs);
    double Secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    // Timing stays out of the document, so any byte difference is a
    // determinism bug, not clock noise.
    std::string Report =
        obs::writeJson(buildCorpusReport("fortune100", Stats));
    if (Jobs == 1) {
      BaselineReport = Report;
      BaselineAggregate = Stats.aggregate();
      BaselineSecs = Secs;
    } else if (Report != BaselineReport) {
      Mismatch = true;
      std::printf("MISMATCH at --jobs %u: report differs from jobs=1 "
                  "(%zu vs %zu bytes)\n",
                  Jobs, Report.size(), BaselineReport.size());
    }
    std::printf("%6u | %8.2f | %10.1f | %7.2fx\n", Jobs, Secs,
                Secs > 0 ? static_cast<double>(Stats.Sites.size()) / Secs
                         : 0.0,
                Secs > 0 ? BaselineSecs / Secs : 0.0);
  }

  if (Mismatch) {
    std::printf("\nFAIL: corpus reports differ across job counts\n");
    return 1;
  }
  if (Argc > 1) {
    std::ofstream Out(Argv[1], std::ios::binary | std::ios::trunc);
    Out.write(BaselineReport.data(),
              static_cast<std::streamsize>(BaselineReport.size()));
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", Argv[1]);
      return 1;
    }
    std::printf("\nreport: %zu bytes -> %s\n", BaselineReport.size(),
                Argv[1]);
  }
  std::printf("\nOK: byte-identical corpus report at every job count "
              "(raw=%llu filtered=%llu)\n",
              static_cast<unsigned long long>(BaselineAggregate.Raw.total()),
              static_cast<unsigned long long>(
                  BaselineAggregate.Filtered.total()));
  return 0;
}
