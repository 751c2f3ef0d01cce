//===- bench/ablation_hb_repr.cpp - HB representation ablation ----------------===//
//
// The paper represents happens-before "rather directly as a graph
// structure" and blames repeated traversals for much of its overhead,
// naming vector clocks as future work (Sec. 5.2.1). HbGraph answers
// every query from its clock index; this ablation keeps the paper's
// memoized graph DFS (MemoDfs below, the one copy in the tree) and
// measures CHC query throughput under both representations on
// web-execution-shaped DAGs (long parse/dispatch chains with cross
// edges) at several sizes, then cross-validates them over the whole
// synthetic Fortune-100 corpus: for every site's final happens-before
// graph, MemoDfs and HbGraph::happensBefore must answer every ordered
// (A, B) pair identically (any disagreement is a soundness bug and
// exits 1).
//
// Like table1/perf_overhead, results are emitted through the schema-1
// report builders: a text rendering to stdout and, with an argument, the
// byte-stable JSON document:
//
//   ablation_hb_repr [report.json]
//
//===----------------------------------------------------------------------===//

#include "hb/HbGraph.h"
#include "obs/Json.h"
#include "obs/Reporter.h"
#include "sites/Corpus.h"
#include "sites/CorpusRunner.h"
#include "support/Rng.h"
#include "webracer/Session.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

using namespace wr;

namespace {

/// The paper's graph strategy: an iterative DFS over
/// HbGraph::successors(), restricted to ids in (A, B] because edges
/// ascend, plus a memo of every answered pair. The memo is sound because
/// the builder only adds edges to the newest operation, so the verdict
/// between two existing operations never changes. The graph must not
/// grow while a MemoDfs is in use.
class MemoDfs {
public:
  explicit MemoDfs(const HbGraph &G)
      : G(G), VisitEpoch(G.numOperations() + 1, 0) {}

  bool reaches(OpId A, OpId B) {
    if (A >= B)
      return false;
    uint64_t Key = (static_cast<uint64_t>(A) << 32) | B;
    auto Memo = Answers.find(Key);
    if (Memo != Answers.end())
      return Memo->second;
    ++Epoch;
    bool Found = false;
    Stack.assign(1, A);
    VisitEpoch[A] = Epoch;
    while (!Stack.empty() && !Found) {
      OpId Cur = Stack.back();
      Stack.pop_back();
      for (OpId Next : G.successors(Cur)) {
        if (Next == B) {
          Found = true;
          break;
        }
        if (Next > B || VisitEpoch[Next] == Epoch)
          continue;
        VisitEpoch[Next] = Epoch;
        Stack.push_back(Next);
      }
    }
    Answers.emplace(Key, Found);
    return Found;
  }

private:
  const HbGraph &G;
  std::unordered_map<uint64_t, bool> Answers;
  std::vector<uint32_t> VisitEpoch;
  std::vector<OpId> Stack;
  uint32_t Epoch = 0;
};

/// Builds a web-like DAG: a main chain (parsing), periodic side chains
/// (dispatches, timers) that fork off and rejoin, and a fraction of
/// fully concurrent operations (user events).
void buildWebDag(HbGraph &G, size_t N, Rng &R) {
  Operation Meta;
  OpId ChainTail = G.addOperation(Meta);
  std::vector<OpId> All = {ChainTail};
  while (G.numOperations() < N) {
    double P = R.nextDouble();
    if (P < 0.6) {
      // Extend the main chain (parse ops).
      OpId Next = G.addOperation(Meta);
      G.addEdge(ChainTail, Next, HbRule::R1a_ParseOrder);
      ChainTail = Next;
      All.push_back(Next);
    } else if (P < 0.9) {
      // A dispatch: begin anchored to some creator, few handlers, end.
      OpId From = All[static_cast<size_t>(R.nextBelow(All.size()))];
      OpId Prev = G.addOperation(Meta);
      G.addEdge(From, Prev, HbRule::R8_TargetCreated);
      All.push_back(Prev);
      for (int H = 0; H < 3 && G.numOperations() < N; ++H) {
        OpId Handler = G.addOperation(Meta);
        G.addEdge(Prev, Handler, HbRule::RA_DispatchChain);
        Prev = Handler;
        All.push_back(Handler);
      }
    } else {
      // Fully concurrent op (user event).
      All.push_back(G.addOperation(Meta));
    }
  }
}

struct ThroughputRow {
  size_t Ops = 0;
  bool VectorClock = false;
  double QueriesPerSec = 0;
  uint64_t Positive = 0;
  size_t Chains = 0;
};

/// CHC query throughput for one (size, strategy) cell: a detector-shaped
/// workload (mostly recent op vs random older op) over a prebuilt DAG.
ThroughputRow measureThroughput(size_t N, bool UseVc) {
  ThroughputRow Row;
  Row.Ops = N;
  Row.VectorClock = UseVc;
  Rng R(99);
  HbGraph G;
  G.reserveOperations(N);
  buildWebDag(G, N, R);
  MemoDfs Dfs(G);
  auto Query = [&](OpId A, OpId B) {
    return UseVc ? G.happensBefore(A, B) : Dfs.reaches(A, B);
  };
  Rng QR(7);
  std::vector<std::pair<OpId, OpId>> Queries;
  for (int I = 0; I < 4096; ++I) {
    OpId B = static_cast<OpId>(QR.nextInRange(
        static_cast<int64_t>(N / 2), static_cast<int64_t>(N)));
    OpId A = static_cast<OpId>(QR.nextInRange(1, static_cast<int64_t>(B)));
    Queries.emplace_back(A, B);
  }
  // Pre-warm so lazy index construction is not billed to the queries
  // (bench/hb_scaling measures construction separately).
  (void)Query(1, static_cast<OpId>(G.numOperations()));
  const size_t Iterations = 400000;
  uint64_t Positive = 0;
  auto Start = std::chrono::steady_clock::now();
  for (size_t I = 0; I < Iterations; ++I) {
    const auto &[A, B] = Queries[I & 4095];
    Positive += Query(A, B);
  }
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  Row.QueriesPerSec = Secs > 0 ? static_cast<double>(Iterations) / Secs : 0;
  Row.Positive = Positive;
  Row.Chains = UseVc ? G.numChains() : 0;
  return Row;
}

struct ParityTotals {
  size_t Sites = 0;
  uint64_t Queries = 0;
  uint64_t Positive = 0;
  uint64_t Mismatches = 0;
};

/// Runs one site to completion and compares MemoDfs with the clocks on
/// every ordered pair of its final happens-before graph.
void checkSiteParity(const sites::GeneratedSite &Site, ParityTotals &T) {
  webracer::SessionOptions Opts;
  Opts.Browser.Seed = 42;
  webracer::Session S(Opts);
  S.network().addResource(Site.IndexUrl, Site.Html, 10);
  for (const sites::SiteResource &R : Site.Resources)
    S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                      R.MaxLatencyUs);
  (void)S.run(Site.IndexUrl);
  const HbGraph &G = S.browser().hb();
  size_t N = G.numOperations();
  MemoDfs Reference(G);
  ++T.Sites;
  for (OpId A = 1; A <= N; ++A)
    for (OpId B = A + 1; B <= N; ++B) {
      bool Dfs = Reference.reaches(A, B);
      bool Vc = G.happensBefore(A, B);
      ++T.Queries;
      T.Positive += Vc;
      if (Dfs != Vc) {
        if (++T.Mismatches <= 5)
          std::printf("MISMATCH: %s %u -> %u dfs=%d vc=%d\n",
                      Site.Name.c_str(), A, B, Dfs, Vc);
      }
    }
}

} // namespace

int main(int Argc, char **Argv) {
  std::printf("== HB representation ablation: graph DFS vs vector clock "
              "==\n\n");

  const size_t Sizes[] = {1000, 10000, 30000};
  std::vector<ThroughputRow> Rows;
  std::printf("%7s | %-14s | %12s | %8s | %7s\n", "ops", "strategy",
              "queries/sec", "positive", "chains");
  std::printf("--------+----------------+--------------+----------+-------"
              "-\n");
  for (size_t N : Sizes)
    for (bool UseVc : {false, true}) {
      ThroughputRow Row = measureThroughput(N, UseVc);
      std::printf("%7zu | %-14s | %12.0f | %8llu | %7zu\n", Row.Ops,
                  UseVc ? "vector-clock" : "graph-dfs-memo",
                  Row.QueriesPerSec,
                  static_cast<unsigned long long>(Row.Positive),
                  Row.Chains);
      Rows.push_back(Row);
    }

  // The throughput cells already share one query workload per size, so
  // the strategies' positive-answer counts must match cell for cell.
  int Failures = 0;
  for (size_t I = 0; I + 1 < Rows.size(); I += 2)
    if (Rows[I].Positive != Rows[I + 1].Positive) {
      std::printf("FAIL: positive-answer mismatch at %zu ops\n",
                  Rows[I].Ops);
      ++Failures;
    }

  std::printf("\ncorpus-wide parity: every happensBefore pair, both "
              "strategies...\n");
  ParityTotals Parity;
  for (const sites::GeneratedSite &Site : sites::buildFortune100Corpus(2012))
    checkSiteParity(Site, Parity);
  std::printf("%zu sites, %llu ordered pairs, %llu reachable, %llu "
              "mismatch(es)\n",
              Parity.Sites,
              static_cast<unsigned long long>(Parity.Queries),
              static_cast<unsigned long long>(Parity.Positive),
              static_cast<unsigned long long>(Parity.Mismatches));
  if (Parity.Mismatches)
    ++Failures;

  obs::Json Doc = obs::makeReportEnvelope("ablation", "hb_repr");
  obs::Json Cells = obs::Json::array();
  for (const ThroughputRow &Row : Rows) {
    obs::Json Cell = obs::Json::object();
    Cell.set("ops", static_cast<uint64_t>(Row.Ops));
    Cell.set("strategy", Row.VectorClock ? "vector-clock" : "graph-dfs-memo");
    Cell.set("positive", Row.Positive);
    Cell.set("chains", static_cast<uint64_t>(Row.Chains));
    Cells.push(std::move(Cell));
  }
  Doc.set("throughput_cells", std::move(Cells));
  obs::Json ParityJson = obs::Json::object();
  ParityJson.set("sites", static_cast<uint64_t>(Parity.Sites));
  ParityJson.set("queries", Parity.Queries);
  ParityJson.set("positive", Parity.Positive);
  ParityJson.set("mismatches", Parity.Mismatches);
  Doc.set("parity", std::move(ParityJson));
  // Throughput is wall-clock and machine-dependent, so it lives in the
  // "timing" section like every report's nondeterministic figures.
  obs::Json Timing = obs::Json::object();
  for (const ThroughputRow &Row : Rows)
    Timing.set((Row.VectorClock ? "vc_" : "dfs_") + std::to_string(Row.Ops),
               Row.QueriesPerSec);
  Doc.set("timing", std::move(Timing));

  std::string Text;
  obs::TextReporter(Text).emit(Doc);
  std::printf("\n%s", Text.c_str());

  if (Argc > 1) {
    std::string Out;
    obs::JsonReporter(Out).emit(Doc);
    std::ofstream File(Argv[1], std::ios::binary | std::ios::trunc);
    File.write(Out.data(), static_cast<std::streamsize>(Out.size()));
    if (!File) {
      std::fprintf(stderr, "error: cannot write %s\n", Argv[1]);
      return 1;
    }
    std::printf("report: %zu bytes -> %s\n", Out.size(), Argv[1]);
  }

  if (Failures) {
    std::printf("\nFAIL: strategies disagree\n");
    return 1;
  }
  std::printf("\nOK: MemoDfs and the vector clocks agree on every query\n");
  return 0;
}
