//===- bench/perf/Suite.h - Workloads of the perf suite ---------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every perf_suite workload provides. A workload builds its inputs
/// and oracles once (set-up), then runs passes. Each pass times two
/// things: the analysed run (what the user of the tool waits for; its
/// median is wall_s) and a bare run of the same inputs with no race
/// analysis (the overhead_x denominator). Passes also check the outputs
/// against independent oracles and count the work done.
///
/// Per-layer time comes from spans the workload records around its own
/// calls into each module's public functions, so nothing inside the
/// library is instrumented. A probe span re-runs one layer in isolation
/// to split a composite span; it lies outside the analysed run and is
/// excluded from the partition check.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_BENCH_PERF_SUITE_H
#define WEBRACER_BENCH_PERF_SUITE_H

#include "obs/RunStats.h"

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perf {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// The spans (and derived layer times) of one traced pass, in ms.
class Tracer {
public:
  struct Entry {
    std::string Name;
    double Ms = 0;
    bool Probe = false;
  };

  void add(const std::string &Name, double Ms, bool Probe);
  /// Sum of every span named \p Name (0 when none was recorded).
  double ms(const std::string &Name) const;
  /// Sum of the non-probe spans: what should partition the analysed run.
  double nonProbeMs() const;
  /// Records a layer time computed from other spans (never partitioned).
  void derive(const std::string &Name, double Ms) { add(Name, Ms, true); }

  const std::vector<Entry> &entries() const { return Entries; }

private:
  std::vector<Entry> Entries;
};

/// Times its scope into \p T under \p Name; does nothing when \p T is null
/// (untraced passes pay one branch).
class Span {
public:
  Span(Tracer *T, const char *Name, bool Probe = false)
      : T(T), Name(Name), Probe(Probe) {
    if (T)
      Start = Clock::now();
  }
  ~Span() {
    if (T)
      T->add(Name, secondsSince(Start) * 1e3, Probe);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
  const char *Name;
  bool Probe;
  Clock::time_point Start;
};

/// What one pass measured and checked.
struct PassResult {
  double AnalysedSec = 0;
  double BareSec = 0;
  /// Per-item latencies of the analysed run (a site, a replay, ...).
  std::vector<double> ItemMs;
  /// Oracle items checked and failed.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// HB operations and detector accesses the analysed run processed.
  uint64_t Ops = 0;
  uint64_t Accesses = 0;
  /// Exact per-pass counts, by per-layer metric name.
  std::vector<std::pair<std::string, double>> Counters;

  void count(std::string Name, double V) {
    Counters.emplace_back(std::move(Name), V);
  }
  /// Adds the hb/detect counters of an aggregate run record. \p Chains
  /// is the widest clock among the runs merged into \p S.
  void countRunStats(const wr::obs::RunStats &S, uint64_t Chains);
  /// Counts one oracle item.
  void check(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }
};

/// One named workload.
class Workload {
public:
  virtual ~Workload() = default;
  /// Builds inputs and oracles from \p Seed. \p InjectFault plants the
  /// workload's self-test fault, which its oracle must catch. Set-up
  /// spans (sites.generate_ms) go to \p SetupSpans.
  virtual void setup(uint64_t Seed, bool InjectFault, Tracer &SetupSpans) = 0;
  /// Runs one pass; \p T is null for untraced passes.
  virtual PassResult pass(Tracer *T) = 0;
};

/// The five workloads. \p WorkDir is a work directory the workload may
/// create and must remove again (batch writes its traces there).
std::unique_ptr<Workload> makeCorpusWorkload();
std::unique_ptr<Workload> makePagesWorkload();
std::unique_ptr<Workload> makeBatchWorkload(std::filesystem::path WorkDir);
std::unique_ptr<Workload> makeSynthWorkload();
std::unique_ptr<Workload> makeKernelsWorkload();

} // namespace perf

#endif // WEBRACER_BENCH_PERF_SUITE_H
