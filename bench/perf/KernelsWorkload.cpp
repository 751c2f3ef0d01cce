//===- bench/perf/KernelsWorkload.cpp - interpreter kernels workload ----------===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// kernels: the four SunSpider-style kernels of bench/perf_overhead, run
// bare and then instrumented through JsHooks into a RaceDetector over two
// ordered operations. This is the detect layer used without a browser, an
// HB build or a phase timer: ~164k accesses per pass, mostly reads, so
// the access hot path and the hook cost show here (the paper's Sec. 6
// interpreter slowdown).
//
// The seed does not change these programs; their answers are computed
// independently in C++ and checked on every run.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "detect/RaceDetector.h"
#include "js/Interpreter.h"
#include "js/Parser.h"
#include "js/StdLib.h"

#include <algorithm>
#include <cmath>
#include <vector>

using namespace wr;
using namespace perf;

namespace {

const char *const Kernels[] = {
    // controlflow-recursive
    "function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }"
    "var result = fib(16);",
    // math-partial-sums
    "var s = 0;"
    "for (var i = 1; i <= 5000; i++) {"
    "  s += 1 / (i * i) + Math.sqrt(i) - Math.floor(Math.sqrt(i));"
    "}"
    "var result = s;",
    // string-base64
    "var s = '';"
    "for (var i = 0; i < 400; i++) { s += 'ab'; }"
    "var n = 0;"
    "for (var j = 0; j < s.length; j += 7) { n += s.charCodeAt(j); }"
    "var result = n;",
    // access-nsieve
    "var limit = 3000;"
    "var sieve = Array(limit);"
    "var count = 0;"
    "for (var i = 2; i < limit; i++) {"
    "  if (!sieve[i]) {"
    "    count++;"
    "    for (var k = i + i; k < limit; k += i) sieve[k] = true;"
    "  }"
    "}"
    "var result = count;",
};
constexpr size_t NumKernels = sizeof(Kernels) / sizeof(Kernels[0]);

/// The kernels' answers, computed without the interpreter, in kernel
/// order.
std::vector<double> knownAnswers() {
  std::vector<double> A;
  std::vector<double> Fib = {0, 1};
  for (int I = 2; I <= 16; ++I)
    Fib.push_back(Fib[I - 1] + Fib[I - 2]);
  A.push_back(Fib[16]); // 987
  double S = 0;
  for (int I = 1; I <= 5000; ++I) {
    double D = static_cast<double>(I);
    S += 1 / (D * D) + std::sqrt(D) - std::floor(std::sqrt(D));
  }
  A.push_back(S);
  double N = 0;
  for (int J = 0; J < 800; J += 7)
    N += J % 2 == 0 ? 'a' : 'b';
  A.push_back(N);
  std::vector<bool> Composite(3000, false);
  double Primes = 0;
  for (int I = 2; I < 3000; ++I) {
    if (Composite[I])
      continue;
    ++Primes;
    for (int K = I + I; K < 3000; K += I)
      Composite[K] = true;
  }
  A.push_back(Primes); // 430
  return A;
}

/// Hooks that drive a real race detector, alternating between two
/// ordered operations so every access takes the detector's ordering path
/// the way two sequential scripts of a page would.
class DetectorHooks final : public js::JsHooks {
public:
  DetectorHooks() : Detector(Hb, Interner, detect::DetectorOptions()) {
    Ops[0] = Hb.addOperation(Operation());
    Ops[1] = Hb.addOperation(Operation());
    Hb.addEdge(Ops[0], Ops[1], HbRule::RProgram);
  }

  void onVarRead(js::Env *Scope, std::string_view Name,
                 AccessOrigin Origin) override {
    record(AccessKind::Read, Scope->containerId(), Name, Origin);
  }
  void onVarWrite(js::Env *Scope, std::string_view Name,
                  AccessOrigin Origin) override {
    record(AccessKind::Write, Scope->containerId(), Name, Origin);
  }
  void onPropRead(js::Object *Obj, std::string_view Name,
                  AccessOrigin Origin) override {
    record(AccessKind::Read, Obj->containerId(), Name, Origin);
  }
  void onPropWrite(js::Object *Obj, std::string_view Name,
                   AccessOrigin Origin) override {
    record(AccessKind::Write, Obj->containerId(), Name, Origin);
  }

  const HbGraph &hb() const { return Hb; }
  const detect::RaceDetector &detector() const { return Detector; }

private:
  void record(AccessKind Kind, ContainerId Container, std::string_view Name,
              AccessOrigin Origin) {
    Access A;
    A.Kind = Kind;
    A.Origin = Origin;
    A.Op = Ops[Toggle ^= 1];
    A.Loc = Interner.internVar(Container, Name);
    Detector.onMemoryAccess(A);
  }

  HbGraph Hb;
  LocationInterner Interner;
  detect::RaceDetector Detector;
  OpId Ops[2];
  unsigned Toggle = 0;
};

/// One interpreter run of \p Source; \p Hooks null runs bare. The timed part
/// is parse + run; interpreter and standard-library set-up are not.
/// Returns the program's `result`, or NaN when it has none.
double runKernel(const char *Source, DetectorHooks *Hooks, double &Sec,
                 Tracer *T) {
  js::Heap Heap;
  js::Env *Global = Heap.allocEnv(nullptr);
  js::Interpreter Interp(Heap, Global);
  js::installStdLib(Interp, 1);
  Interp.setHooks(Hooks);
  Clock::time_point Start = Clock::now();
  js::ParseResult Parsed;
  {
    Span Sp(Hooks ? T : nullptr, "js.parse_ms");
    Parsed = js::Parser::parseProgram(Source);
  }
  if (!Parsed.ok())
    return NAN;
  {
    Span Sp(T, Hooks ? "js.run_instrumented_ms" : "js.run_bare_ms",
            /*Probe=*/!Hooks);
    Interp.runProgram(*Parsed.Ast);
  }
  Sec += secondsSince(Start);
  js::Value *Result = Global->findOwn("result");
  return Result && Result->isNumber() ? Result->asNumber() : NAN;
}

class KernelsWorkload final : public Workload {
public:
  void setup(uint64_t, bool InjectFault, Tracer &) override {
    Answers = knownAnswers();
    if (InjectFault)
      Answers.front() += 1;
  }

  PassResult pass(Tracer *T) override {
    PassResult R;
    obs::RunStats Stats;
    for (size_t I = 0; I < NumKernels; ++I) {
      double Bare = runKernel(Kernels[I], nullptr, R.BareSec, T);
      DetectorHooks Hooks;
      double Instrumented = runKernel(Kernels[I], &Hooks, R.AnalysedSec, T);
      const detect::RaceDetector &D = Hooks.detector();
      R.check(std::abs(Bare - Answers[I]) <= 1e-9 * std::abs(Answers[I]) &&
              Instrumented == Bare && D.races().empty());
      Stats.Operations += Hooks.hb().numOperations();
      Stats.HbEdges += Hooks.hb().numEdges();
      Stats.ClockBytes += Hooks.hb().clockBytes();
      Stats.SharedClocks += Hooks.hb().sharedClocks();
      Stats.AccessesSeen += D.accessesSeen();
      Stats.ReadsSeen += D.readsSeen();
      Stats.EpochHits += D.epochHits();
      Stats.ChcQueries += D.chcQueries();
      Stats.ReadInflations += D.readInflations();
      Stats.DetectorBytes += D.detectorBytes();
      Stats.VcChains = std::max<uint64_t>(Stats.VcChains,
                                          Hooks.hb().numChains());
    }
    R.ItemMs.push_back(R.AnalysedSec * 1e3);
    if (T)
      T->derive("detect.hook_ms", T->ms("js.run_instrumented_ms") -
                                      T->ms("js.run_bare_ms"));
    R.Ops = Stats.Operations;
    R.Accesses = Stats.AccessesSeen;
    R.countRunStats(Stats, Stats.VcChains);
    return R;
  }

private:
  std::vector<double> Answers;
};

} // namespace

std::unique_ptr<Workload> perf::makeKernelsWorkload() {
  return std::make_unique<KernelsWorkload>();
}
