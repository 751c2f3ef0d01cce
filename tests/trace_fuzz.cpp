//===- tests/trace_fuzz.cpp - Mutation fuzzing of WRT2 trace ingest -------===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// A plain executable (no GTest) that feeds mutated WRT2 traces to every
// consumer of outside trace bytes. Each mutant goes through
// TraceLog::deserialize; one that decodes then goes through replayTrace
// with prediction (the SHB and WCP passes, materialized) and through
// triage::ingestTraceFile from a temporary file (the passes' event-index
// pairs, signed straight out of the trace's events).
//
// Seeds are nine recordings: the first eight seed-2012 corpus sites and
// the three-file fig1 page of the record/replay smoke test. Mutations are
// bit flips, byte sets, inserts and deletes drawn from one Rng, so a run
// is reproducible from --seed.
//
// A decoded mutant must also be self-consistent: ingest accepts it, its
// own prediction passes give the replay's wr_prediction rows, it keeps
// one predicted-only finding per predicted pair (no suppressions here),
// and both accesses of every materialized race name the race's location.
//
// Usage: trace_fuzz [--mutants N] [--seed S]
// Exits 1 on a failed check, or when fewer than 5% of the mutants decode:
// a mutator whose output never gets past the decoder tests nothing
// behind it.
//
//===----------------------------------------------------------------------===//

#include "detect/TraceReplay.h"
#include "sites/Corpus.h"
#include "support/Rng.h"
#include "triage/Batch.h"
#include "webracer/Session.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace wr;
namespace fs = std::filesystem;

namespace {

/// Serializes one recorded session over \p Add's resources.
template <typename AddFn>
std::string record(const std::string &IndexUrl, uint64_t Seed, AddFn Add) {
  webracer::SessionOptions Opts;
  Opts.RecordTrace = true;
  Opts.Browser.Seed = Seed;
  webracer::Session S(Opts);
  Add(S.network());
  (void)S.run(IndexUrl);
  return S.trace()->serialize();
}

std::vector<std::string> seedTraces() {
  std::vector<std::string> Seeds;
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(2012);
  Rng SiteSeeds(2012);
  for (size_t I = 0; I < 8; ++I) {
    const sites::GeneratedSite &Site = Corpus[I];
    Seeds.push_back(record(
        Site.IndexUrl, SiteSeeds.next(), [&](rt::NetworkSimulator &Net) {
          Net.addResource(Site.IndexUrl, Site.Html, 10);
          for (const sites::SiteResource &R : Site.Resources)
            Net.addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                      R.MaxLatencyUs);
        }));
  }
  Seeds.push_back(record("index.html", 1, [](rt::NetworkSimulator &Net) {
    Net.addResource("index.html",
                    "<script>x = 1;</script><iframe src=\"a.html\"></iframe>"
                    "<iframe src=\"b.html\"></iframe>",
                    10);
    Net.addResourceWithJitter("a.html", "<script>x = 2;</script>", 500, 3000);
    Net.addResourceWithJitter("b.html", "<script>alert(x);</script>", 500,
                              3000);
  }));
  return Seeds;
}

/// Applies one to three random edits to \p Bytes.
void mutate(std::string &Bytes, Rng &R) {
  // Varint and enum boundaries, where a one-byte change flips meaning.
  static const unsigned char Interesting[] = {0x00, 0x01, 0x7f,
                                              0x80, 0xfe, 0xff};
  unsigned Edits = 1 + static_cast<unsigned>(R.nextBelow(3));
  for (unsigned E = 0; E < Edits; ++E) {
    size_t Pos = Bytes.empty() ? 0 : R.nextBelow(Bytes.size());
    switch (R.nextBelow(4)) {
    case 0: // Flip one bit.
      if (!Bytes.empty())
        Bytes[Pos] = static_cast<char>(Bytes[Pos] ^ (1u << R.nextBelow(8)));
      break;
    case 1: // Set one byte.
      if (!Bytes.empty())
        Bytes[Pos] = static_cast<char>(
            R.nextBool() ? Interesting[R.nextBelow(sizeof(Interesting))]
                         : R.next());
      break;
    case 2: { // Insert one to eight random bytes.
      std::string Ins(1 + R.nextBelow(8), '\0');
      for (char &C : Ins)
        C = static_cast<char>(R.next());
      Bytes.insert(Pos, Ins);
      break;
    }
    case 3: // Delete one to eight bytes.
      if (!Bytes.empty())
        Bytes.erase(Pos, 1 + R.nextBelow(8));
      break;
    }
  }
}

/// Replays and ingests one decoded mutant, adding its predicted races to
/// \p Findings; returns an empty string when every check holds, else what
/// failed.
std::string checkDecoded(const TraceLog &Log, const std::string &Bytes,
                         const fs::path &File, uint64_t &Findings) {
  detect::ReplayOptions Predict;
  Predict.Predict = true;
  detect::ReplayResult Replay = detect::replayTrace(Log, Predict);
  for (const detect::PredictionResult &P : Replay.Predictions) {
    Findings += P.Races.size();
    for (const detect::PredictedRace &PR : P.Races)
      if (PR.R.First.Loc != PR.R.Second.Loc)
        return "a predicted race's accesses name two locations";
  }

  {
    std::ofstream Out(File, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    if (!Out)
      return "cannot write " + File.string();
  }
  triage::BatchOptions Opts;
  Opts.Replay.Predict = true;
  triage::TraceIngest In = triage::ingestTraceFile(File.string(), Opts);
  if (!In.Ok)
    return "ingest rejected a trace that decodes: " + In.Error;
  if (!(In.Stats.Prediction == Replay.Stats.Prediction))
    return "ingest's prediction rows differ from the replay's";
  uint64_t Predicted = 0;
  for (const obs::PredictionRow &Row : Replay.Stats.Prediction)
    Predicted += Row.Predicted.total();
  if (In.Predicted.size() != Predicted)
    return "ingest kept " + std::to_string(In.Predicted.size()) +
           " predicted-only findings, the passes flagged " +
           std::to_string(Predicted);
  return "";
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Mutants = 1000;
  uint64_t Seed = 2012;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--mutants") == 0 && I + 1 < Argc) {
      Mutants = std::strtoull(Argv[++I], nullptr, 10);
    } else if (std::strcmp(Argv[I], "--seed") == 0 && I + 1 < Argc) {
      Seed = std::strtoull(Argv[++I], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--mutants N] [--seed S]\n", Argv[0]);
      return 2;
    }
  }

  std::vector<std::string> Seeds = seedTraces();
  fs::path File = fs::temp_directory_path() /
                  ("wr_trace_fuzz_" + std::to_string(::getpid()) + ".wrt");
  Rng R(Seed);
  uint64_t Decoded = 0, Findings = 0;
  int Failures = 0;
  for (uint64_t M = 0; M < Mutants; ++M) {
    std::string Bytes = Seeds[M % Seeds.size()];
    mutate(Bytes, R);
    TraceLog Log;
    if (!TraceLog::deserialize(Bytes, Log))
      continue;
    ++Decoded;
    std::string Failure = checkDecoded(Log, Bytes, File, Findings);
    if (!Failure.empty()) {
      std::printf("FAIL: mutant %llu (seed %llu): %s\n",
                  static_cast<unsigned long long>(M),
                  static_cast<unsigned long long>(Seed), Failure.c_str());
      ++Failures;
    }
  }
  std::error_code Ec;
  fs::remove(File, Ec);

  double Share = Mutants ? static_cast<double>(Decoded) /
                               static_cast<double>(Mutants)
                         : 0.0;
  std::printf("trace_fuzz: %llu mutants of %zu seed traces, %llu decoded "
              "(%.1f%%) with %llu predicted races, %d failure(s)\n",
              static_cast<unsigned long long>(Mutants), Seeds.size(),
              static_cast<unsigned long long>(Decoded), Share * 100.0,
              static_cast<unsigned long long>(Findings), Failures);
  if (Share < 0.05) {
    std::printf("FAIL: under 5%% of mutants decoded\n");
    return 1;
  }
  return Failures ? 1 : 0;
}
