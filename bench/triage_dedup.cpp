//===- bench/triage_dedup.cpp - Batch-ingest triage gates ---------------------===//
//
// The acceptance gates for the triage engine (signatures, suppressions,
// batch ingest):
//
//  1. Collapse: ingesting a directory where every recorded trace appears
//     DUP times collapses to exactly the signature set of the
//     un-duplicated traces, with every group's occurrence count scaled
//     by DUP and the group totals reconciling with the per-trace sums -
//     the "10^6 identical user traces become one report line" property.
//
//  2. Determinism: the merged batch report is byte-identical at --jobs
//     1, 2, 4, and 8.
//
//  3. Suppression: suppressing the top-ranked signature removes its
//     group from the report, every one of its occurrences lands in the
//     aggregate's filter attrition (zero silent attrition:
//     kept + suppressed == the unsuppressed kept total), and a stale
//     entry is reported as unmatched.
//
// Usage: triage_dedup [--quick]
//   full:    3 pattern sites x 9 seeds x 4 copies = 108 traces
//   --quick: 3 pattern sites x 4 seeds x 3 copies =  36 traces
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "sites/Corpus.h"
#include "triage/Batch.h"
#include "triage/Suppression.h"
#include "webracer/Session.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

using namespace wr;
namespace fs = std::filesystem;

namespace {

/// Records one session of \p Site at \p Seed and returns the WRT2 bytes.
std::string recordSite(const sites::GeneratedSite &Site, uint64_t Seed) {
  webracer::SessionOptions Opts;
  Opts.RecordTrace = true;
  Opts.Browser.Seed = Seed;
  webracer::Session S(Opts);
  S.network().addResource(Site.IndexUrl, Site.Html, 10);
  for (const sites::SiteResource &R : Site.Resources)
    S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                      R.MaxLatencyUs);
  (void)S.run(Site.IndexUrl);
  return S.trace()->serialize();
}

bool writeFile(const fs::path &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  Out.flush();
  return Out.good();
}

std::set<std::string> signatureSet(const triage::BatchResult &R) {
  std::set<std::string> Set;
  for (const triage::SignatureGroup &G : R.Groups)
    Set.insert(G.Sig.text());
  return Set;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--quick") == 0)
      Quick = true;
  const unsigned Seeds = Quick ? 4 : 9;
  const unsigned Dup = Quick ? 3 : 4;
  int Failures = 0;

  // The seeded pattern sites: one per race kind the filters keep.
  const std::vector<sites::SiteSpec> Specs = {
      {"dedup-form", {{sites::PatternKind::FormValueHarmful, 1}}},
      {"dedup-html", {{sites::PatternKind::HtmlLookupHarmful, 1}}},
      {"dedup-func", {{sites::PatternKind::FunctionCallHarmful, 1}}},
  };

  // Per-process names: two runs at once must not delete each other's
  // traces.
  std::string Pid = std::to_string(::getpid());
  fs::path Base = fs::temp_directory_path() / ("wr_triage_dedup_base_" + Pid);
  fs::path Full = fs::temp_directory_path() / ("wr_triage_dedup_full_" + Pid);
  fs::remove_all(Base);
  fs::remove_all(Full);
  fs::create_directories(Base);
  fs::create_directories(Full);

  // Record Seeds traces per site; write each once into Base and Dup
  // times into Full (byte-identical copies under distinct names).
  size_t Recorded = 0;
  for (size_t SiteIdx = 0; SiteIdx < Specs.size(); ++SiteIdx) {
    sites::GeneratedSite Site = sites::buildSite(Specs[SiteIdx]);
    for (unsigned S = 0; S < Seeds; ++S) {
      std::string Bytes = recordSite(Site, 1000 + 17 * S);
      char Name[64];
      std::snprintf(Name, sizeof(Name), "s%zu_seed%u.wrt", SiteIdx, S);
      if (!writeFile(Base / Name, Bytes)) {
        std::printf("FAIL: cannot write %s\n", (Base / Name).c_str());
        return 1;
      }
      for (unsigned D = 0; D < Dup; ++D) {
        std::snprintf(Name, sizeof(Name), "s%zu_seed%u_copy%u.wrt",
                      SiteIdx, S, D);
        if (!writeFile(Full / Name, Bytes)) {
          std::printf("FAIL: cannot write %s\n", (Full / Name).c_str());
          return 1;
        }
        ++Recorded;
      }
    }
  }
  std::printf("recorded %zu trace file(s) (%u per distinct execution)\n",
              Recorded, Dup);

  std::vector<std::string> BasePaths, FullPaths;
  std::string Error;
  if (!triage::listTraceFiles(Base.string(), BasePaths, Error) ||
      !triage::listTraceFiles(Full.string(), FullPaths, Error)) {
    std::printf("FAIL: %s\n", Error.c_str());
    return 1;
  }

  triage::BatchOptions Opts;
  Opts.Jobs = 4;
  triage::BatchResult BaseRun = triage::runBatch(BasePaths, Opts);
  triage::BatchResult FullRun = triage::runBatch(FullPaths, Opts);

  // Gate 1: duplicated ingest collapses to the seeded signature set.
  if (BaseRun.TotalKept == 0) {
    std::printf("FAIL: seeded patterns produced no kept races\n");
    ++Failures;
  }
  if (signatureSet(FullRun) != signatureSet(BaseRun)) {
    std::printf("FAIL: duplicated ingest changed the signature set "
                "(%zu vs %zu)\n",
                signatureSet(FullRun).size(),
                signatureSet(BaseRun).size());
    ++Failures;
  }
  if (FullRun.TotalKept != Dup * BaseRun.TotalKept) {
    std::printf("FAIL: occurrences did not scale with duplication "
                "(%llu vs %u x %llu)\n",
                static_cast<unsigned long long>(FullRun.TotalKept), Dup,
                static_cast<unsigned long long>(BaseRun.TotalKept));
    ++Failures;
  }
  uint64_t Grouped = 0, PerTrace = 0;
  for (const triage::SignatureGroup &G : FullRun.Groups)
    Grouped += G.Occurrences;
  for (const triage::TraceIngest &In : FullRun.Traces)
    PerTrace += In.Kept.size();
  if (Grouped != PerTrace || Grouped != FullRun.TotalKept) {
    std::printf("FAIL: group occurrences (%llu) != per-trace kept sum "
                "(%llu)\n",
                static_cast<unsigned long long>(Grouped),
                static_cast<unsigned long long>(PerTrace));
    ++Failures;
  }
  std::set<std::string> Kinds;
  for (const triage::SignatureGroup &G : FullRun.Groups)
    Kinds.insert(G.Sig.Kind);
  for (const char *Want : {"variable", "html", "function"})
    if (!Kinds.count(Want)) {
      std::printf("FAIL: seeded '%s' pattern signed no group\n", Want);
      ++Failures;
    }
  std::printf("gate 1: %zu distinct execution(s) x%u collapse to %zu "
              "signature(s), %llu occurrence(s)\n",
              BasePaths.size(), Dup, FullRun.Groups.size(),
              static_cast<unsigned long long>(FullRun.TotalKept));

  // Gate 2: byte-identical merged report at jobs 1/2/4/8.
  std::string Baseline;
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    triage::BatchOptions J = Opts;
    J.Jobs = Jobs;
    std::string Doc = obs::writeJson(
        triage::buildBatchReport("dedup", triage::runBatch(FullPaths, J)));
    if (Baseline.empty()) {
      Baseline = Doc;
    } else if (Doc != Baseline) {
      std::printf("FAIL: batch report differs at jobs=%u\n", Jobs);
      ++Failures;
    }
  }
  std::printf("gate 2: %zu-byte report byte-identical at jobs 1/2/4/8\n",
              Baseline.size());

  // Gate 3: suppressing the top signature removes it everywhere and the
  // drops surface in the attrition (zero silent attrition).
  if (!FullRun.Groups.empty()) {
    const triage::SignatureGroup Victim = FullRun.Groups.front();
    triage::SuppressionFile File;
    File.add({"top signature", Victim.Sig.Kind, Victim.Sig.Location,
              Victim.Sig.Access, Victim.Sig.Context});
    File.add({"stale entry", "event-dispatch", "no-such-location", "*",
              "*"});
    triage::BatchOptions SupOpts = Opts;
    SupOpts.Suppressions = &File;
    triage::BatchResult Sup = triage::runBatch(FullPaths, SupOpts);
    for (const triage::SignatureGroup &G : Sup.Groups)
      if (G.Sig == Victim.Sig) {
        std::printf("FAIL: suppressed signature %s still reported\n",
                    Victim.Sig.id().c_str());
        ++Failures;
      }
    if (Sup.TotalSuppressed != Victim.Occurrences ||
        Sup.TotalKept + Sup.TotalSuppressed != FullRun.TotalKept) {
      std::printf("FAIL: suppression counts do not reconcile "
                  "(kept %llu + suppressed %llu != %llu)\n",
                  static_cast<unsigned long long>(Sup.TotalKept),
                  static_cast<unsigned long long>(Sup.TotalSuppressed),
                  static_cast<unsigned long long>(FullRun.TotalKept));
      ++Failures;
    }
    if (Sup.Aggregate.Attrition.Suppressed != Victim.Occurrences) {
      std::printf("FAIL: aggregate attrition lost %llu suppressed "
                  "drop(s)\n",
                  static_cast<unsigned long long>(Victim.Occurrences));
      ++Failures;
    }
    if (Sup.UnmatchedSuppressions !=
        std::vector<std::string>{"stale entry"}) {
      std::printf("FAIL: stale suppression not reported as unmatched\n");
      ++Failures;
    }
    std::printf("gate 3: suppressed %s (%llu occurrence(s)), attrition "
                "reconciles, stale entry flagged\n",
                Victim.Sig.id().c_str(),
                static_cast<unsigned long long>(Victim.Occurrences));
  }

  fs::remove_all(Base);
  fs::remove_all(Full);
  if (Failures) {
    std::printf("FAILED: %d gate violation(s)\n", Failures);
    return 1;
  }
  std::printf("OK: all triage gates hold%s\n", Quick ? " (quick)" : "");
  return 0;
}
