//===- triage/Batch.cpp - Deduplicating batch trace ingest --------------------===//

#include "triage/Batch.h"

#include "detect/Report.h"
#include "obs/Reporter.h"
#include "support/Format.h"
#include "support/WorkerPool.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

using namespace wr;
using namespace wr::triage;

bool wr::triage::listTraceFiles(const std::string &Dir,
                                std::vector<std::string> &Out,
                                std::string &Error) {
  Out.clear();
  std::error_code Ec;
  std::filesystem::directory_iterator It(Dir, Ec);
  if (Ec) {
    Error = strFormat("cannot read trace directory '%s': %s", Dir.c_str(),
                      Ec.message().c_str());
    return false;
  }
  for (const auto &Entry : It) {
    if (!Entry.is_regular_file(Ec) || Ec)
      continue;
    std::string Path = Entry.path().string();
    if (Entry.path().extension() == ".wrt")
      Out.push_back(std::move(Path));
  }
  // Directory iteration order is filesystem-dependent; the sorted list is
  // the canonical input order every job count shares.
  std::sort(Out.begin(), Out.end());
  return true;
}

TraceIngest wr::triage::ingestTraceFile(const std::string &Path,
                                        const BatchOptions &Opts) {
  TraceIngest In;
  In.Path = Path;
  if (Opts.Suppressions)
    In.SuppressionHits.resize(Opts.Suppressions->entries().size(), 0);

  std::ifstream File(Path, std::ios::binary);
  if (!File) {
    In.Error = "cannot open trace file";
    return In;
  }
  std::ostringstream Buf;
  Buf << File.rdbuf();
  TraceLog Log;
  std::string DecodeError;
  if (!TraceLog::deserialize(Buf.str(), Log, &DecodeError)) {
    In.Error = DecodeError;
    return In;
  }
  Log.setSource(Path);

  // The replay runs without prediction; the passes run here instead, on
  // this trace, so their findings stay event-index pairs and are signed
  // straight out of the trace's events.
  detect::ReplayOptions Observe = Opts.Replay;
  Observe.Predict = false;
  detect::ReplayResult Result = detect::replayTrace(Log, Observe);
  In.Ok = true;
  In.Stats = std::move(Result.Stats);
  std::vector<detect::PredictionPass> Passes;
  if (Opts.Replay.Predict)
    detect::predictAll(Log, Result.RawRaces, Passes, In.Stats);

  // Sign the kept observed races; suppression drops are counted, never
  // silent - they land in this trace's FilterAttrition (and so in every
  // merged aggregate downstream). Suppressions are matched once per
  // distinct signature and counted per race.
  SignatureTable Table(Result.Hb);
  constexpr int Unmatched = -2;
  std::vector<int> SuppressionOf; // By table index; -1 when none matches.
  auto Suppressed = [&](uint32_t Sig) {
    if (!Opts.Suppressions)
      return false;
    if (Sig >= SuppressionOf.size())
      SuppressionOf.resize(Table.size(), Unmatched);
    if (SuppressionOf[Sig] == Unmatched)
      SuppressionOf[Sig] = Opts.Suppressions->matchIndex(Table.signature(Sig));
    int Idx = SuppressionOf[Sig];
    if (Idx < 0)
      return false;
    ++In.SuppressionHits[static_cast<size_t>(Idx)];
    ++In.Suppressed;
    return true;
  };

  std::vector<detect::Race> KeptRaces;
  KeptRaces.reserve(Result.FilteredRaces.size());
  for (const detect::Race &R : Result.FilteredRaces) {
    uint32_t Sig = Table.sign(R);
    if (Suppressed(Sig))
      continue;
    In.Kept.push_back({Table.signature(Sig), toString(R.Loc)});
    KeptRaces.push_back(R);
  }
  In.Stats.Attrition.suppress(Result.FilteredRaces.size() - KeptRaces.size());
  In.Stats.Filtered = detect::tally(KeptRaces);

  // Predicted-only findings get the same signature/suppression treatment;
  // their drops stay out of FilterAttrition (they never entered the
  // filter pipeline's input) and reconcile through the triage section.
  // Each finding is stored as an index into the trace's distinct
  // predicted signatures.
  constexpr uint32_t NoSlot = ~0u;
  std::vector<uint32_t> SlotOf; // By table index.
  const std::vector<TraceEvent> &Events = Log.events();
  size_t Findings = 0;
  for (const detect::PredictionPass &P : Passes)
    Findings += P.Pairs.size();
  In.Predicted.reserve(Findings);
  for (const detect::PredictionPass &P : Passes) {
    for (const detect::PredictedPair &Pair : P.Pairs) {
      if (Pair.Verdict != detect::PredictionVerdict::Predicted)
        continue;
      uint32_t Sig =
          Table.sign(Pair.Kind, Log, Pair.FirstEvent, Pair.SecondEvent);
      if (Suppressed(Sig))
        continue;
      if (Sig >= SlotOf.size())
        SlotOf.resize(Table.size(), NoSlot);
      if (SlotOf[Sig] == NoSlot) {
        SlotOf[Sig] = static_cast<uint32_t>(In.PredictedSignatures.size());
        LocId Loc = Events[Pair.SecondEvent].Mem.Loc;
        In.PredictedSignatures.push_back(
            {Table.signature(Sig), toString(Log.interner().resolve(Loc))});
      }
      In.Predicted.push_back(SlotOf[Sig]);
    }
  }
  return In;
}

BatchResult wr::triage::runBatch(const std::vector<std::string> &Paths,
                                 const BatchOptions &Opts) {
  BatchResult R;
  // Traces land in input-order slots; no shared aggregate is touched
  // until the sequential merge below.
  R.Traces.resize(Paths.size());
  support::forEachIndex(Paths.size(), Opts.Jobs, [&](size_t I) {
    R.Traces[I] = ingestTraceFile(Paths[I], Opts);
  });

  // Sequential merge in input order: group assignment, first-witness
  // provenance, and every counter are independent of completion order.
  if (Opts.Suppressions)
    R.SuppressionHits.resize(Opts.Suppressions->entries().size(), 0);
  std::unordered_map<std::string, size_t> GroupIndex;
  auto GroupFor = [&](const WitnessRace &W, const std::string &Path) {
    std::string Key = W.Sig.text();
    auto It = GroupIndex.find(Key);
    if (It == GroupIndex.end()) {
      It = GroupIndex.emplace(std::move(Key), R.Groups.size()).first;
      SignatureGroup G;
      G.Sig = W.Sig;
      G.FirstWitness = Path;
      G.ExampleLocation = W.Location;
      R.Groups.push_back(std::move(G));
    }
    return It->second;
  };

  for (const TraceIngest &In : R.Traces) {
    if (!In.Ok) {
      ++R.TracesFailed;
      continue;
    }
    ++R.TracesOk;
    R.Aggregate.merge(In.Stats);
    R.TotalSuppressed += In.Suppressed;
    for (size_t I = 0; I < In.SuppressionHits.size(); ++I)
      R.SuppressionHits[I] += In.SuppressionHits[I];

    std::vector<bool> SeenThisTrace(R.Groups.size(), false);
    auto Touch = [&](size_t Idx) {
      if (Idx >= SeenThisTrace.size())
        SeenThisTrace.resize(Idx + 1, false);
      if (!SeenThisTrace[Idx]) {
        SeenThisTrace[Idx] = true;
        ++R.Groups[Idx].Traces;
      }
    };
    for (const WitnessRace &W : In.Kept) {
      size_t Idx = GroupFor(W, In.Path);
      ++R.Groups[Idx].Occurrences;
      ++R.TotalKept;
      Touch(Idx);
    }
    // Predicted-only findings merge once per distinct signature of the
    // trace and add their counts.
    std::vector<uint64_t> Counts(In.PredictedSignatures.size(), 0);
    for (uint32_t Slot : In.Predicted)
      ++Counts[Slot];
    for (size_t Slot = 0; Slot < Counts.size(); ++Slot) {
      size_t Idx = GroupFor(In.PredictedSignatures[Slot], In.Path);
      R.Groups[Idx].PredictedOccurrences += Counts[Slot];
      R.TotalPredicted += Counts[Slot];
      Touch(Idx);
    }
  }

  // Rank: most frequent first, signature text as the deterministic
  // tiebreak. stable_sort keeps first-seen order irrelevant.
  std::stable_sort(R.Groups.begin(), R.Groups.end(),
                   [](const SignatureGroup &A, const SignatureGroup &B) {
                     uint64_t Ta = A.Occurrences + A.PredictedOccurrences;
                     uint64_t Tb = B.Occurrences + B.PredictedOccurrences;
                     if (Ta != Tb)
                       return Ta > Tb;
                     return A.Sig.text() < B.Sig.text();
                   });

  if (Opts.Suppressions) {
    const auto &Entries = Opts.Suppressions->entries();
    for (size_t I = 0; I < Entries.size(); ++I)
      if (R.SuppressionHits[I] == 0)
        R.UnmatchedSuppressions.push_back(Entries[I].Name);
  }
  return R;
}

obs::Json wr::triage::buildBatchReport(const std::string &Name,
                                       const BatchResult &R) {
  obs::Json Doc = obs::makeReportEnvelope("batch", Name);

  obs::Json Traces = obs::Json::object();
  Traces.set("total", static_cast<uint64_t>(R.Traces.size()));
  Traces.set("ok", R.TracesOk);
  Traces.set("failed", R.TracesFailed);
  Doc.set("traces", std::move(Traces));

  if (R.TracesFailed) {
    obs::Json Errors = obs::Json::array();
    for (const TraceIngest &In : R.Traces) {
      if (In.Ok)
        continue;
      obs::Json Row = obs::Json::object();
      Row.set("path", In.Path);
      Row.set("error", In.Error);
      Errors.push(std::move(Row));
    }
    Doc.set("errors", std::move(Errors));
  }

  Doc.set("aggregate", R.Aggregate.toJson());

  obs::Json Triage = obs::Json::object();
  Triage.set("signatures", static_cast<uint64_t>(R.Groups.size()));
  Triage.set("occurrences", R.TotalKept);
  if (R.TotalPredicted)
    Triage.set("predicted_occurrences", R.TotalPredicted);
  Triage.set("suppressed", R.TotalSuppressed);
  if (!R.SuppressionHits.empty()) {
    obs::Json Hits = obs::Json::array();
    for (uint64_t H : R.SuppressionHits)
      Hits.push(H);
    Triage.set("suppression_hits", std::move(Hits));
  }
  if (!R.UnmatchedSuppressions.empty()) {
    obs::Json Unmatched = obs::Json::array();
    for (const std::string &N : R.UnmatchedSuppressions)
      Unmatched.push(N);
    Triage.set("unmatched_suppressions", std::move(Unmatched));
  }

  obs::Json Groups = obs::Json::array();
  for (const SignatureGroup &G : R.Groups) {
    obs::Json Row = obs::Json::object();
    Row.set("id", G.Sig.id());
    Row.set("kind", G.Sig.Kind);
    Row.set("location", G.Sig.Location);
    Row.set("access", G.Sig.Access);
    Row.set("context", G.Sig.Context);
    Row.set("occurrences", G.Occurrences);
    if (G.PredictedOccurrences)
      Row.set("predicted_occurrences", G.PredictedOccurrences);
    Row.set("traces", G.Traces);
    Row.set("first_witness", G.FirstWitness);
    Row.set("example", G.ExampleLocation);
    Groups.push(std::move(Row));
  }
  Triage.set("groups", std::move(Groups));
  Doc.set("triage", std::move(Triage));
  return Doc;
}
