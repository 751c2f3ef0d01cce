//===- detect/TraceReplay.cpp - Offline detection over a trace -------------===//

#include "detect/TraceReplay.h"

#include "support/Format.h"

#include <cassert>
#include <memory>
#include <unordered_map>

using namespace wr;
using namespace wr::detect;

/// Exact operation count of a recorded trace, so graph reconstruction can
/// pre-size its per-operation tables in one step.
static size_t countOperations(const TraceLog &Log) {
  size_t N = 0;
  for (const TraceEvent &E : Log.events())
    N += E.K == TraceEvent::Kind::OpCreated;
  return N;
}

HbGraph wr::detect::buildHbGraphFromTrace(const TraceLog &Log) {
  HbGraph Hb;
  Hb.reserveOperations(countOperations(Log));
  for (const TraceEvent &E : Log.events()) {
    switch (E.K) {
    case TraceEvent::Kind::OpCreated: {
      OpId Id = Hb.addOperation(E.Meta);
      (void)Id;
      assert(Id == E.Op && "trace must be recorded from session start");
      break;
    }
    case TraceEvent::Kind::HbEdge:
      Hb.addEdge(E.Op, E.Op2, E.Rule);
      break;
    default:
      break;
    }
  }
  return Hb;
}

DispatchCountFn wr::detect::dispatchCountsFromTrace(const TraceLog &Log) {
  // Same key the engine uses (Browser::dispatchKeyOf), so filtered results
  // replay byte-identically.
  auto Counts = std::make_shared<std::unordered_map<std::string, int>>();
  for (const TraceEvent &E : Log.events()) {
    if (E.K != TraceEvent::Kind::Dispatch)
      continue;
    std::string Key =
        strFormat("%u/%llu/%s", E.Target,
                  static_cast<unsigned long long>(E.TargetObject),
                  E.EventType.c_str());
    ++(*Counts)[Key];
  }
  return [Counts](const EventHandlerLoc &Loc) {
    std::string Key =
        strFormat("%u/%llu/%s", Loc.Target,
                  static_cast<unsigned long long>(Loc.TargetObject),
                  Loc.EventType.c_str());
    auto It = Counts->find(Key);
    return It == Counts->end() ? 0 : It->second;
  };
}

ReplayResult wr::detect::replayTrace(const TraceLog &Log,
                                     const ReplayOptions &Opts) {
  ReplayResult Result;
  // The observed pass always replays under happens-before; prediction
  // only adds passes below - race output stays byte-identical to the
  // online run.
  Result.Hb.reserveOperations(countOperations(Log));
  // The trace's interner resolves the access stream's LocIds; it was
  // either mirrored from the online engine or rebuilt by deserialize.
  RaceDetector Detector(Result.Hb, Log.interner(), Opts.Detector);
  size_t Crashes = 0;
  // One in-order pass: graph construction and detection interleave exactly
  // as they did online, so the detector sees each access against the same
  // graph prefix (and poses the same CHC questions) as the recording run.
  for (const TraceEvent &E : Log.events()) {
    switch (E.K) {
    case TraceEvent::Kind::OpCreated: {
      OpId Id = Result.Hb.addOperation(E.Meta);
      (void)Id;
      assert(Id == E.Op && "trace must be recorded from session start");
      break;
    }
    case TraceEvent::Kind::HbEdge:
      Result.Hb.addEdge(E.Op, E.Op2, E.Rule);
      break;
    case TraceEvent::Kind::MemAccess:
      Detector.onMemoryAccess(E.Mem);
      break;
    case TraceEvent::Kind::OpEnd:
      if (E.Crashed)
        ++Crashes;
      break;
    default:
      break;
    }
  }
  Result.RawRaces = Detector.races();
  FilterCounts Attrition;
  Result.FilteredRaces = applyPaperFilters(
      Result.RawRaces, dispatchCountsFromTrace(Log), &Attrition);

  obs::RunStats &S = Result.Stats;
  collectStats(Result.Hb, Detector, S);
  S.InternedLocations = Log.interner().size();
  // Online, the engine interns exactly once per recorded access, so hits
  // are accesses minus distinct locations; compute the same figure here
  // (the trace's interner is prepopulated, not probed per access).
  S.InternHits = S.AccessesSeen >= S.InternedLocations
                     ? S.AccessesSeen - S.InternedLocations
                     : 0;
  S.Raw = tally(Result.RawRaces);
  S.Filtered = tally(Result.FilteredRaces);
  S.Attrition = toAttrition(Attrition);
  S.Crashes = Crashes;

  if (Opts.Predict)
    predictAll(Log, Result.RawRaces, Result.Predictions, S);
  return Result;
}
