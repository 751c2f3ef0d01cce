//===- webracer/Session.cpp - One detection run over one page -----------------===//

#include "webracer/Session.h"

#include "triage/Suppression.h"

using namespace wr;
using namespace wr::webracer;

Session::Session(SessionOptions Options) : Opts(Options) {
  B = std::make_unique<rt::Browser>(Opts.Browser);
  // The live detector always runs under observed happens-before;
  // prediction adds passes (which need the recorded trace) in run().
  if (Opts.ExpectedOperations)
    B->hb().reserveOperations(Opts.ExpectedOperations);
  D = std::make_unique<detect::RaceDetector>(B->hb(), B->interner(),
                                             Opts.Detector);
  D->setPhaseStats(&B->phaseStats());
  B->addSink(D.get());
  if (Opts.RecordTrace || Opts.Predict) {
    Trace = std::make_shared<TraceLog>();
    B->addSink(Trace.get());
  }
}

Session::~Session() = default;

detect::DispatchCountFn Session::dispatchCounts() {
  rt::Browser *Browser = B.get();
  return [Browser](const EventHandlerLoc &Loc) {
    return Browser->dispatchCount(
        rt::TargetKey{Loc.Target, Loc.TargetObject}, Loc.EventType);
  };
}

SessionResult Session::run(const std::string &Url) {
  B->loadPage(Url);
  B->runToQuiescence();

  SessionResult Result;
  if (Opts.AutoExplore) {
    obs::PhaseTimer Timer(&B->phaseStats(), obs::Phase::Explore);
    explore::Explorer E(*B, Opts.Explore);
    Result.Explore = E.run();
  }

  Result.RawRaces = D->races();
  obs::RunStats &S = Result.Stats;
  {
    obs::PhaseTimer Timer(&B->phaseStats(), obs::Phase::Filter);
    Result.FilteredRaces = detect::applyPaperFilters(
        Result.RawRaces, dispatchCounts(), &S.Attrition);
    // User suppressions run as the last filter stage: drops land in the
    // attrition record (never silent) and hit counts go back per entry.
    if (Opts.Suppressions && !Opts.Suppressions->empty())
      Result.FilteredRaces = triage::applySuppressions(
          Result.FilteredRaces, B->hb(), *Opts.Suppressions, &S.Attrition,
          &Result.SuppressionHits);
  }
  Result.Crashes = B->crashLog();
  Result.Alerts = B->alerts();
  Result.ParseErrors = B->parseErrorLog();
  Result.CutBy = B->loop().cutBy();
  Result.Trace = Trace;

  detect::collectStats(B->hb(), *D, S);
  S.InternedLocations = B->interner().size();
  S.InternHits = B->interner().hits();
  S.Raw = detect::tally(Result.RawRaces);
  S.Filtered = detect::tally(Result.FilteredRaces);
  S.TasksRun = B->loop().executedTasks();
  S.VirtualTimeUs = B->loop().now();
  S.Crashes = Result.Crashes.size();
  S.Alerts = Result.Alerts.size();
  S.ParseErrors = Result.ParseErrors.size();
  S.EventsDispatched = Result.Explore.EventsDispatched;
  S.LinksClicked = Result.Explore.LinksClicked;
  S.BoxesTyped = Result.Explore.BoxesTyped;

  if (Opts.Predict) {
    obs::PhaseTimer Timer(&B->phaseStats(), obs::Phase::Detect);
    detect::predictAll(*Trace, Result.RawRaces, Result.Predictions, S);
  }
  S.Phases = B->phaseStats();
  return Result;
}
