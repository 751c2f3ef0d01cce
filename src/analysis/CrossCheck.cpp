//===- analysis/CrossCheck.cpp - Static vs dynamic validation ---------------===//

#include "analysis/CrossCheck.h"

#include "obs/Reporter.h"
#include "support/StringUtils.h"

using namespace wr;
using namespace wr::analysis;

size_t CrossCheckResult::missedCount() const {
  size_t N = 0;
  for (const MappedDynamicRace &D : DynamicRaces)
    if (!D.Predicted)
      ++N;
  return N;
}

double CrossCheckResult::precision() const {
  size_t P = predictedCount();
  return P == 0 ? 1.0 : static_cast<double>(confirmedCount()) / P;
}

double CrossCheckResult::recall() const {
  size_t D = dynamicCount();
  return D == 0 ? 1.0
                : static_cast<double>(D - missedCount()) / D;
}

namespace {

/// Static name of a node as an event target / element key, mirroring the
/// analyzer's targetName().
std::string nodeStaticName(rt::Browser &B, NodeId Id) {
  Node *N = B.nodeById(Id);
  const auto *E = dyn_cast<Element>(N);
  if (!E)
    return std::string();
  std::string Name = E->idAttr();
  if (Name.empty())
    Name = E->getAttribute("name");
  if (Name.empty())
    Name = E->tagName();
  return Name;
}

/// Maps one dynamic race into static-location space. Unmappable
/// locations (timer-clear handlers, tag collections, anonymous nodes)
/// keep an empty/foreign name and simply never match a prediction - an
/// honest recall miss rather than a silent drop.
MappedDynamicRace mapDynamicRace(const detect::Race &R, rt::Browser &B) {
  MappedDynamicRace Out;
  Out.Kind = R.Kind;
  Out.Dynamic = toString(R.Loc);

  if (const auto *V = std::get_if<JSVarLoc>(&R.Loc)) {
    if (isDomContainer(V->Container) &&
        (V->Name == "value" || V->Name == "checked")) {
      Out.Loc.Kind = StaticLocKind::FormField;
      Node *N = B.nodeById(nodeOfContainer(V->Container));
      if (const auto *E = dyn_cast<Element>(N)) {
        Out.Loc.Name = E->idAttr();
        if (Out.Loc.Name.empty())
          Out.Loc.Name = E->getAttribute("name");
      }
      return Out;
    }
    Out.Loc.Kind = StaticLocKind::Var;
    // Timer-handle containers (clearTimeout instrumentation) and other
    // object properties are outside the static model; the name alone is
    // the best static counterpart.
    Out.Loc.Name = V->Name;
    return Out;
  }

  if (const auto *H = std::get_if<HtmlElemLoc>(&R.Loc)) {
    Out.Loc.Kind = StaticLocKind::Elem;
    switch (H->Kind) {
    case ElemKeyKind::ById:
    case ElemKeyKind::ByName:
      Out.Loc.Name = H->Key;
      break;
    case ElemKeyKind::ByNode: {
      Node *N = B.nodeById(H->Node);
      if (const auto *E = dyn_cast<Element>(N)) {
        Out.Loc.Name = E->idAttr();
        if (Out.Loc.Name.empty())
          Out.Loc.Name = E->getAttribute("name");
      }
      break;
    }
    case ElemKeyKind::ByTag:
      // The analyzer does not model tag collections.
      Out.Loc.Name = "tag:" + H->Key;
      break;
    }
    return Out;
  }

  const auto &E = std::get<EventHandlerLoc>(R.Loc);
  Out.Loc.Kind = StaticLocKind::Handler;
  Out.Loc.EventType = E.EventType;
  if (E.Target != InvalidNodeId) {
    Out.Loc.Name = nodeStaticName(B, E.Target);
    return Out;
  }
  if (E.TargetObject & rt::TimerContainerBit) {
    // Timer-clear locations; not in the static model.
    Out.Loc.Name = "timer";
    return Out;
  }
  for (const auto &W : B.windows()) {
    if (W->windowObject() &&
        W->windowObject()->containerId() == E.TargetObject) {
      Out.Loc.Name = "window";
      return Out;
    }
    if (W->documentObject() &&
        W->documentObject()->containerId() == E.TargetObject) {
      Out.Loc.Name = "document";
      return Out;
    }
  }
  // Non-window object targets (XHR): the analyzer uses the empty
  // wildcard target for these.
  Out.Loc.Name = "";
  return Out;
}

} // namespace

std::vector<MappedDynamicRace>
wr::analysis::mapDynamicRaces(const std::vector<detect::Race> &Races,
                              rt::Browser &B) {
  std::vector<MappedDynamicRace> Out;
  Out.reserve(Races.size());
  for (const detect::Race &R : Races)
    Out.push_back(mapDynamicRace(R, B));
  return Out;
}

void StaticPrecision::add(const PredictedRace &P, bool WasConfirmed) {
  ++Predicted;
  GuardClassCounts &C = ByClass[static_cast<size_t>(P.Class)];
  ++C.Predicted;
  if (WasConfirmed) {
    ++Confirmed;
    ++C.Confirmed;
    return;
  }
  ++Refuted;
  ++C.Refuted;
  if (P.Class == GuardClass::GuardedBothSides)
    ++RefutedByGuards;
}

void StaticPrecision::merge(const StaticPrecision &O) {
  Predicted += O.Predicted;
  Confirmed += O.Confirmed;
  Refuted += O.Refuted;
  RefutedByGuards += O.RefutedByGuards;
  for (size_t I = 0; I < 3; ++I) {
    ByClass[I].Predicted += O.ByClass[I].Predicted;
    ByClass[I].Confirmed += O.ByClass[I].Confirmed;
    ByClass[I].Refuted += O.ByClass[I].Refuted;
  }
}

obs::Json StaticPrecision::toJson() const {
  obs::Json Doc = obs::Json::object();
  Doc.set("predicted", Predicted);
  Doc.set("confirmed", Confirmed);
  Doc.set("refuted", Refuted);
  Doc.set("refuted_by_guards", RefutedByGuards);
  obs::Json Classes = obs::Json::object();
  static const char *const Keys[3] = {"unguarded", "guarded_one_side",
                                      "guarded_both_sides"};
  for (size_t I = 0; I < 3; ++I) {
    obs::Json C = obs::Json::object();
    C.set("predicted", ByClass[I].Predicted);
    C.set("confirmed", ByClass[I].Confirmed);
    C.set("refuted", ByClass[I].Refuted);
    Classes.set(Keys[I], std::move(C));
  }
  Doc.set("by_class", std::move(Classes));
  return Doc;
}

StaticPrecision
wr::analysis::tallyPrecision(const std::vector<PredictedRace> &Predictions,
                             std::vector<MappedDynamicRace> &Dynamic,
                             std::vector<PredictedRace> *Confirmed,
                             std::vector<PredictedRace> *Refuted) {
  std::vector<bool> PredConfirmed(Predictions.size(), false);
  for (MappedDynamicRace &D : Dynamic) {
    for (size_t I = 0; I < Predictions.size(); ++I) {
      const PredictedRace &P = Predictions[I];
      if (P.Kind != D.Kind || !locationsMayAlias(P.Loc, D.Loc))
        continue;
      D.Predicted = true;
      PredConfirmed[I] = true;
    }
  }
  StaticPrecision Totals;
  for (size_t I = 0; I < Predictions.size(); ++I) {
    Totals.add(Predictions[I], PredConfirmed[I]);
    if (PredConfirmed[I]) {
      if (Confirmed)
        Confirmed->push_back(Predictions[I]);
    } else if (Refuted) {
      Refuted->push_back(Predictions[I]);
    }
  }
  return Totals;
}

CrossCheckResult
wr::analysis::crossCheck(const PageSpec &Page,
                         const webracer::SessionOptions &Opts) {
  CrossCheckResult Result;
  Result.Name = Page.Name;

  // Static side: pure source analysis, nothing executes.
  Result.Static = analyzePage(Page.Html, Page.resolver());

  // Dynamic side: one full session with exploration over the same bytes.
  webracer::Session S(Opts);
  S.network().addResource(Page.EntryUrl, Page.Html, 10);
  for (const PageResource &R : Page.Resources)
    S.network().addResource(R.Url, R.Content, R.LatencyUs);
  Result.Dynamic = S.run(Page.EntryUrl);

  Result.DynamicRaces = mapDynamicRaces(Result.Dynamic.RawRaces, S.browser());
  Result.Precision = tallyPrecision(Result.Static.Races, Result.DynamicRaces,
                                    &Result.Confirmed, &Result.Refuted);
  return Result;
}

static std::string formatRatio(double V) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "%.2f", V);
  return Buf;
}

std::string wr::analysis::formatReport(const CrossCheckResult &R) {
  std::string Out = "== " + R.Name + " ==\n";
  Out += "predicted " + std::to_string(R.predictedCount()) +
         ", dynamic " + std::to_string(R.dynamicCount()) + ", confirmed " +
         std::to_string(R.confirmedCount()) + ", missed " +
         std::to_string(R.missedCount()) + "\n";
  Out += "precision " + formatRatio(R.precision()) + ", recall " +
         formatRatio(R.recall()) + "\n";
  static const GuardClass Classes[3] = {GuardClass::Unguarded,
                                        GuardClass::GuardedOneSide,
                                        GuardClass::GuardedBothSides};
  Out += "guards:";
  for (GuardClass C : Classes) {
    const GuardClassCounts &N = R.Precision.ByClass[static_cast<size_t>(C)];
    Out += " " + std::string(toString(C)) + " " +
           std::to_string(N.Predicted) + "/" + std::to_string(N.Confirmed) +
           "/" + std::to_string(N.Refuted);
  }
  Out += " (predicted/confirmed/refuted), refuted-by-guards " +
         std::to_string(R.Precision.RefutedByGuards) + "\n";
  for (const PredictedRace &P : R.Confirmed)
    Out += "  [confirmed] " + toString(P) + "\n";
  for (const PredictedRace &P : R.Refuted)
    Out += "  [unconfirmed] " + toString(P) + "\n";
  for (const MappedDynamicRace &D : R.DynamicRaces)
    if (!D.Predicted)
      Out += "  [missed] " + std::string(detect::toString(D.Kind)) +
             " race on " + D.Dynamic + "\n";
  for (const std::string &Note : R.Static.Notes)
    Out += "  note: " + Note + "\n";
  return Out;
}

std::string
wr::analysis::formatTable(const std::vector<CrossCheckResult> &Results) {
  std::string Out;
  char Row[128];
  std::snprintf(Row, sizeof(Row), "%-16s %9s %8s %9s %7s %9s %7s\n",
                "page", "predicted", "dynamic", "confirmed", "missed",
                "precision", "recall");
  Out += Row;
  size_t TotalPred = 0, TotalDyn = 0, TotalConf = 0, TotalMiss = 0;
  for (const CrossCheckResult &R : Results) {
    std::snprintf(Row, sizeof(Row), "%-16s %9zu %8zu %9zu %7zu %9s %7s\n",
                  R.Name.c_str(), R.predictedCount(), R.dynamicCount(),
                  R.confirmedCount(), R.missedCount(),
                  formatRatio(R.precision()).c_str(),
                  formatRatio(R.recall()).c_str());
    Out += Row;
    TotalPred += R.predictedCount();
    TotalDyn += R.dynamicCount();
    TotalConf += R.confirmedCount();
    TotalMiss += R.missedCount();
  }
  double Precision =
      TotalPred == 0 ? 1.0 : static_cast<double>(TotalConf) / TotalPred;
  double Recall = TotalDyn == 0
                      ? 1.0
                      : static_cast<double>(TotalDyn - TotalMiss) /
                            TotalDyn;
  std::snprintf(Row, sizeof(Row), "%-16s %9zu %8zu %9zu %7zu %9s %7s\n",
                "total", TotalPred, TotalDyn, TotalConf, TotalMiss,
                formatRatio(Precision).c_str(),
                formatRatio(Recall).c_str());
  Out += Row;
  return Out;
}

obs::Json wr::analysis::buildCrossCheckReport(
    const std::vector<CrossCheckResult> &Results) {
  obs::Json Doc = obs::makeReportEnvelope("crosscheck",
                                          "static-vs-dynamic");
  obs::Json Pages = obs::Json::array();
  size_t TotalPred = 0, TotalDyn = 0, TotalConf = 0, TotalMiss = 0;
  StaticPrecision MergedPrecision;
  for (const CrossCheckResult &R : Results) {
    obs::Json Row = obs::Json::object();
    Row.set("name", R.Name);
    Row.set("predicted", static_cast<uint64_t>(R.predictedCount()));
    Row.set("dynamic", static_cast<uint64_t>(R.dynamicCount()));
    Row.set("confirmed", static_cast<uint64_t>(R.confirmedCount()));
    Row.set("missed", static_cast<uint64_t>(R.missedCount()));
    Row.set("precision", R.precision());
    Row.set("recall", R.recall());
    obs::Json Confirmed = obs::Json::array();
    for (const PredictedRace &P : R.Confirmed)
      Confirmed.push(toString(P));
    Row.set("confirmed_predictions", std::move(Confirmed));
    obs::Json Refuted = obs::Json::array();
    for (const PredictedRace &P : R.Refuted)
      Refuted.push(toString(P));
    Row.set("unconfirmed_predictions", std::move(Refuted));
    obs::Json Missed = obs::Json::array();
    for (const MappedDynamicRace &D : R.DynamicRaces)
      if (!D.Predicted)
        Missed.push(std::string(detect::toString(D.Kind)) + " race on " +
                    D.Dynamic);
    Row.set("missed_dynamic_races", std::move(Missed));
    Row.set("static_precision", R.Precision.toJson());
    Row.set("stats", R.Dynamic.Stats.toJson());
    Pages.push(std::move(Row));
    TotalPred += R.predictedCount();
    TotalDyn += R.dynamicCount();
    TotalConf += R.confirmedCount();
    TotalMiss += R.missedCount();
    MergedPrecision.merge(R.Precision);
  }
  Doc.set("pages", std::move(Pages));
  obs::Json Totals = obs::Json::object();
  Totals.set("predicted", static_cast<uint64_t>(TotalPred));
  Totals.set("dynamic", static_cast<uint64_t>(TotalDyn));
  Totals.set("confirmed", static_cast<uint64_t>(TotalConf));
  Totals.set("missed", static_cast<uint64_t>(TotalMiss));
  Totals.set("precision", TotalPred == 0
                              ? 1.0
                              : static_cast<double>(TotalConf) / TotalPred);
  Totals.set("recall", TotalDyn == 0
                           ? 1.0
                           : static_cast<double>(TotalDyn - TotalMiss) /
                                 TotalDyn);
  Doc.set("totals", std::move(Totals));
  Doc.set("static_precision", MergedPrecision.toJson());
  return Doc;
}
