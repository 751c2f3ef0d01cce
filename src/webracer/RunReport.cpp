//===- webracer/RunReport.cpp - Machine-readable run reports -----------------===//

#include "webracer/RunReport.h"

using namespace wr;
using namespace wr::webracer;

static obs::Json accessToJson(const Access &A, const HbGraph &Hb) {
  obs::Json O = obs::Json::object();
  O.set("access", toString(A.Kind));
  O.set("origin", toString(A.Origin));
  O.set("op", static_cast<uint64_t>(A.Op));
  const Operation &Op = Hb.operation(A.Op);
  O.set("op_kind", toString(Op.Kind));
  O.set("op_label", Op.Label);
  if (!A.Detail.empty())
    O.set("detail", A.Detail);
  return O;
}

obs::Json wr::webracer::raceToJson(const detect::Race &R,
                                   const HbGraph &Hb) {
  obs::Json O = obs::Json::object();
  O.set("kind", detect::toString(R.Kind));
  O.set("location", toString(R.Loc));
  O.set("first", accessToJson(R.First, Hb));
  O.set("second", accessToJson(R.Second, Hb));
  if (R.WriteHadPriorReadInOp)
    O.set("write_had_prior_read", true);
  return O;
}

static obs::Json
predictionsToJson(const std::vector<detect::PredictionResult> &Predictions,
                  const HbGraph &Hb) {
  obs::Json O = obs::Json::object();
  for (const detect::PredictionResult &P : Predictions) {
    obs::Json Arr = obs::Json::array();
    for (const detect::PredictedRace &PR : P.Races) {
      obs::Json R = raceToJson(PR.R, Hb);
      R.set("verdict", detect::toString(PR.Verdict));
      Arr.push(std::move(R));
    }
    O.set(toString(P.Engine), std::move(Arr));
  }
  return O;
}

obs::Json wr::webracer::racesToJson(
    const std::vector<detect::Race> &Raw,
    const std::vector<detect::Race> &Filtered,
    const std::vector<detect::PredictionResult> &Predictions,
    const HbGraph &Hb) {
  auto List = [&](const std::vector<detect::Race> &Races) {
    obs::Json Arr = obs::Json::array();
    for (const detect::Race &Race : Races)
      Arr.push(raceToJson(Race, Hb));
    return Arr;
  };
  obs::Json O = obs::Json::object();
  O.set("raw", List(Raw));
  O.set("filtered", List(Filtered));
  if (!Predictions.empty())
    O.set("predicted", predictionsToJson(Predictions, Hb));
  return O;
}

obs::Json wr::webracer::buildRunReport(const std::string &Name,
                                       const SessionResult &R,
                                       const HbGraph &Hb,
                                       bool IncludeTiming) {
  obs::Json Doc = obs::makeReportEnvelope("run", Name);
  Doc.set("stats", R.Stats.toJson());
  if (IncludeTiming) {
    obs::Json Timing = obs::Json::object();
    Timing.set("phases_wall_ms", R.Stats.Phases.wallJson());
    Doc.set("timing", std::move(Timing));
  }
  std::vector<detect::PredictionResult> Predictions;
  for (const detect::PredictionPass &P : R.Predictions)
    Predictions.push_back(detect::materialize(*R.Trace, P));
  Doc.set("races", racesToJson(R.RawRaces, R.FilteredRaces, Predictions, Hb));
  return Doc;
}
