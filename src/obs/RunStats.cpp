//===- obs/RunStats.cpp - Structured statistics of one run ---------------------===//

#include "obs/RunStats.h"

#include <algorithm>

using namespace wr::obs;

Json RaceCounts::toJson() const {
  Json J = Json::object();
  J.set("html", Html);
  J.set("function", Function);
  J.set("variable", Variable);
  J.set("event_dispatch", EventDispatch);
  J.set("total", total());
  return J;
}

Json FilterAttrition::toJson() const {
  Json J = Json::object();
  J.set("input", Input);
  J.set("not_form_field", NotFormField);
  J.set("prior_read_guard", PriorReadGuard);
  J.set("multi_dispatch", MultiDispatch);
  // Present only when a suppression file dropped something, so reports
  // produced without suppressions keep the pre-triage byte layout.
  if (Suppressed)
    J.set("suppressed", Suppressed);
  J.set("kept", Kept);
  return J;
}

Json SamplingStats::toJson() const {
  Json J = Json::object();
  J.set("rate_ppm", RatePpm);
  Json Seen = Json::object();
  Seen.set("reads", SeenReads);
  Seen.set("writes", SeenWrites);
  Seen.set("total", SeenReads + SeenWrites);
  J.set("seen", std::move(Seen));
  Json Sampled = Json::object();
  Sampled.set("reads", SampledReads);
  Sampled.set("writes", SampledWrites);
  Sampled.set("total", SampledReads + SampledWrites);
  J.set("sampled", std::move(Sampled));
  Json Dropped = Json::object();
  Dropped.set("reads", DroppedReads);
  Dropped.set("writes", DroppedWrites);
  Dropped.set("total", DroppedReads + DroppedWrites);
  J.set("dropped", std::move(Dropped));
  return J;
}

Json PredictionRow::toJson() const {
  Json J = Json::object();
  J.set("pairs_checked", PairsChecked);
  J.set("dropped_edges", DroppedEdges);
  J.set("candidates", Candidates);
  J.set("observed_matched", Observed);
  J.set("predicted", Predicted.toJson());
  return J;
}

void RunStats::merge(const RunStats &O) {
  Operations += O.Operations;
  HbEdges += O.HbEdges;
  for (const NamedCount &Theirs : O.HbEdgesByRule) {
    bool Found = false;
    for (NamedCount &Ours : HbEdgesByRule) {
      if (Ours.Name == Theirs.Name) {
        Ours.Count += Theirs.Count;
        Found = true;
        break;
      }
    }
    if (!Found)
      HbEdgesByRule.push_back(Theirs);
  }
  ChcQueries += O.ChcQueries;
  VcChains += O.VcChains;
  ClockBytes += O.ClockBytes;
  ClockMerges += O.ClockMerges;
  SharedClocks += O.SharedClocks;
  AccessesSeen += O.AccessesSeen;
  TrackedLocations += O.TrackedLocations;
  InternedLocations += O.InternedLocations;
  InternHits += O.InternHits;
  EpochHits += O.EpochHits;
  ReadsSeen += O.ReadsSeen;
  EpochReads += O.EpochReads;
  ReadInflations += O.ReadInflations;
  ReadDeflations += O.ReadDeflations;
  ReadVectorLocations += O.ReadVectorLocations;
  DetectorBytes += O.DetectorBytes;
  Sampling.merge(O.Sampling);
  Raw.merge(O.Raw);
  Filtered.merge(O.Filtered);
  Attrition.merge(O.Attrition);
  for (const PredictionRow &Theirs : O.Prediction) {
    bool Found = false;
    for (PredictionRow &Ours : Prediction) {
      if (Ours.Engine == Theirs.Engine) {
        Ours.merge(Theirs);
        Found = true;
        break;
      }
    }
    if (!Found)
      Prediction.push_back(Theirs);
  }
  TasksRun += O.TasksRun;
  VirtualTimeUs += O.VirtualTimeUs;
  Crashes += O.Crashes;
  Alerts += O.Alerts;
  ParseErrors += O.ParseErrors;
  EventsDispatched += O.EventsDispatched;
  LinksClicked += O.LinksClicked;
  BoxesTyped += O.BoxesTyped;
  Phases.merge(O.Phases);
}

Json RunStats::toJson() const {
  Json J = Json::object();
  J.set("operations", Operations);
  J.set("hb_edges", HbEdges);
  Json Rules = Json::object();
  for (const NamedCount &R : HbEdgesByRule)
    Rules.set(R.Name, R.Count);
  J.set("hb_edges_by_rule", std::move(Rules));
  J.set("chc_queries", ChcQueries);
  J.set("vc_chains", VcChains);
  J.set("clock_bytes", ClockBytes);
  J.set("clock_merges", ClockMerges);
  J.set("shared_clocks", SharedClocks);
  J.set("accesses", AccessesSeen);
  J.set("tracked_locations", TrackedLocations);
  J.set("interned_locations", InternedLocations);
  J.set("intern_hits", InternHits);
  J.set("epoch_hits", EpochHits);
  Json Epochs = Json::object();
  Epochs.set("reads", ReadsSeen);
  Epochs.set("epoch_reads", EpochReads);
  Epochs.set("read_inflations", ReadInflations);
  Epochs.set("read_deflations", ReadDeflations);
  Epochs.set("read_vector_locations", ReadVectorLocations);
  Epochs.set("detector_bytes", DetectorBytes);
  J.set("wr_epochs", std::move(Epochs));
  // Present only when the sampling layer ran, so unsampled reports stay
  // byte-identical to the pre-sampling schema (the rate-1.0 identity
  // gate in bench/sampling_recall and tests/report_schema_test).
  if (Sampling.enabled())
    J.set("wr_sampling", Sampling.toJson());
  J.set("races_raw", Raw.toJson());
  J.set("races_filtered", Filtered.toJson());
  J.set("filter_attrition", Attrition.toJson());
  // Present only when a predictive pass ran, so reports without
  // prediction stay byte-identical to the pre-engine schema.
  if (!Prediction.empty()) {
    Json Pred = Json::object();
    for (const PredictionRow &Row : Prediction)
      Pred.set(Row.Engine, Row.toJson());
    J.set("wr_prediction", std::move(Pred));
  }
  J.set("tasks", TasksRun);
  J.set("virtual_time_us", VirtualTimeUs);
  J.set("crashes", Crashes);
  J.set("alerts", Alerts);
  J.set("parse_errors", ParseErrors);
  Json Explore = Json::object();
  Explore.set("events_dispatched", EventsDispatched);
  Explore.set("links_clicked", LinksClicked);
  Explore.set("boxes_typed", BoxesTyped);
  J.set("explore", std::move(Explore));
  J.set("phases", Phases.toJson());
  return J;
}

namespace {

/// Appends every numeric leaf under \p J as (dotted path, value).
void appendNumericLeaves(const Json &J, const std::string &Path,
                         std::vector<std::pair<std::string, uint64_t>> &Out) {
  if (J.isObject()) {
    for (const auto &[Key, Child] : J.members())
      appendNumericLeaves(Child, Path.empty() ? Key : Path + "." + Key, Out);
  } else if (J.kind() == Json::Kind::Uint || J.kind() == Json::Kind::Int) {
    Out.emplace_back(Path, J.asUint());
  }
}

} // namespace

std::vector<std::pair<std::string, uint64_t>> RunStats::metrics() const {
  std::vector<std::pair<std::string, uint64_t>> Out;
  appendNumericLeaves(toJson(), "", Out);
  for (size_t I = 0; I < NumPhases; ++I) {
    Phase P = static_cast<Phase>(I);
    Out.emplace_back(std::string("phases.") + toString(P) + ".wall_ns",
                     Phases[P].WallNanos);
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}
