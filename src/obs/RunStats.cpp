//===- obs/RunStats.cpp - Structured statistics of one run ---------------------===//

#include "obs/RunStats.h"

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

void RunStats::exportTo(MetricsRegistry &Registry,
                        const std::string &Prefix) const {
  auto C = [&](const char *Name, uint64_t Value) {
    Registry.counter(Prefix + "." + Name).inc(Value);
  };
  C("operations", Operations);
  C("hb_edges", HbEdges);
  for (const NamedCount &R : HbEdgesByRule)
    Registry.counter(Prefix + ".hb_edges_by_rule." + R.Name).inc(R.Count);
  C("chc_queries", ChcQueries);
  C("vc_chains", VcChains);
  C("clock_bytes", ClockBytes);
  C("clock_merges", ClockMerges);
  C("shared_clocks", SharedClocks);
  C("accesses", AccessesSeen);
  C("tracked_locations", TrackedLocations);
  C("interned_locations", InternedLocations);
  C("intern_hits", InternHits);
  C("epoch_hits", EpochHits);
  C("wr_epochs.reads", ReadsSeen);
  C("wr_epochs.epoch_reads", EpochReads);
  C("wr_epochs.read_inflations", ReadInflations);
  C("wr_epochs.read_deflations", ReadDeflations);
  C("wr_epochs.read_vector_locations", ReadVectorLocations);
  C("wr_epochs.detector_bytes", DetectorBytes);
  if (Sampling.enabled()) {
    C("wr_sampling.rate_ppm", Sampling.RatePpm);
    C("wr_sampling.seen.reads", Sampling.SeenReads);
    C("wr_sampling.seen.writes", Sampling.SeenWrites);
    C("wr_sampling.seen.total", Sampling.SeenReads + Sampling.SeenWrites);
    C("wr_sampling.sampled.reads", Sampling.SampledReads);
    C("wr_sampling.sampled.writes", Sampling.SampledWrites);
    C("wr_sampling.sampled.total",
      Sampling.SampledReads + Sampling.SampledWrites);
    C("wr_sampling.dropped.reads", Sampling.DroppedReads);
    C("wr_sampling.dropped.writes", Sampling.DroppedWrites);
    C("wr_sampling.dropped.total",
      Sampling.DroppedReads + Sampling.DroppedWrites);
  }
  C("races_raw.total", Raw.total());
  C("races_raw.variable", Raw.Variable);
  C("races_raw.html", Raw.Html);
  C("races_raw.function", Raw.Function);
  C("races_raw.event_dispatch", Raw.EventDispatch);
  C("races_filtered.total", Filtered.total());
  C("races_filtered.variable", Filtered.Variable);
  C("races_filtered.html", Filtered.Html);
  C("races_filtered.function", Filtered.Function);
  C("races_filtered.event_dispatch", Filtered.EventDispatch);
  C("filter_attrition.input", Attrition.Input);
  C("filter_attrition.not_form_field", Attrition.NotFormField);
  C("filter_attrition.prior_read_guard", Attrition.PriorReadGuard);
  C("filter_attrition.multi_dispatch", Attrition.MultiDispatch);
  if (Attrition.Suppressed)
    C("filter_attrition.suppressed", Attrition.Suppressed);
  C("filter_attrition.kept", Attrition.Kept);
  for (const PredictionRow &Row : Prediction) {
    std::string Base = Prefix + ".wr_prediction." + Row.Engine;
    Registry.counter(Base + ".pairs_checked").inc(Row.PairsChecked);
    Registry.counter(Base + ".dropped_edges").inc(Row.DroppedEdges);
    Registry.counter(Base + ".candidates").inc(Row.Candidates);
    Registry.counter(Base + ".observed_matched").inc(Row.Observed);
    Registry.counter(Base + ".predicted.html").inc(Row.Predicted.Html);
    Registry.counter(Base + ".predicted.function").inc(Row.Predicted.Function);
    Registry.counter(Base + ".predicted.variable").inc(Row.Predicted.Variable);
    Registry.counter(Base + ".predicted.event_dispatch")
        .inc(Row.Predicted.EventDispatch);
    Registry.counter(Base + ".predicted.total").inc(Row.Predicted.total());
  }
  C("tasks", TasksRun);
  C("virtual_time_us", VirtualTimeUs);
  C("crashes", Crashes);
  C("alerts", Alerts);
  C("parse_errors", ParseErrors);
  C("explore.events_dispatched", EventsDispatched);
  C("explore.links_clicked", LinksClicked);
  C("explore.boxes_typed", BoxesTyped);
  for (size_t I = 0; I < NumPhases; ++I) {
    Phase P = static_cast<Phase>(I);
    const PhaseStat &S = Phases[P];
    std::string Base = Prefix + ".phases." + toString(P);
    Registry.counter(Base + ".virtual_us").inc(S.VirtualUs);
    Registry.counter(Base + ".entries").inc(S.Entries);
    Registry.counter(Base + ".wall_ns").inc(S.WallNanos);
  }
}
