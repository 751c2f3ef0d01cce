//===- bench/perf/Suite.cpp - Span and counter bookkeeping --------------------===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

using namespace perf;

void Tracer::add(const std::string &Name, double Ms, bool Probe) {
  Entries.push_back({Name, Ms, Probe});
}

double Tracer::ms(const std::string &Name) const {
  double Sum = 0;
  for (const Entry &E : Entries)
    if (E.Name == Name)
      Sum += E.Ms;
  return Sum;
}

double Tracer::nonProbeMs() const {
  double Sum = 0;
  for (const Entry &E : Entries)
    if (!E.Probe)
      Sum += E.Ms;
  return Sum;
}

static double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

void PassResult::countRunStats(const wr::obs::RunStats &S, uint64_t Chains) {
  double Predicted = 0, PairsChecked = 0;
  for (const wr::obs::PredictionRow &Row : S.Prediction) {
    Predicted += static_cast<double>(Row.Predicted.total());
    PairsChecked += static_cast<double>(Row.PairsChecked);
  }
  auto D = [](uint64_t V) { return static_cast<double>(V); };
  count("hb.operations", D(S.Operations));
  count("hb.edges", D(S.HbEdges));
  count("hb.vc_chains", D(Chains));
  count("hb.clock_bytes", D(S.ClockBytes));
  count("hb.shared_clock_ratio", ratio(D(S.SharedClocks), D(S.Operations)));
  count("detect.accesses", D(S.AccessesSeen));
  count("detect.read_share", ratio(D(S.ReadsSeen), D(S.AccessesSeen)));
  count("detect.epoch_hit_rate",
        ratio(D(S.EpochHits), D(S.EpochHits) + D(S.ChcQueries)));
  count("detect.chc_queries", D(S.ChcQueries));
  count("detect.read_inflations", D(S.ReadInflations));
  count("detect.detector_bytes", D(S.DetectorBytes));
  count("detect.raw_races", D(S.Raw.total()));
  count("detect.filter_keep_ratio",
        ratio(D(S.Filtered.total()), D(S.Raw.total())));
  count("detect.predicted_races", Predicted);
  count("detect.predict_yield", ratio(Predicted, PairsChecked));
  count("runtime.tasks_run", D(S.TasksRun));
  count("explore.events_dispatched", D(S.EventsDispatched));
}
