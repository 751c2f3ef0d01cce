//===- tests/obs_test.cpp - Observability layer unit tests ------------------===//

#include "obs/Json.h"
#include "obs/PhaseTimer.h"
#include "obs/Reporter.h"
#include "obs/RunStats.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

using namespace wr;
using namespace wr::obs;

namespace {

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

TEST(JsonTest, Scalars) {
  EXPECT_EQ(writeJson(Json(), false), "null");
  EXPECT_EQ(writeJson(Json(true), false), "true");
  EXPECT_EQ(writeJson(Json(false), false), "false");
  EXPECT_EQ(writeJson(Json(42), false), "42");
  EXPECT_EQ(writeJson(Json(static_cast<int64_t>(-7)), false), "-7");
  EXPECT_EQ(writeJson(Json(~static_cast<uint64_t>(0)), false),
            "18446744073709551615");
  EXPECT_EQ(writeJson(Json("hi"), false), "\"hi\"");
  EXPECT_EQ(writeJson(Json(1.5), false), "1.5");
}

TEST(JsonTest, ObjectsKeepInsertionOrder) {
  Json O = Json::object();
  O.set("zebra", 1).set("apple", 2).set("mango", 3);
  EXPECT_EQ(writeJson(O, false), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
}

TEST(JsonTest, SetReplacesInPlace) {
  Json O = Json::object();
  O.set("a", 1).set("b", 2);
  O.set("a", 9); // Replacement must not move "a" to the back.
  EXPECT_EQ(writeJson(O, false), "{\"a\":9,\"b\":2}");
}

TEST(JsonTest, ArraysAndNesting) {
  Json A = Json::array();
  A.push(1).push("two");
  Json Inner = Json::object();
  Inner.set("k", Json::array());
  A.push(std::move(Inner));
  EXPECT_EQ(writeJson(A, false), "[1,\"two\",{\"k\":[]}]");
}

TEST(JsonTest, PrettyOutputIsStable) {
  Json O = Json::object();
  O.set("n", 1);
  O.set("arr", Json::array());
  std::string First = writeJson(O);
  EXPECT_EQ(First, writeJson(O)) << "same tree, same bytes";
  EXPECT_EQ(First.back(), '\n');
}

TEST(JsonTest, Escaping) {
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("\n\t"), "\\n\\t");
  EXPECT_EQ(jsonEscape(std::string(1, '\x02')), "\\u0002");
  EXPECT_EQ(writeJson(Json("say \"hi\"\n"), false), "\"say \\\"hi\\\"\\n\"");
}

TEST(JsonTest, Find) {
  Json O = Json::object();
  O.set("present", 5);
  ASSERT_NE(O.find("present"), nullptr);
  EXPECT_EQ(O.find("present")->asUint(), 5u);
  EXPECT_EQ(O.find("absent"), nullptr);
  EXPECT_EQ(Json(1).find("x"), nullptr) << "non-objects have no members";
}

//===----------------------------------------------------------------------===//
// PhaseStats / PhaseTimer
//===----------------------------------------------------------------------===//

TEST(PhaseStatsTest, AccumulateAndMerge) {
  PhaseStats A;
  A.addWall(Phase::Parse, 100);
  A.addVirtual(Phase::Parse, 7);
  PhaseStats B;
  B.addWall(Phase::Parse, 50, 2);
  B.addVirtual(Phase::Detect, 3);
  A.merge(B);
  EXPECT_EQ(A[Phase::Parse].WallNanos, 150u);
  EXPECT_EQ(A[Phase::Parse].Entries, 3u);
  EXPECT_EQ(A[Phase::Parse].VirtualUs, 7u);
  EXPECT_EQ(A[Phase::Detect].VirtualUs, 3u);
}

TEST(PhaseStatsTest, JsonExcludesWallClock) {
  PhaseStats S;
  S.addWall(Phase::Script, 123456);
  std::string Deterministic = writeJson(S.toJson(), false);
  EXPECT_EQ(Deterministic.find("wall"), std::string::npos);
  std::string Wall = writeJson(S.wallJson(), false);
  EXPECT_NE(Wall.find("script"), std::string::npos);
}

TEST(PhaseTimerTest, NullTargetIsNoOp) {
  PhaseTimer T(nullptr, Phase::Detect); // Must not crash or dereference.
}

TEST(PhaseTimerTest, RecordsElapsedOnScopeExit) {
  PhaseStats S;
  { PhaseTimer T(&S, Phase::Filter); }
  EXPECT_EQ(S[Phase::Filter].Entries, 1u);
}

TEST(PhaseTest, NamesAreStable) {
  EXPECT_STREQ(toString(Phase::Parse), "parse");
  EXPECT_STREQ(toString(Phase::Explore), "explore");
}

//===----------------------------------------------------------------------===//
// RunStats
//===----------------------------------------------------------------------===//

RunStats sampleStats(uint64_t Scale) {
  RunStats S;
  S.Operations = 10 * Scale;
  S.HbEdges = 20 * Scale;
  S.HbEdgesByRule = {{"rule A", 2 * Scale}, {"rule B", 3 * Scale}};
  S.ChcQueries = 5 * Scale;
  S.AccessesSeen = 7 * Scale;
  S.TrackedLocations = 4 * Scale;
  S.InternedLocations = 6 * Scale;
  S.InternHits = 8 * Scale;
  S.EpochHits = 9 * Scale;
  S.ReadsSeen = 12 * Scale;
  S.DetectorBytes = 17 * Scale;
  S.Raw.Variable = Scale;
  S.Filtered.Html = Scale;
  S.Attrition.Input = Scale;
  S.Attrition.Kept = Scale;
  S.Crashes = Scale;
  S.Phases.addVirtual(Phase::Script, 11 * Scale);
  return S;
}

/// Every numeric leaf under \p J as dotted path -> value.
std::map<std::string, uint64_t> numericLeaves(const Json &J,
                                              const std::string &Path = "") {
  std::map<std::string, uint64_t> Out;
  if (J.isObject()) {
    for (const auto &[Key, Child] : J.members())
      for (const auto &Leaf :
           numericLeaves(Child, Path.empty() ? Key : Path + "." + Key))
        Out.insert(Leaf);
  } else if (J.kind() == Json::Kind::Uint || J.kind() == Json::Kind::Int) {
    Out.emplace(Path, J.asUint());
  }
  return Out;
}

/// A record with every field set to its own nonzero value, counted up
/// from \p Base: both optional report groups and the suppression count
/// present, two per-rule edge counts and both prediction rows.
RunStats everyFieldStats(uint64_t Base) {
  uint64_t Next = Base;
  auto V = [&] { return ++Next; };
  RunStats S;
  S.Operations = V();
  S.HbEdges = V();
  S.HbEdgesByRule = {{"rule A", V()}, {"rule B", V()}};
  S.ChcQueries = V();
  S.VcChains = V();
  S.ClockBytes = V();
  S.ClockMerges = V();
  S.SharedClocks = V();
  S.AccessesSeen = V();
  S.TrackedLocations = V();
  S.InternedLocations = V();
  S.InternHits = V();
  S.EpochHits = V();
  S.ReadsSeen = V();
  S.DetectorBytes = V();
  S.Sampling.Enabled = true;
  S.Sampling.RatePpm = V();
  S.Sampling.SeenReads = V();
  S.Sampling.SeenWrites = V();
  S.Sampling.SampledReads = V();
  S.Sampling.SampledWrites = V();
  S.Sampling.DroppedReads = V();
  S.Sampling.DroppedWrites = V();
  for (RaceCounts *C : {&S.Raw, &S.Filtered}) {
    C->Variable = V();
    C->Html = V();
    C->Function = V();
    C->EventDispatch = V();
  }
  S.Attrition.Input = V();
  S.Attrition.NotFormField = V();
  S.Attrition.PriorReadGuard = V();
  S.Attrition.MultiDispatch = V();
  S.Attrition.Suppressed = V();
  S.Attrition.Kept = V();
  for (const char *Engine : {"shb", "wcp"}) {
    PredictionRow Row;
    Row.Engine = Engine;
    Row.PairsChecked = V();
    Row.DroppedEdges = V();
    Row.Candidates = V();
    Row.Observed = V();
    Row.Predicted.Variable = V();
    Row.Predicted.Html = V();
    Row.Predicted.Function = V();
    Row.Predicted.EventDispatch = V();
    S.Prediction.push_back(Row);
  }
  S.TasksRun = V();
  S.VirtualTimeUs = V();
  S.Crashes = V();
  S.Alerts = V();
  S.ParseErrors = V();
  S.EventsDispatched = V();
  S.LinksClicked = V();
  S.BoxesTyped = V();
  for (size_t I = 0; I < NumPhases; ++I) {
    S.Phases.addWall(static_cast<Phase>(I), V(), V());
    S.Phases.addVirtual(static_cast<Phase>(I), V());
  }
  return S;
}

TEST(RunStatsTest, MergeSumsEveryField) {
  RunStats A = everyFieldStats(1000);
  RunStats B = everyFieldStats(2000);
  RunStats Merged = A;
  Merged.merge(B);

  // Held to the report tree, not to a field list: a field merge() skips
  // shows as a leaf that is not the sum of the inputs' leaves.
  std::map<std::string, uint64_t> LeavesA = numericLeaves(A.toJson());
  std::map<std::string, uint64_t> LeavesB = numericLeaves(B.toJson());
  std::map<std::string, uint64_t> LeavesMerged =
      numericLeaves(Merged.toJson());
  // A leaf everyFieldStats leaves at zero would sum to zero whether or
  // not merge() covers it.
  for (const auto &[Path, Value] : LeavesA)
    EXPECT_NE(Value, 0u) << Path << " is unset in everyFieldStats";
  ASSERT_EQ(LeavesB.size(), LeavesA.size());
  ASSERT_EQ(LeavesMerged.size(), LeavesA.size());
  for (const auto &[Path, Value] : LeavesMerged) {
    // Corpus sites share one sampling configuration: the rate is
    // adopted from the first sampled record, not summed.
    uint64_t Want = Path == "wr_sampling.rate_ppm"
                        ? LeavesA.at(Path)
                        : LeavesA.at(Path) + LeavesB.at(Path);
    EXPECT_EQ(Value, Want) << Path;
  }
  // toJson() leaves wall time out; the phase merge sums it all the same.
  for (size_t I = 0; I < NumPhases; ++I) {
    Phase P = static_cast<Phase>(I);
    EXPECT_EQ(Merged.Phases[P].WallNanos,
              A.Phases[P].WallNanos + B.Phases[P].WallNanos)
        << toString(P);
  }

  // Merging into an empty record adopts everything, the rate included.
  RunStats Empty;
  Empty.merge(A);
  EXPECT_EQ(writeJson(Empty.toJson()), writeJson(A.toJson()));
}

TEST(RunStatsTest, MergeByRuleNameHandlesDisjointSets) {
  RunStats A;
  A.HbEdgesByRule = {{"rule A", 1}};
  RunStats B;
  B.HbEdgesByRule = {{"rule B", 2}};
  A.merge(B);
  ASSERT_EQ(A.HbEdgesByRule.size(), 2u);
  EXPECT_EQ(A.HbEdgesByRule[1].Name, "rule B");
  EXPECT_EQ(A.HbEdgesByRule[1].Count, 2u);
}

TEST(RunStatsTest, MergeOrderInsensitiveTotals) {
  RunStats AB = sampleStats(1);
  AB.merge(sampleStats(4));
  RunStats BA = sampleStats(4);
  BA.merge(sampleStats(1));
  EXPECT_EQ(writeJson(AB.toJson()), writeJson(BA.toJson()));
}

TEST(RunStatsTest, JsonIsDeterministicAndWallFree) {
  RunStats S = sampleStats(3);
  S.Phases.addWall(Phase::Detect, 987654); // Wall noise must not leak.
  std::string Doc = writeJson(S.toJson(), false);
  EXPECT_EQ(Doc, writeJson(S.toJson(), false));
  EXPECT_EQ(Doc.find("wall"), std::string::npos);
  EXPECT_NE(Doc.find("\"operations\":30"), std::string::npos);
  EXPECT_NE(Doc.find("\"rule A\":6"), std::string::npos);
}

/// Checks that \p S lists exactly its report: every numeric leaf of
/// toJson() with an equal value under the same dotted name, plus
/// phases.<p>.wall_ns, which reports leave out on purpose - and nothing
/// else, in name order.
void expectMetricsMatchReport(const RunStats &S) {
  std::map<std::string, uint64_t> Leaves = numericLeaves(S.toJson());
  for (size_t I = 0; I < NumPhases; ++I) {
    Phase P = static_cast<Phase>(I);
    Leaves.emplace(std::string("phases.") + toString(P) + ".wall_ns",
                   S.Phases[P].WallNanos);
  }
  // std::map iterates in name order, so this also checks the order.
  std::vector<std::pair<std::string, uint64_t>> Want(Leaves.begin(),
                                                     Leaves.end());
  EXPECT_EQ(S.metrics(), Want);
}

/// The listed value of \p Name, or ~0 when it is not listed.
uint64_t listed(const RunStats &S, const std::string &Name) {
  for (const auto &[Metric, Value] : S.metrics())
    if (Metric == Name)
      return Value;
  return ~static_cast<uint64_t>(0);
}

TEST(RunStatsTest, ExportToRegistry) {
  RunStats S = sampleStats(2);
  // Without sampling, suppressions or prediction the optional report
  // groups are absent, and so are their metrics.
  expectMetricsMatchReport(S);
  EXPECT_EQ(listed(S, "filter_attrition.suppressed"),
            ~static_cast<uint64_t>(0));

  // Every optional group present, with distinct values everywhere, so a
  // metric listed under the wrong name or from the wrong field shows.
  S = everyFieldStats(0);
  expectMetricsMatchReport(S);
  EXPECT_EQ(listed(S, "operations"), S.Operations);
  EXPECT_EQ(listed(S, "races_raw.variable"), S.Raw.Variable);
  EXPECT_EQ(listed(S, "interned_locations"), S.InternedLocations);
  EXPECT_EQ(listed(S, "intern_hits"), S.InternHits);
  EXPECT_EQ(listed(S, "epoch_hits"), S.EpochHits);
  EXPECT_EQ(listed(S, "filter_attrition.suppressed"), S.Attrition.Suppressed);
  EXPECT_EQ(listed(S, "wr_sampling.dropped.total"),
            S.Sampling.DroppedReads + S.Sampling.DroppedWrites);
  EXPECT_EQ(listed(S, "wr_prediction.wcp.predicted.total"),
            S.Prediction[1].Predicted.total());
  EXPECT_EQ(listed(S, "hb_edges_by_rule.rule B"), S.HbEdgesByRule[1].Count);
  EXPECT_EQ(listed(S, "phases.script.virtual_us"),
            S.Phases[Phase::Script].VirtualUs);
  EXPECT_EQ(listed(S, "phases.detect.wall_ns"),
            S.Phases[Phase::Detect].WallNanos);
}

//===----------------------------------------------------------------------===//
// Reporter
//===----------------------------------------------------------------------===//

TEST(ReporterTest, EnvelopeLeadsWithSchema) {
  Json Doc = makeReportEnvelope("run", "fig1");
  std::string Out;
  JsonReporter R(Out);
  R.emit(Doc);
  EXPECT_EQ(Out.find("{\n  \"schema\": 1,\n  \"tool\": \"webracer\""), 0u);
  EXPECT_NE(Out.find("\"kind\": \"run\""), std::string::npos);
  EXPECT_NE(Out.find("\"name\": \"fig1\""), std::string::npos);
}

TEST(ReporterTest, TextBackendSkipsMachineKeys) {
  Json Doc = makeReportEnvelope("run", "fig1");
  Doc.set("stats", Json::object());
  std::string Out;
  TextReporter R(Out);
  R.emit(Doc);
  EXPECT_EQ(Out.find("schema"), std::string::npos);
  EXPECT_EQ(Out.find("tool"), std::string::npos);
  EXPECT_NE(Out.find("kind: run"), std::string::npos);
  EXPECT_NE(Out.find("name: fig1"), std::string::npos);
}

TEST(ReporterTest, BothBackendsConsumeOneDocument) {
  Json Doc = makeReportEnvelope("corpus", "c");
  Json Arr = Json::array();
  Json Row = Json::object();
  Row.set("name", "s1");
  Row.set("n", 2);
  Arr.push(std::move(Row));
  Doc.set("sites", std::move(Arr));
  std::string JsonOut, TextOut;
  JsonReporter(JsonOut).emit(Doc);
  TextReporter(TextOut).emit(Doc);
  EXPECT_NE(JsonOut.find("\"sites\""), std::string::npos);
  EXPECT_NE(TextOut.find("sites:"), std::string::npos);
  EXPECT_NE(TextOut.find("name: s1"), std::string::npos);
}

} // namespace
