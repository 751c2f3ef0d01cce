//===- tests/obs_test.cpp - Observability layer unit tests ------------------===//

#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/PhaseTimer.h"
#include "obs/Reporter.h"
#include "obs/RunStats.h"

#include <gtest/gtest.h>

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
// Metrics
//===----------------------------------------------------------------------===//

TEST(MetricsTest, CounterAndGauge) {
  MetricsRegistry Reg;
  Counter &C = Reg.counter("ops");
  C.inc();
  C.inc(9);
  EXPECT_EQ(C.value(), 10u);
  EXPECT_EQ(&Reg.counter("ops"), &C) << "same name, same cell";
  Reg.gauge("ratio").set(0.5);
  EXPECT_EQ(Reg.gauge("ratio").value(), 0.5);
  EXPECT_EQ(Reg.size(), 2u);
}

TEST(MetricsTest, HistogramBucketsAndSummary) {
  Histogram H;
  H.observe(0);
  H.observe(1);
  H.observe(2);
  H.observe(1000);
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.sum(), 1003u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 1000u);
  EXPECT_DOUBLE_EQ(H.mean(), 1003.0 / 4.0);
  EXPECT_EQ(H.buckets()[0], 1u) << "bucket 0 counts zeros";
}

TEST(MetricsTest, TextDumpIsNameSorted) {
  MetricsRegistry Reg;
  Reg.counter("b");
  Reg.counter("a");
  std::string Text = Reg.toText();
  EXPECT_LT(Text.find("a 0"), Text.find("b 0"));
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
  S.EpochReads = 13 * Scale;
  S.ReadInflations = 14 * Scale;
  S.ReadDeflations = 15 * Scale;
  S.ReadVectorLocations = 16 * Scale;
  S.DetectorBytes = 17 * Scale;
  S.Raw.Variable = Scale;
  S.Filtered.Html = Scale;
  S.Attrition.Input = Scale;
  S.Attrition.Kept = Scale;
  S.Crashes = Scale;
  S.Phases.addVirtual(Phase::Script, 11 * Scale);
  return S;
}

TEST(RunStatsTest, MergeSumsEveryField) {
  RunStats A = sampleStats(1);
  A.merge(sampleStats(2));
  EXPECT_EQ(A.Operations, 30u);
  EXPECT_EQ(A.HbEdges, 60u);
  EXPECT_EQ(A.ChcQueries, 15u);
  EXPECT_EQ(A.AccessesSeen, 21u);
  EXPECT_EQ(A.TrackedLocations, 12u);
  EXPECT_EQ(A.InternedLocations, 18u);
  EXPECT_EQ(A.InternHits, 24u);
  EXPECT_EQ(A.EpochHits, 27u);
  EXPECT_EQ(A.ReadsSeen, 36u);
  EXPECT_EQ(A.EpochReads, 39u);
  EXPECT_EQ(A.ReadInflations, 42u);
  EXPECT_EQ(A.ReadDeflations, 45u);
  EXPECT_EQ(A.ReadVectorLocations, 48u);
  EXPECT_EQ(A.DetectorBytes, 51u);
  EXPECT_EQ(A.Raw.Variable, 3u);
  EXPECT_EQ(A.Filtered.Html, 3u);
  EXPECT_EQ(A.Attrition.Input, 3u);
  EXPECT_EQ(A.Crashes, 3u);
  EXPECT_EQ(A.Phases[Phase::Script].VirtualUs, 33u);
  ASSERT_EQ(A.HbEdgesByRule.size(), 2u);
  EXPECT_EQ(A.HbEdgesByRule[0].Name, "rule A");
  EXPECT_EQ(A.HbEdgesByRule[0].Count, 6u);
  EXPECT_EQ(A.HbEdgesByRule[1].Count, 9u);
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

/// Appends to \p Out every numeric leaf under \p J as (dotted path,
/// value).
void numericLeaves(const Json &J, const std::string &Path,
                   std::vector<std::pair<std::string, uint64_t>> &Out) {
  if (J.isObject()) {
    for (const auto &[Key, Child] : J.members())
      numericLeaves(Child, Path + "." + Key, Out);
  } else if (J.kind() == Json::Kind::Uint || J.kind() == Json::Kind::Int) {
    Out.emplace_back(Path, J.asUint());
  }
}

TEST(RunStatsTest, ExportToRegistry) {
  RunStats S = sampleStats(2);
  // Distinct values per engine and per race kind, so a counter exported
  // under the wrong name or from the wrong field shows.
  for (uint64_t I = 0; I < 2; ++I) {
    PredictionRow Row;
    Row.Engine = I == 0 ? "shb" : "wcp";
    Row.PairsChecked = 100 + I;
    Row.DroppedEdges = 200 + I;
    Row.Candidates = 300 + I;
    Row.Observed = 400 + I;
    Row.Predicted.Html = 10 + I;
    Row.Predicted.Function = 20 + I;
    Row.Predicted.Variable = 30 + I;
    Row.Predicted.EventDispatch = 40 + I;
    S.Prediction.push_back(Row);
  }
  MetricsRegistry Reg;
  S.exportTo(Reg, "wr");
  EXPECT_EQ(Reg.counter("wr.operations").value(), 20u);
  EXPECT_EQ(Reg.counter("wr.races_raw.variable").value(), 2u);
  EXPECT_EQ(Reg.counter("wr.interned_locations").value(), 12u);
  EXPECT_EQ(Reg.counter("wr.intern_hits").value(), 16u);
  EXPECT_EQ(Reg.counter("wr.epoch_hits").value(), 18u);

  // Every numeric leaf the report writes under wr_prediction has an
  // equal-valued --metrics counter of the same name.
  Json Report = S.toJson();
  const Json *Pred = Report.find("wr_prediction");
  ASSERT_NE(Pred, nullptr);
  std::vector<std::pair<std::string, uint64_t>> Leaves;
  numericLeaves(*Pred, "wr.wr_prediction", Leaves);
  EXPECT_EQ(Leaves.size(), 18u);
  Json Exported = Reg.toJson();
  const Json *Counters = Exported.find("counters");
  ASSERT_NE(Counters, nullptr);
  for (const auto &[Name, Value] : Leaves) {
    const Json *Counter = Counters->find(Name);
    ASSERT_NE(Counter, nullptr) << Name << " is not exported";
    EXPECT_EQ(Counter->asUint(), Value) << Name;
  }
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
