//===- tests/triage_test.cpp - Triage engine tests --------------------------===//
//
// The triage engine's contract:
//
//  * Structural signatures are invariant under the seed and the site
//    layout (pattern uniquifier suffixes) - the same source pattern signs
//    identically everywhere.
//  * Suppression files round-trip through parse/serialize, reject
//    malformed input with line-numbered diagnostics, and drop races
//    without silent attrition (counts land in FilterAttrition, per-entry
//    hits let unmatched entries warn).
//  * Batch ingest emits a byte-identical report at every job count, with
//    and without prediction, and its counts reconcile with the replays'
//    own tallies; a --predict batch matches a checked-in golden report.
//
//===----------------------------------------------------------------------===//

#include "detect/TraceReplay.h"
#include "obs/Json.h"
#include "sites/Corpus.h"
#include "sites/CorpusRunner.h"
#include "support/Rng.h"
#include "triage/Batch.h"
#include "triage/Signature.h"
#include "triage/Suppression.h"
#include "webracer/Session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace wr;
namespace fs = std::filesystem;

namespace {

/// Sorted signature texts of one site run (the race "set" modulo ids).
std::vector<std::string> signatureTexts(const sites::SiteRunStats &S) {
  std::vector<std::string> Texts;
  for (const triage::RaceSignature &Sig : S.Signatures)
    Texts.push_back(Sig.text());
  std::sort(Texts.begin(), Texts.end());
  return Texts;
}

sites::GeneratedSite patternSite(const std::string &Name,
                                 std::vector<sites::PatternInstance> Ps) {
  return sites::buildSite({Name, std::move(Ps)});
}

/// Records the first \p Count sites of the seed-2012 corpus into \p Dir as
/// site-NNN.wrt, each under a browser seed drawn from Rng(2012).
void recordCorpusTraces(const fs::path &Dir, size_t Count) {
  fs::create_directories(Dir);
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(2012);
  ASSERT_LE(Count, Corpus.size());
  Rng Seeds(2012);
  for (size_t I = 0; I < Count; ++I) {
    const sites::GeneratedSite &Site = Corpus[I];
    webracer::SessionOptions Opts;
    Opts.RecordTrace = true;
    Opts.Browser.Seed = Seeds.next();
    webracer::Session S(Opts);
    S.network().addResource(Site.IndexUrl, Site.Html, 10);
    for (const sites::SiteResource &R : Site.Resources)
      S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                        R.MaxLatencyUs);
    (void)S.run(Site.IndexUrl);
    char Name[32];
    std::snprintf(Name, sizeof(Name), "site-%03zu.wrt", I);
    std::ofstream Out(Dir / Name, std::ios::binary | std::ios::trunc);
    std::string Bytes = S.trace()->serialize();
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    ASSERT_TRUE(Out.good());
  }
}

/// Sorted trace paths of \p Dir.
std::vector<std::string> tracePaths(const fs::path &Dir) {
  std::vector<std::string> Paths;
  std::string Error;
  EXPECT_TRUE(triage::listTraceFiles(Dir.string(), Paths, Error)) << Error;
  return Paths;
}

TEST(SignatureTest, NormalizeSourcePatternFoldsDigitRuns) {
  EXPECT_EQ(triage::normalizeSourcePattern("dw_p3"), "dw_p#");
  EXPECT_EQ(triage::normalizeSourcePattern("menu_p12_0"), "menu_p#_#");
  EXPECT_EQ(triage::normalizeSourcePattern("plain"), "plain");
  EXPECT_EQ(triage::normalizeSourcePattern("42"), "#");
  EXPECT_EQ(triage::normalizeSourcePattern(""), "");
}

TEST(SignatureTest, InvariantAcrossSeeds) {
  // The same site at different seeds schedules differently (network
  // jitter, exploration order) but must produce the same signature set
  // for the seeded pattern.
  sites::GeneratedSite Site = patternSite(
      "sig-seeds", {{sites::PatternKind::FormValueHarmful, 1},
                    {sites::PatternKind::HtmlLookupHarmful, 1}});
  webracer::SessionOptions Base;
  sites::SiteRunStats A = sites::runSite(Site, Base, 7);
  sites::SiteRunStats B = sites::runSite(Site, Base, 1234567);
  ASSERT_FALSE(A.Signatures.empty());
  EXPECT_EQ(signatureTexts(A), signatureTexts(B));
}

TEST(SignatureTest, InvariantAcrossSiteLayouts) {
  // The corpus uniquifies symbols per pattern slot ("_p<N>"), so the
  // same pattern embedded at different positions gets different source
  // names. Digit folding must cancel that: a site with the pattern in
  // slot 0 and one with it behind other patterns sign identically for
  // the shared patterns.
  sites::GeneratedSite First = patternSite(
      "sig-layout-a", {{sites::PatternKind::FormValueHarmful, 1},
                       {sites::PatternKind::HtmlLookupHarmful, 1}});
  sites::GeneratedSite Second = patternSite(
      "sig-layout-b", {{sites::PatternKind::HtmlLookupHarmful, 1},
                       {sites::PatternKind::FormValueHarmful, 1}});
  webracer::SessionOptions Base;
  sites::SiteRunStats A = sites::runSite(First, Base, 99);
  sites::SiteRunStats B = sites::runSite(Second, Base, 99);
  ASSERT_FALSE(A.Signatures.empty());
  EXPECT_EQ(signatureTexts(A), signatureTexts(B));
}

TEST(SignatureTest, HashAndIdAreStableFunctionsOfText) {
  triage::RaceSignature A{"variable", "var global.x", "r:... + w:...",
                          "timeout + -"};
  triage::RaceSignature B = A;
  EXPECT_EQ(A.hash(), B.hash());
  EXPECT_EQ(A.id(), B.id());
  EXPECT_EQ(A.id().substr(0, 4), "sig-");
  EXPECT_EQ(A.id().size(), 4u + 16u);
  B.Location = "var global.y";
  EXPECT_NE(A.hash(), B.hash());
}

TEST(SignatureTest, TableAgreesWithOneShotAndSharesIndices) {
  // The memoized table must sign every race exactly as computeSignature
  // does - observed (raw and kept) and every SHB and WCP prediction - and
  // give equal signatures one index. Each prediction is signed twice: as
  // its materialized race, and from the parts of its event-index pair the
  // way batch ingest signs it.
  fs::path Dir = fs::temp_directory_path() / "wr_triage_test_table";
  fs::remove_all(Dir);
  recordCorpusTraces(Dir, 6);
  size_t Signed = 0;
  for (const std::string &Path : tracePaths(Dir)) {
    std::ifstream File(Path, std::ios::binary);
    std::ostringstream Bytes;
    Bytes << File.rdbuf();
    TraceLog Log;
    std::string Error;
    ASSERT_TRUE(TraceLog::deserialize(Bytes.str(), Log, &Error)) << Error;
    detect::ReplayResult Result = detect::replayTrace(Log);
    std::vector<detect::PredictionPass> Passes;
    detect::predictAll(Log, Result.RawRaces, Passes, Result.Stats);
    ASSERT_EQ(Passes.size(), 2u);

    triage::SignatureTable Table(Result.Hb);
    std::map<std::string, uint32_t> IndexOfText;
    auto Check = [&](uint32_t Index, const detect::Race &R) {
      ASSERT_LT(Index, Table.size());
      triage::RaceSignature Expected = triage::computeSignature(R, Result.Hb);
      EXPECT_EQ(Table.signature(Index), Expected) << Path;
      auto [It, New] = IndexOfText.try_emplace(Expected.text(), Index);
      EXPECT_EQ(It->second, Index) << "two indices for " << Expected.text();
      ++Signed;
    };
    for (const detect::Race &R : Result.RawRaces)
      Check(Table.sign(R), R);
    for (const detect::Race &R : Result.FilteredRaces)
      Check(Table.sign(R), R);
    const std::vector<TraceEvent> &Events = Log.events();
    for (const detect::PredictionPass &P : Passes) {
      detect::PredictionResult Built = detect::materialize(Log, P);
      for (size_t I = 0; I < P.Pairs.size(); ++I) {
        const detect::PredictedPair &Pair = P.Pairs[I];
        const Access &Second = Events[Pair.SecondEvent].Mem;
        const detect::Race &R = Built.Races[I].R;
        Check(Table.sign(Pair.Kind, Events[Pair.FirstEvent].Mem, Second,
                         Log.interner().resolve(Second.Loc)),
              R);
        Check(Table.sign(R), R);
      }
    }
    EXPECT_EQ(Table.size(), IndexOfText.size()) << Path;
  }
  EXPECT_GT(Signed, 1000u);
  fs::remove_all(Dir);
}

TEST(SignatureTest, TableKeysEndpointsOnAccessKindAndOrigin) {
  // One operation reading a location plainly and as a call target, and
  // writing it: each access is its own endpoint, so the table must not
  // reuse one endpoint's shape for another of the same operation.
  HbGraph Hb;
  Operation Script;
  Script.Kind = OperationKind::ExecuteScript;
  Operation Handler;
  Handler.Kind = OperationKind::EventHandler;
  Handler.Trigger = TriggerKind::User;
  OpId Exe = Hb.addOperation(Script);
  OpId Disp = Hb.addOperation(Handler);
  Hb.addEdge(Exe, Disp, HbRule::R2_CreateBeforeExe);

  auto RaceOf = [&](AccessKind Kind, AccessOrigin Origin) {
    detect::Race R;
    R.Loc = JSVarLoc{0, "doWork_p3"};
    R.First = {AccessKind::Write, AccessOrigin::FunctionDecl, Exe, 0, ""};
    R.Second = {Kind, Origin, Disp, 0, ""};
    R.Kind = detect::classifyRace(R.First, R.Second, R.Loc);
    return R;
  };
  std::vector<detect::Race> Races = {
      RaceOf(AccessKind::Read, AccessOrigin::Plain),
      RaceOf(AccessKind::Read, AccessOrigin::FunctionCall),
      RaceOf(AccessKind::Write, AccessOrigin::Plain),
      RaceOf(AccessKind::Read, AccessOrigin::Plain)};
  triage::SignatureTable Table(Hb);
  std::vector<uint32_t> Index;
  for (const detect::Race &R : Races) {
    Index.push_back(Table.sign(R));
    EXPECT_EQ(Table.signature(Index.back()),
              triage::computeSignature(R, Hb));
  }
  EXPECT_EQ(Table.size(), 3u);
  EXPECT_EQ(Index[3], Index[0]);
}

TEST(SignatureTest, TableKeysPatternOnSecondAccessLocation) {
  // A race's Location is what its second access's LocId resolves to, so
  // the table memoizes the location pattern on that id. Two races whose
  // first accesses share an id but whose second accesses do not must get
  // their own patterns.
  HbGraph Hb;
  Operation Script;
  Script.Kind = OperationKind::ExecuteScript;
  OpId A = Hb.addOperation(Script);
  OpId B = Hb.addOperation(Script);
  Access First{AccessKind::Write, AccessOrigin::Plain, A, 7, ""};
  Access ToX{AccessKind::Read, AccessOrigin::Plain, B, 1, ""};
  Access ToY{AccessKind::Read, AccessOrigin::Plain, B, 2, ""};
  Location X = JSVarLoc{0, "x"};
  Location Y = HtmlElemLoc{0, ElemKeyKind::ById, InvalidNodeId, "y"};

  triage::SignatureTable Table(Hb);
  uint32_t OnX = Table.sign(detect::RaceKind::Variable, First, ToX, X);
  uint32_t OnY = Table.sign(detect::RaceKind::Html, First, ToY, Y);
  EXPECT_NE(OnX, OnY);
  EXPECT_EQ(Table.signature(OnX).Location, "var global.x");
  EXPECT_EQ(Table.signature(OnY).Location, "elem #y");
}

TEST(GlobTest, Matching) {
  EXPECT_TRUE(triage::globMatch("*", ""));
  EXPECT_TRUE(triage::globMatch("*", "anything"));
  EXPECT_TRUE(triage::globMatch("var global.menu*", "var global.menu_p#"));
  EXPECT_FALSE(triage::globMatch("var global.menu*", "var dom.menu"));
  EXPECT_TRUE(triage::globMatch("a?c", "abc"));
  EXPECT_FALSE(triage::globMatch("a?c", "ac"));
  EXPECT_TRUE(triage::globMatch("*.value", "var node#.value"));
  EXPECT_FALSE(triage::globMatch("", "x"));
  EXPECT_TRUE(triage::globMatch("", ""));
}

TEST(SuppressionTest, ParseSerializeRoundTrip) {
  const char *Text = "# comment\n"
                     "{\n"
                     "  name: menu warm-up\n"
                     "  kind: html\n"
                     "  location: elem #menu*\n"
                     "}\n"
                     "\n"
                     "{\n"
                     "  name: all variable noise\n"
                     "  kind: variable\n"
                     "}\n";
  triage::SuppressionFile File;
  std::string Error;
  ASSERT_TRUE(triage::SuppressionFile::parse(Text, File, Error)) << Error;
  ASSERT_EQ(File.entries().size(), 2u);
  EXPECT_EQ(File.entries()[0].Name, "menu warm-up");
  EXPECT_EQ(File.entries()[0].Kind, "html");
  EXPECT_EQ(File.entries()[0].Location, "elem #menu*");
  EXPECT_EQ(File.entries()[0].Access, "*"); // Omitted fields default.
  EXPECT_EQ(File.entries()[1].Context, "*");

  triage::SuppressionFile Again;
  ASSERT_TRUE(
      triage::SuppressionFile::parse(File.serialize(), Again, Error))
      << Error;
  EXPECT_EQ(File.entries(), Again.entries());
  EXPECT_EQ(File.serialize(), Again.serialize());
}

TEST(SuppressionTest, ParseErrorsNameTheLine) {
  triage::SuppressionFile File;
  std::string Error;
  EXPECT_FALSE(
      triage::SuppressionFile::parse("{\n  kind: html\n}\n", File, Error));
  EXPECT_NE(Error.find("name"), std::string::npos);
  EXPECT_FALSE(triage::SuppressionFile::parse(
      "{\n  name: x\n  bogus: y\n}\n", File, Error));
  EXPECT_NE(Error.find("line 3"), std::string::npos) << Error;
  EXPECT_FALSE(
      triage::SuppressionFile::parse("{\n  name: x\n", File, Error));
  EXPECT_NE(Error.find("unterminated"), std::string::npos) << Error;
  EXPECT_FALSE(triage::SuppressionFile::parse("junk\n", File, Error));
  EXPECT_NE(Error.find("line 1"), std::string::npos) << Error;
}

TEST(SuppressionTest, ApplyCountsAttritionAndHits) {
  sites::GeneratedSite Site = patternSite(
      "sup-apply", {{sites::PatternKind::FormValueHarmful, 1},
                    {sites::PatternKind::HtmlLookupHarmful, 1}});
  webracer::SessionOptions Base;
  sites::SiteRunStats Run = sites::runSite(Site, Base, 5);
  ASSERT_GE(Run.FilteredRaces.size(), 2u);
  size_t Variables = 0;
  for (const triage::RaceSignature &Sig : Run.Signatures)
    Variables += Sig.Kind == "variable";
  ASSERT_GT(Variables, 0u);

  triage::SuppressionFile File;
  File.add({"all variable races", "variable", "*", "*", "*"});
  File.add({"matches nothing", "event-dispatch", "*", "*", "*"});

  // Recompute against a fresh offline graph so the test owns the HB
  // graph lifetime (the site's browser is gone).
  webracer::SessionOptions Opts;
  Opts.RecordTrace = true;
  Opts.Suppressions = &File;
  webracer::Session S(Opts);
  S.network().addResource(Site.IndexUrl, Site.Html, 10);
  for (const sites::SiteResource &R : Site.Resources)
    S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                      R.MaxLatencyUs);
  webracer::SessionResult Result = S.run(Site.IndexUrl);

  // The suppressed drops are visible, never silent: attrition records
  // them and the kept tally shrank accordingly.
  EXPECT_EQ(Result.Stats.Attrition.Suppressed, Variables);
  EXPECT_EQ(Result.Stats.Attrition.Kept, Result.FilteredRaces.size());
  EXPECT_EQ(Result.Stats.Filtered.total(), Result.FilteredRaces.size());
  for (const detect::Race &R : Result.FilteredRaces)
    EXPECT_NE(R.Kind, detect::RaceKind::Variable);
  ASSERT_EQ(Result.SuppressionHits.size(), 2u);
  EXPECT_EQ(Result.SuppressionHits[0], Variables);
  EXPECT_EQ(Result.SuppressionHits[1], 0u); // The unmatched entry.
}

TEST(SuppressionTest, SuppressedKeyOmittedWhenZero) {
  // Golden-file compatibility: runs without suppressions serialize
  // exactly as before the triage engine existed.
  obs::FilterAttrition A;
  A.Input = 3;
  A.Kept = 3;
  std::string NoSup = obs::writeJson(A.toJson());
  EXPECT_EQ(NoSup.find("suppressed"), std::string::npos);
  A.Suppressed = 1;
  EXPECT_NE(obs::writeJson(A.toJson()).find("suppressed"),
            std::string::npos);
}

/// Records \p Count traces of \p Site (varying seeds) into \p Dir.
void recordTraces(const sites::GeneratedSite &Site, const fs::path &Dir,
                  unsigned Count) {
  fs::create_directories(Dir);
  for (unsigned I = 0; I < Count; ++I) {
    webracer::SessionOptions Opts;
    Opts.RecordTrace = true;
    Opts.Browser.Seed = 100 + I;
    webracer::Session S(Opts);
    S.network().addResource(Site.IndexUrl, Site.Html, 10);
    for (const sites::SiteResource &R : Site.Resources)
      S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                        R.MaxLatencyUs);
    (void)S.run(Site.IndexUrl);
    std::ofstream Out(Dir / ("t" + std::to_string(I) + ".wrt"),
                      std::ios::binary | std::ios::trunc);
    std::string Bytes = S.trace()->serialize();
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    ASSERT_TRUE(Out.good());
  }
}

/// Predicted-only findings the replays produced, summed over the
/// aggregate's wr_prediction rows.
uint64_t aggregatePredicted(const triage::BatchResult &R) {
  uint64_t Total = 0;
  for (const obs::PredictionRow &Row : R.Aggregate.Prediction)
    Total += Row.Predicted.total();
  return Total;
}

/// Changes the working directory for one scope, so trace paths (and the
/// report's first_witness fields) can be relative.
class ScopedCwd {
public:
  explicit ScopedCwd(const fs::path &Dir) : Saved(fs::current_path()) {
    fs::current_path(Dir);
  }
  ~ScopedCwd() { fs::current_path(Saved); }

private:
  fs::path Saved;
};

TEST(BatchTest, ByteIdenticalAcrossJobCountsAndCountsReconcile) {
  fs::path Dir =
      fs::temp_directory_path() / "wr_triage_test_batch";
  fs::remove_all(Dir);
  sites::GeneratedSite Site = patternSite(
      "batch-site", {{sites::PatternKind::FormValueHarmful, 1}});
  recordTraces(Site, Dir, 6);

  std::vector<std::string> Paths;
  std::string Error;
  ASSERT_TRUE(triage::listTraceFiles(Dir.string(), Paths, Error)) << Error;
  ASSERT_EQ(Paths.size(), 6u);
  EXPECT_TRUE(std::is_sorted(Paths.begin(), Paths.end()));

  std::string Baseline;
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    triage::BatchOptions Opts;
    Opts.Jobs = Jobs;
    triage::BatchResult R = triage::runBatch(Paths, Opts);
    EXPECT_EQ(R.TracesOk, 6u);
    EXPECT_EQ(R.TracesFailed, 0u);
    // Occurrence counts must sum to the per-trace totals.
    uint64_t PerTrace = 0;
    for (const triage::TraceIngest &In : R.Traces)
      PerTrace += In.Kept.size();
    uint64_t Grouped = 0;
    for (const triage::SignatureGroup &G : R.Groups)
      Grouped += G.Occurrences;
    EXPECT_EQ(Grouped, PerTrace);
    EXPECT_EQ(Grouped, R.TotalKept);
    EXPECT_GT(R.TotalKept, 0u);
    std::string Doc =
        obs::writeJson(triage::buildBatchReport("batch", R));
    if (Baseline.empty())
      Baseline = Doc;
    else
      EXPECT_EQ(Doc, Baseline) << "report differs at jobs=" << Jobs;
  }
  fs::remove_all(Dir);
}

TEST(BatchTest, UnreadableTraceIsReportedNotSilent) {
  fs::path Dir =
      fs::temp_directory_path() / "wr_triage_test_badtrace";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  std::ofstream(Dir / "bad.wrt", std::ios::binary) << "not a trace";
  std::vector<std::string> Paths;
  std::string Error;
  ASSERT_TRUE(triage::listTraceFiles(Dir.string(), Paths, Error)) << Error;
  triage::BatchResult R = triage::runBatch(Paths, triage::BatchOptions());
  EXPECT_EQ(R.TracesFailed, 1u);
  ASSERT_EQ(R.Traces.size(), 1u);
  EXPECT_FALSE(R.Traces[0].Ok);
  EXPECT_FALSE(R.Traces[0].Error.empty());
  obs::Json Doc = triage::buildBatchReport("bad", R);
  ASSERT_NE(Doc.find("traces"), nullptr);
  EXPECT_EQ(Doc.find("traces")->find("failed")->asInt(), 1);
  ASSERT_NE(Doc.find("errors"), nullptr);
  fs::remove_all(Dir);
}

TEST(BatchTest, MalformedTraceFailsAloneUnderPrediction) {
  // A trace that decodes byte-wise but names an operation it never
  // created: rejected by the decoder, counted as failed, and the good
  // traces beside it still replay and predict.
  fs::path Dir = fs::temp_directory_path() / "wr_triage_test_malformed";
  fs::remove_all(Dir);
  recordCorpusTraces(Dir, 3);
  TraceLog Bad;
  Bad.onOperationCreated(1, Operation());
  Access A;
  A.Kind = AccessKind::Write;
  A.Op = 2;
  A.Loc = Bad.interner().intern(JSVarLoc{0, "x"});
  Bad.onMemoryAccess(A);
  std::ofstream(Dir / "bad.wrt", std::ios::binary) << Bad.serialize();
  std::vector<std::string> Paths = tracePaths(Dir);
  ASSERT_EQ(Paths.size(), 4u);

  triage::BatchOptions Opts;
  Opts.Replay.Predict = true;
  triage::BatchResult R = triage::runBatch(Paths, Opts);
  EXPECT_EQ(R.TracesOk, 3u);
  EXPECT_EQ(R.TracesFailed, 1u);
  EXPECT_GT(R.TotalPredicted, 0u);
  obs::Json Doc = triage::buildBatchReport("malformed", R);
  EXPECT_EQ(Doc.find("traces")->find("failed")->asInt(), 1);
  EXPECT_EQ(Doc.find("traces")->find("ok")->asInt(), 3);
  std::string Errors = obs::writeJson(*Doc.find("errors"));
  EXPECT_NE(Errors.find("access by an operation never created"),
            std::string::npos)
      << Errors;
  fs::remove_all(Dir);
}

TEST(BatchTest, SuppressionRemovesGroupAndSurfacesInCounts) {
  fs::path Dir = fs::temp_directory_path() / "wr_triage_test_sup";
  fs::remove_all(Dir);
  sites::GeneratedSite Site = patternSite(
      "batch-sup", {{sites::PatternKind::FormValueHarmful, 1},
                    {sites::PatternKind::HtmlLookupHarmful, 1}});
  recordTraces(Site, Dir, 3);
  std::vector<std::string> Paths;
  std::string Error;
  ASSERT_TRUE(triage::listTraceFiles(Dir.string(), Paths, Error)) << Error;

  triage::BatchResult Plain =
      triage::runBatch(Paths, triage::BatchOptions());
  ASSERT_FALSE(Plain.Groups.empty());
  const triage::SignatureGroup &Victim = Plain.Groups.front();

  triage::SuppressionFile File;
  File.add({"victim", Victim.Sig.Kind, Victim.Sig.Location,
            Victim.Sig.Access, Victim.Sig.Context});
  File.add({"stale", "no-such-kind", "*", "*", "*"});
  triage::BatchOptions Opts;
  Opts.Suppressions = &File;
  triage::BatchResult R = triage::runBatch(Paths, Opts);

  for (const triage::SignatureGroup &G : R.Groups)
    EXPECT_FALSE(G.Sig == Victim.Sig) << "suppressed group survived";
  EXPECT_EQ(R.TotalSuppressed, Victim.Occurrences);
  EXPECT_EQ(R.TotalKept + R.TotalSuppressed, Plain.TotalKept);
  ASSERT_EQ(R.SuppressionHits.size(), 2u);
  EXPECT_EQ(R.SuppressionHits[0], Victim.Occurrences);
  EXPECT_EQ(R.SuppressionHits[1], 0u);
  ASSERT_EQ(R.UnmatchedSuppressions.size(), 1u);
  EXPECT_EQ(R.UnmatchedSuppressions[0], "stale");
  // The aggregate's attrition carries the drops (never silent).
  EXPECT_EQ(R.Aggregate.Attrition.Suppressed, Victim.Occurrences);
  fs::remove_all(Dir);
}

TEST(BatchTest, PredictedByteIdenticalAcrossJobCountsAndCountsReconcile) {
  fs::path Dir = fs::temp_directory_path() / "wr_triage_test_predicted";
  fs::remove_all(Dir);
  recordCorpusTraces(Dir, 6);
  std::vector<std::string> Paths = tracePaths(Dir);
  ASSERT_EQ(Paths.size(), 6u);

  std::string Baseline;
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    triage::BatchOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Replay.Predict = true;
    triage::BatchResult R = triage::runBatch(Paths, Opts);
    EXPECT_EQ(R.TracesOk, 6u);
    // Every predicted-only finding lands in exactly one group, and the
    // replays' own wr_prediction tallies agree.
    uint64_t PerTrace = 0;
    for (const triage::TraceIngest &In : R.Traces)
      PerTrace += In.Predicted.size();
    uint64_t Grouped = 0;
    for (const triage::SignatureGroup &G : R.Groups)
      Grouped += G.PredictedOccurrences;
    EXPECT_GT(R.TotalPredicted, 0u);
    EXPECT_EQ(PerTrace, R.TotalPredicted);
    EXPECT_EQ(Grouped, R.TotalPredicted);
    EXPECT_EQ(aggregatePredicted(R), R.TotalPredicted);
    std::string Doc = obs::writeJson(triage::buildBatchReport("batch", R));
    if (Baseline.empty())
      Baseline = Doc;
    else
      EXPECT_EQ(Doc, Baseline) << "report differs at jobs=" << Jobs;
  }
  fs::remove_all(Dir);
}

TEST(BatchTest, SuppressingPredictedOnlyGroupLeavesFilterAttrition) {
  fs::path Dir = fs::temp_directory_path() / "wr_triage_test_predsup";
  fs::remove_all(Dir);
  recordCorpusTraces(Dir, 4);
  std::vector<std::string> Paths = tracePaths(Dir);
  triage::BatchOptions Opts;
  Opts.Replay.Predict = true;
  triage::BatchResult Plain = triage::runBatch(Paths, Opts);
  auto Victim = std::find_if(
      Plain.Groups.begin(), Plain.Groups.end(),
      [](const triage::SignatureGroup &G) {
        return G.Occurrences == 0 && G.PredictedOccurrences > 0;
      });
  ASSERT_NE(Victim, Plain.Groups.end()) << "no predicted-only group";

  triage::SuppressionFile File;
  File.add({"victim", Victim->Sig.Kind, Victim->Sig.Location,
            Victim->Sig.Access, Victim->Sig.Context});
  Opts.Suppressions = &File;
  triage::BatchResult R = triage::runBatch(Paths, Opts);

  for (const triage::SignatureGroup &G : R.Groups)
    EXPECT_FALSE(G.Sig == Victim->Sig) << "suppressed group survived";
  EXPECT_EQ(R.TotalSuppressed, Victim->PredictedOccurrences);
  ASSERT_EQ(R.SuppressionHits.size(), 1u);
  EXPECT_EQ(R.SuppressionHits[0], Victim->PredictedOccurrences);
  EXPECT_TRUE(R.UnmatchedSuppressions.empty());
  EXPECT_EQ(R.TotalPredicted + R.TotalSuppressed, Plain.TotalPredicted);
  EXPECT_EQ(R.TotalKept, Plain.TotalKept);
  uint64_t PerTrace = 0;
  for (const triage::TraceIngest &In : R.Traces)
    PerTrace += In.Predicted.size();
  EXPECT_EQ(PerTrace, R.TotalPredicted);
  // Predicted-only findings never entered the filter pipeline, so their
  // drops stay out of FilterAttrition.
  EXPECT_EQ(R.Aggregate.Attrition, Plain.Aggregate.Attrition);
  EXPECT_EQ(R.Aggregate.Attrition.Suppressed, 0u);
  fs::remove_all(Dir);
}

TEST(BatchTest, PredictedReportMatchesGoldenFile) {
  // Eight recorded corpus sites replayed with prediction, under a
  // suppression file whose first entry hits a kept group and whose second
  // hits a predicted-only group. The traces are named relative to the
  // working directory so first_witness does not depend on where the test
  // runs. Regenerate with WR_UPDATE_GOLDEN=1 and review the diff.
  const char *Text = "{\n"
                     "  name: kept html lookup\n"
                     "  kind: html\n"
                     "  location: elem #last_p#\n"
                     "}\n"
                     "{\n"
                     "  name: predicted-only timeout pair\n"
                     "  kind: variable\n"
                     "  location: var global.pfr_p#\n"
                     "}\n";
  triage::SuppressionFile File;
  std::string Error;
  ASSERT_TRUE(triage::SuppressionFile::parse(Text, File, Error)) << Error;

  fs::path Root = fs::temp_directory_path() / "wr_triage_test_golden";
  fs::remove_all(Root);
  recordCorpusTraces(Root / "traces", 8);
  triage::BatchResult R;
  {
    ScopedCwd InRoot(Root);
    std::vector<std::string> Paths = tracePaths("traces");
    ASSERT_EQ(Paths.size(), 8u);
    triage::BatchOptions Opts;
    Opts.Jobs = 4;
    Opts.Replay.Predict = true;
    Opts.Suppressions = &File;
    R = triage::runBatch(Paths, Opts);
  }
  fs::remove_all(Root);
  ASSERT_EQ(R.SuppressionHits.size(), 2u);
  EXPECT_GT(R.SuppressionHits[0], 0u);
  EXPECT_GT(R.SuppressionHits[1], 0u);
  // Only the kept group's drops are filter attrition.
  EXPECT_EQ(R.Aggregate.Attrition.Suppressed, R.SuppressionHits[0]);
  std::string Actual =
      obs::writeJson(triage::buildBatchReport("traces", R));

  const char *Path = WR_BATCH_GOLDEN_FILE;
  if (std::getenv("WR_UPDATE_GOLDEN")) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Actual;
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    GTEST_SKIP() << "golden file regenerated: " << Path;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In) << "missing golden file " << Path
                  << "; run once with WR_UPDATE_GOLDEN=1 to create it";
  std::ostringstream Expected;
  Expected << In.rdbuf();
  EXPECT_EQ(Actual, Expected.str())
      << "batch report drifted; if intentional, regenerate with "
         "WR_UPDATE_GOLDEN=1";
}

} // namespace
