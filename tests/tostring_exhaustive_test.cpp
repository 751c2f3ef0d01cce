//===- tests/tostring_exhaustive_test.cpp - Enum string table coverage ---------===//
//
// Guards the human-readable enum string tables against silently rotting
// when an enumerator is added. Two layers:
//
//  * Compile time: each all*() function below enumerates its enum in a
//    switch with no default, and this target builds with -Werror=switch
//    (see tests/CMakeLists.txt), so adding an enumerator without
//    extending the list here is a build error, not a fallthrough.
//
//  * Run time: every enumerator's toString must be non-empty, distinct,
//    and must not be the "unknown" fallback, so extending the list here
//    without extending the real string table is a test failure.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticAnalyzer.h"
#include "analysis/StaticHb.h"
#include "detect/Prediction.h"
#include "detect/RaceDetector.h"
#include "hb/HbGraph.h"
#include "hb/PredictiveEngine.h"
#include "sites/Patterns.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

using namespace wr;

namespace {

/// Appends every HbRule enumerator exactly once. The switch is the
/// compile-time exhaustiveness check; it falls through all cases to a
/// single return so each case stays a one-liner.
std::vector<HbRule> allHbRules() {
  std::vector<HbRule> All;
  auto Covered = [](HbRule R) {
    switch (R) {
    case HbRule::R1a_ParseOrder:
    case HbRule::R1b_InlineScript:
    case HbRule::R1c_SyncScriptLoad:
    case HbRule::R2_CreateBeforeExe:
    case HbRule::R3_ExeBeforeLoad:
    case HbRule::R4_CreateBeforeDefer:
    case HbRule::R5_DeferOrder:
    case HbRule::R6_FrameCreate:
    case HbRule::R7_FrameLoad:
    case HbRule::R8_TargetCreated:
    case HbRule::R9_DispatchOrder:
    case HbRule::R10_AjaxSend:
    case HbRule::R11_DclBeforeLoad:
    case HbRule::R12_ParseBeforeDcl:
    case HbRule::R13_InlineBeforeDcl:
    case HbRule::R14_ScriptLoadBeforeDcl:
    case HbRule::R15_ElemLoadBeforeWindowLoad:
    case HbRule::R16_SetTimeout:
    case HbRule::R17_SetInterval:
    case HbRule::RA_DispatchChain:
    case HbRule::RA_InlineSplit:
    case HbRule::RProgram:
      return R;
    }
    return R;
  };
  for (HbRule R :
       {HbRule::R1a_ParseOrder, HbRule::R1b_InlineScript,
        HbRule::R1c_SyncScriptLoad, HbRule::R2_CreateBeforeExe,
        HbRule::R3_ExeBeforeLoad, HbRule::R4_CreateBeforeDefer,
        HbRule::R5_DeferOrder, HbRule::R6_FrameCreate, HbRule::R7_FrameLoad,
        HbRule::R8_TargetCreated, HbRule::R9_DispatchOrder,
        HbRule::R10_AjaxSend, HbRule::R11_DclBeforeLoad,
        HbRule::R12_ParseBeforeDcl, HbRule::R13_InlineBeforeDcl,
        HbRule::R14_ScriptLoadBeforeDcl,
        HbRule::R15_ElemLoadBeforeWindowLoad, HbRule::R16_SetTimeout,
        HbRule::R17_SetInterval, HbRule::RA_DispatchChain,
        HbRule::RA_InlineSplit, HbRule::RProgram})
    All.push_back(Covered(R));
  return All;
}

std::vector<detect::RaceKind> allRaceKinds() {
  std::vector<detect::RaceKind> All;
  auto Covered = [](detect::RaceKind K) {
    switch (K) {
    case detect::RaceKind::Html:
    case detect::RaceKind::Function:
    case detect::RaceKind::Variable:
    case detect::RaceKind::EventDispatch:
      return K;
    }
    return K;
  };
  for (detect::RaceKind K :
       {detect::RaceKind::Html, detect::RaceKind::Function,
        detect::RaceKind::Variable, detect::RaceKind::EventDispatch})
    All.push_back(Covered(K));
  return All;
}

std::vector<analysis::SourceKind> allSourceKinds() {
  using analysis::SourceKind;
  std::vector<SourceKind> All;
  auto Covered = [](SourceKind K) {
    switch (K) {
    case SourceKind::Parse:
    case SourceKind::SyncScript:
    case SourceKind::DeferScript:
    case SourceKind::AsyncScript:
    case SourceKind::TimerCallback:
    case SourceKind::IntervalCallback:
    case SourceKind::XhrCallback:
    case SourceKind::EventDispatch:
    case SourceKind::UserInput:
      return K;
    }
    return K;
  };
  for (SourceKind K :
       {SourceKind::Parse, SourceKind::SyncScript, SourceKind::DeferScript,
        SourceKind::AsyncScript, SourceKind::TimerCallback,
        SourceKind::IntervalCallback, SourceKind::XhrCallback,
        SourceKind::EventDispatch, SourceKind::UserInput})
    All.push_back(Covered(K));
  return All;
}

std::vector<analysis::StaticLocKind> allStaticLocKinds() {
  using analysis::StaticLocKind;
  std::vector<StaticLocKind> All;
  auto Covered = [](StaticLocKind K) {
    switch (K) {
    case StaticLocKind::Var:
    case StaticLocKind::FormField:
    case StaticLocKind::Elem:
    case StaticLocKind::Handler:
      return K;
    }
    return K;
  };
  for (StaticLocKind K : {StaticLocKind::Var, StaticLocKind::FormField,
                          StaticLocKind::Elem, StaticLocKind::Handler})
    All.push_back(Covered(K));
  return All;
}

std::vector<analysis::GuardKind> allGuardKinds() {
  using analysis::GuardKind;
  std::vector<GuardKind> All;
  auto Covered = [](GuardKind K) {
    switch (K) {
    case GuardKind::Truthy:
    case GuardKind::Defined:
    case GuardKind::TypeCheck:
    case GuardKind::ConstFalse:
    case GuardKind::Opaque:
      return K;
    }
    return K;
  };
  for (GuardKind K : {GuardKind::Truthy, GuardKind::Defined,
                      GuardKind::TypeCheck, GuardKind::ConstFalse,
                      GuardKind::Opaque})
    All.push_back(Covered(K));
  return All;
}

std::vector<analysis::GuardClass> allGuardClasses() {
  using analysis::GuardClass;
  std::vector<GuardClass> All;
  auto Covered = [](GuardClass C) {
    switch (C) {
    case GuardClass::Unguarded:
    case GuardClass::GuardedOneSide:
    case GuardClass::GuardedBothSides:
      return C;
    }
    return C;
  };
  for (GuardClass C : {GuardClass::Unguarded, GuardClass::GuardedOneSide,
                       GuardClass::GuardedBothSides})
    All.push_back(Covered(C));
  return All;
}

std::vector<sites::PatternKind> allPatternKinds() {
  using sites::PatternKind;
  std::vector<PatternKind> All;
  auto Covered = [](PatternKind K) {
    switch (K) {
    case PatternKind::HtmlLookupHarmful:
    case PatternKind::HtmlPollingBenign:
    case PatternKind::FunctionCallHarmful:
    case PatternKind::FunctionCallGuarded:
    case PatternKind::FormValueHarmful:
    case PatternKind::FormValueGuarded:
    case PatternKind::FormValueReadBenign:
    case PatternKind::GomezMonitorHarmful:
    case PatternKind::DelayedSingleBenign:
    case PatternKind::VariableNoiseBenign:
    case PatternKind::HoverMenuNoiseBenign:
    case PatternKind::DeadGuardBenign:
    case PatternKind::PostFirstRaceBenign:
    case PatternKind::IntervalSkipBenign:
      return K;
    }
    return K;
  };
  for (PatternKind K :
       {PatternKind::HtmlLookupHarmful, PatternKind::HtmlPollingBenign,
        PatternKind::FunctionCallHarmful, PatternKind::FunctionCallGuarded,
        PatternKind::FormValueHarmful, PatternKind::FormValueGuarded,
        PatternKind::FormValueReadBenign, PatternKind::GomezMonitorHarmful,
        PatternKind::DelayedSingleBenign, PatternKind::VariableNoiseBenign,
        PatternKind::HoverMenuNoiseBenign, PatternKind::DeadGuardBenign,
        PatternKind::PostFirstRaceBenign, PatternKind::IntervalSkipBenign})
    All.push_back(Covered(K));
  return All;
}

std::vector<EngineKind> allEngineKinds() {
  std::vector<EngineKind> All;
  auto Covered = [](EngineKind K) {
    switch (K) {
    case EngineKind::Shb:
    case EngineKind::Wcp:
      return K;
    }
    return K;
  };
  for (EngineKind K : {EngineKind::Shb, EngineKind::Wcp})
    All.push_back(Covered(K));
  return All;
}

std::vector<Ordering> allOrderings() {
  std::vector<Ordering> All;
  auto Covered = [](Ordering O) {
    switch (O) {
    case Ordering::Before:
    case Ordering::After:
    case Ordering::Concurrent:
      return O;
    }
    return O;
  };
  for (Ordering O :
       {Ordering::Before, Ordering::After, Ordering::Concurrent})
    All.push_back(Covered(O));
  return All;
}

std::vector<detect::PredictionVerdict> allPredictionVerdicts() {
  using detect::PredictionVerdict;
  std::vector<PredictionVerdict> All;
  auto Covered = [](PredictionVerdict V) {
    switch (V) {
    case PredictionVerdict::Observed:
    case PredictionVerdict::Predicted:
      return V;
    }
    return V;
  };
  for (PredictionVerdict V :
       {PredictionVerdict::Observed, PredictionVerdict::Predicted})
    All.push_back(Covered(V));
  return All;
}

/// Shared runtime check: every name rendered, none the fallback, all
/// distinct.
template <typename EnumT, typename ToStringFn>
void expectCompleteStringTable(const std::vector<EnumT> &All,
                               ToStringFn ToString,
                               const std::string &Fallback) {
  std::set<std::string> Seen;
  for (EnumT Value : All) {
    std::string Name = ToString(Value);
    EXPECT_FALSE(Name.empty())
        << "enumerator " << static_cast<int>(Value) << " has no name";
    EXPECT_NE(Name, Fallback)
        << "enumerator " << static_cast<int>(Value)
        << " hit the fallback string";
    EXPECT_TRUE(Seen.insert(Name).second)
        << "duplicate name: " << Name;
  }
  EXPECT_EQ(Seen.size(), All.size());
}

TEST(ToStringExhaustiveTest, HbRuleNamesAreComplete) {
  expectCompleteStringTable(
      allHbRules(), [](HbRule R) { return toString(R); }, "unknown rule");
}

TEST(ToStringExhaustiveTest, HbRuleSpotChecks) {
  EXPECT_STREQ(toString(HbRule::R1a_ParseOrder), "rule 1a (parse order)");
  EXPECT_STREQ(toString(HbRule::RProgram), "program order");
}

TEST(ToStringExhaustiveTest, RaceKindNamesAreComplete) {
  expectCompleteStringTable(
      allRaceKinds(),
      [](detect::RaceKind K) { return detect::toString(K); }, "unknown");
}

TEST(ToStringExhaustiveTest, SourceKindNamesAreComplete) {
  expectCompleteStringTable(
      allSourceKinds(),
      [](analysis::SourceKind K) { return analysis::toString(K); },
      "unknown");
}

TEST(ToStringExhaustiveTest, StaticLocKindNamesAreComplete) {
  expectCompleteStringTable(
      allStaticLocKinds(),
      [](analysis::StaticLocKind K) { return analysis::toString(K); },
      "unknown");
}

TEST(ToStringExhaustiveTest, GuardKindNamesAreComplete) {
  expectCompleteStringTable(
      allGuardKinds(),
      [](analysis::GuardKind K) { return analysis::toString(K); }, "?");
}

TEST(ToStringExhaustiveTest, GuardClassNamesAreComplete) {
  expectCompleteStringTable(
      allGuardClasses(),
      [](analysis::GuardClass C) { return analysis::toString(C); },
      "unknown");
}

TEST(ToStringExhaustiveTest, GuardClassSpotChecks) {
  EXPECT_STREQ(analysis::toString(analysis::GuardClass::GuardedBothSides),
               "guarded-both-sides");
}

TEST(ToStringExhaustiveTest, PatternKindNamesAreComplete) {
  expectCompleteStringTable(
      allPatternKinds(),
      [](sites::PatternKind K) { return sites::toString(K); }, "unknown");
}

TEST(ToStringExhaustiveTest, EngineKindNamesAreComplete) {
  expectCompleteStringTable(
      allEngineKinds(), [](EngineKind K) { return toString(K); },
      "unknown");
}

TEST(ToStringExhaustiveTest, OrderingNamesAreComplete) {
  expectCompleteStringTable(
      allOrderings(), [](Ordering O) { return toString(O); }, "unknown");
}

TEST(ToStringExhaustiveTest, PredictionVerdictNamesAreComplete) {
  expectCompleteStringTable(
      allPredictionVerdicts(),
      [](detect::PredictionVerdict V) { return detect::toString(V); },
      "unknown");
}

} // namespace
