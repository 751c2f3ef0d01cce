//===- tests/js_property_test.cpp - MiniJS property & differential tests -------===//
//
// Parameterized sweeps comparing MiniJS semantics against a C++ model:
// arithmetic on sampled doubles, number<->string round trips, array
// operation sequences, and string method agreement.
//
//===----------------------------------------------------------------------===//

#include "js/Interpreter.h"
#include "js/Parser.h"
#include "js/StdLib.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace wr;
using namespace wr::js;

namespace {

class JsEval {
public:
  JsEval() : Global(TheHeap.allocEnv(nullptr)), Interp(TheHeap, Global) {
    installStdLib(Interp, 1);
  }

  /// Evaluates an expression; returns the value of `result`.
  Value eval(const std::string &ExprText) {
    ParseResult R = Parser::parseProgram("var result = " + ExprText + ";");
    EXPECT_TRUE(R.ok()) << ExprText;
    if (!R.Ast)
      return Value();
    Programs.push_back(std::move(R.Ast));
    Completion C = Interp.runProgram(*Programs.back());
    EXPECT_FALSE(C.isThrow()) << ExprText << " threw "
                              << toDisplayString(C.V);
    Value *V = Global->findOwn("result");
    return V ? *V : Value();
  }

  Heap TheHeap;
  Env *Global;
  Interpreter Interp;
  std::vector<std::unique_ptr<Program>> Programs;
};

class JsArithmeticProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsArithmeticProperty, MatchesNativeDoubles) {
  Rng R(GetParam());
  JsEval E;
  for (int I = 0; I < 40; ++I) {
    double A = static_cast<double>(R.nextInRange(-10000, 10000)) / 16.0;
    double B = static_cast<double>(R.nextInRange(-10000, 10000)) / 16.0;
    std::string SA = numberToString(A), SB = numberToString(B);
    EXPECT_DOUBLE_EQ(E.eval(strFormat("(%s) + (%s)", SA.c_str(),
                                      SB.c_str()))
                         .asNumber(),
                     A + B);
    EXPECT_DOUBLE_EQ(E.eval(strFormat("(%s) * (%s)", SA.c_str(),
                                      SB.c_str()))
                         .asNumber(),
                     A * B);
    EXPECT_DOUBLE_EQ(E.eval(strFormat("(%s) - (%s)", SA.c_str(),
                                      SB.c_str()))
                         .asNumber(),
                     A - B);
    if (B != 0) {
      EXPECT_DOUBLE_EQ(E.eval(strFormat("(%s) / (%s)", SA.c_str(),
                                        SB.c_str()))
                           .asNumber(),
                       A / B);
    }
    EXPECT_EQ(E.eval(strFormat("(%s) < (%s)", SA.c_str(), SB.c_str()))
                  .asBool(),
              A < B);
  }
}

TEST_P(JsArithmeticProperty, BitwiseMatchesInt32) {
  Rng R(GetParam());
  JsEval E;
  for (int I = 0; I < 40; ++I) {
    int32_t A = static_cast<int32_t>(R.next());
    int32_t B = static_cast<int32_t>(R.next());
    int Shift = static_cast<int>(R.nextBelow(32));
    auto Num = [](int32_t V) {
      return strFormat("(%lld)", static_cast<long long>(V));
    };
    EXPECT_DOUBLE_EQ(
        E.eval(Num(A) + " & " + Num(B)).asNumber(),
        static_cast<double>(A & B));
    EXPECT_DOUBLE_EQ(
        E.eval(Num(A) + " | " + Num(B)).asNumber(),
        static_cast<double>(A | B));
    EXPECT_DOUBLE_EQ(
        E.eval(Num(A) + " ^ " + Num(B)).asNumber(),
        static_cast<double>(A ^ B));
    EXPECT_DOUBLE_EQ(
        E.eval(Num(A) + " >> " + std::to_string(Shift)).asNumber(),
        static_cast<double>(A >> Shift));
    EXPECT_DOUBLE_EQ(
        E.eval(Num(A) + " >>> " + std::to_string(Shift)).asNumber(),
        static_cast<double>(static_cast<uint32_t>(A) >> Shift));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsArithmeticProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

class JsNumberRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(JsNumberRoundTrip, StringConversionRoundTrips) {
  double V = GetParam();
  std::string S = numberToString(V);
  JsEval E;
  Value Back = E.eval("Number('" + S + "')");
  if (std::isnan(V))
    EXPECT_TRUE(std::isnan(Back.asNumber()));
  else
    EXPECT_DOUBLE_EQ(Back.asNumber(), V);
}

INSTANTIATE_TEST_SUITE_P(
    Values, JsNumberRoundTrip,
    ::testing::Values(0.0, 1.0, -1.0, 0.1, 0.2, 1.5, 42.0, -273.15,
                      1e-9, 6.022e23, 1e21, 9007199254740991.0,
                      0.30000000000000004));

class JsArrayOpsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsArrayOpsProperty, RandomOpSequenceMatchesVector) {
  // Differential test: apply the same random push/pop/shift/unshift
  // sequence to a JS array and a std::vector, compare join() output.
  Rng R(GetParam());
  std::vector<int> Model;
  std::string Script = "var a = [];";
  for (int I = 0; I < 60; ++I) {
    switch (R.nextBelow(4)) {
    case 0: {
      int V = static_cast<int>(R.nextInRange(0, 99));
      Script += strFormat("a.push(%d);", V);
      Model.push_back(V);
      break;
    }
    case 1:
      Script += "a.pop();";
      if (!Model.empty())
        Model.pop_back();
      break;
    case 2:
      Script += "a.shift();";
      if (!Model.empty())
        Model.erase(Model.begin());
      break;
    default: {
      int V = static_cast<int>(R.nextInRange(0, 99));
      Script += strFormat("a.unshift(%d);", V);
      Model.insert(Model.begin(), V);
      break;
    }
    }
  }
  JsEval E;
  ParseResult P = Parser::parseProgram(Script);
  ASSERT_TRUE(P.ok());
  E.Programs.push_back(std::move(P.Ast));
  ASSERT_FALSE(E.Interp.runProgram(*E.Programs.back()).isThrow());
  Value Joined = E.eval("a.join(',')");
  std::string Expected;
  for (size_t I = 0; I < Model.size(); ++I) {
    if (I)
      Expected += ',';
    Expected += std::to_string(Model[I]);
  }
  EXPECT_EQ(Joined.asString(), Expected) << "seed " << GetParam();
  EXPECT_DOUBLE_EQ(E.eval("a.length").asNumber(),
                   static_cast<double>(Model.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsArrayOpsProperty,
                         ::testing::Values(7, 14, 21, 28, 35, 42, 49));

class JsStringProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsStringProperty, MethodsMatchNative) {
  Rng R(GetParam());
  JsEval E;
  for (int I = 0; I < 25; ++I) {
    // Random lowercase strings.
    std::string S;
    size_t Len = R.nextBelow(12);
    for (size_t C = 0; C < Len; ++C)
      S += static_cast<char>('a' + R.nextBelow(6));
    std::string Needle;
    for (size_t C = 0; C < 2; ++C)
      Needle += static_cast<char>('a' + R.nextBelow(6));

    EXPECT_DOUBLE_EQ(E.eval("'" + S + "'.length").asNumber(),
                     static_cast<double>(S.size()));
    double Found = E.eval("'" + S + "'.indexOf('" + Needle + "')")
                       .asNumber();
    size_t NativeFound = S.find(Needle);
    EXPECT_DOUBLE_EQ(Found, NativeFound == std::string::npos
                                ? -1.0
                                : static_cast<double>(NativeFound));
    size_t A = R.nextBelow(Len + 1), B = R.nextBelow(Len + 1);
    std::string Sub =
        E.eval(strFormat("'%s'.substring(%zu, %zu)", S.c_str(), A, B))
            .asString();
    size_t Lo = std::min(A, B), Hi = std::max(A, B);
    EXPECT_EQ(Sub, S.substr(Lo, Hi - Lo));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsStringProperty,
                         ::testing::Values(3, 6, 9, 12));

class JsHoistingProperty : public ::testing::TestWithParam<int> {};

TEST_P(JsHoistingProperty, CallBeforeDeclWorksAtAnyDistance) {
  // Function declarations are writes at scope entry regardless of how
  // deep in the body they sit (paper Sec. 4.1's model).
  int Filler = GetParam();
  std::string Script = "var result = target();";
  for (int I = 0; I < Filler; ++I)
    Script += strFormat("var pad%d = %d;", I, I);
  Script += "function target() { return 77; }";
  JsEval E;
  ParseResult P = Parser::parseProgram(Script);
  ASSERT_TRUE(P.ok());
  E.Programs.push_back(std::move(P.Ast));
  Completion C = E.Interp.runProgram(*E.Programs.back());
  ASSERT_FALSE(C.isThrow());
  EXPECT_DOUBLE_EQ(E.Global->findOwn("result")->asNumber(), 77);
}

TEST_P(JsHoistingProperty, NestedBlocksHoistToo) {
  int Depth = GetParam() % 6 + 1;
  std::string Open, Close;
  for (int I = 0; I < Depth; ++I) {
    Open += strFormat("if (true) { ");
    Close += "}";
  }
  std::string Script = "var result = f();" + Open +
                       "function f() { return 5; }" + Close;
  JsEval E;
  ParseResult P = Parser::parseProgram(Script);
  ASSERT_TRUE(P.ok());
  E.Programs.push_back(std::move(P.Ast));
  Completion C = E.Interp.runProgram(*E.Programs.back());
  ASSERT_FALSE(C.isThrow()) << toDisplayString(C.V);
  EXPECT_DOUBLE_EQ(E.Global->findOwn("result")->asNumber(), 5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, JsHoistingProperty,
                         ::testing::Values(0, 1, 5, 20, 100));

} // namespace
