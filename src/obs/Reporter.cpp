//===- obs/Reporter.cpp - Report emission backends -----------------------------===//

#include "obs/Reporter.h"

#include <charconv>
#include <cmath>

using namespace wr::obs;

Json wr::obs::makeReportEnvelope(const std::string &Kind,
                                 const std::string &Name) {
  Json J = Json::object();
  J.set("schema", ReportSchemaVersion);
  J.set("tool", "webracer");
  J.set("kind", Kind);
  J.set("name", Name);
  return J;
}

void JsonReporter::emit(const Json &Report) { Out += writeJson(Report); }

namespace {

bool isScalar(const Json &V) {
  return !V.isObject() && !V.isArray();
}

void renderScalar(std::string &Out, const Json &V) {
  switch (V.kind()) {
  case Json::Kind::String:
    Out += V.asString();
    break;
  case Json::Kind::Double: {
    char Buf[32];
    double D = V.asDouble();
    if (!std::isfinite(D)) {
      Out += "nan";
      break;
    }
    auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), D);
    (void)Ec;
    Out.append(Buf, End);
    break;
  }
  default:
    Out += writeJson(V, /*Pretty=*/false);
  }
}

void renderValue(std::string &Out, const std::string &Key, const Json &V,
                 int Depth) {
  std::string Pad(static_cast<size_t>(Depth) * 2, ' ');
  if (isScalar(V)) {
    Out += Pad + Key + ": ";
    renderScalar(Out, V);
    Out += '\n';
    return;
  }
  if (V.isArray()) {
    bool AllScalar = true;
    for (const Json &E : V.elements())
      AllScalar &= isScalar(E);
    if (V.elements().empty()) {
      Out += Pad + Key + ": (none)\n";
      return;
    }
    if (AllScalar) {
      Out += Pad + Key + ": ";
      for (size_t I = 0; I < V.elements().size(); ++I) {
        if (I)
          Out += ", ";
        renderScalar(Out, V.elements()[I]);
      }
      Out += '\n';
      return;
    }
    Out += Pad + Key + ":\n";
    for (const Json &E : V.elements()) {
      if (isScalar(E)) {
        Out += Pad + "  - ";
        renderScalar(Out, E);
        Out += '\n';
        continue;
      }
      Out += Pad + "  -\n";
      for (const auto &[K, Member] : E.members())
        renderValue(Out, K, Member, Depth + 2);
    }
    return;
  }
  // Object.
  if (V.members().empty()) {
    Out += Pad + Key + ": {}\n";
    return;
  }
  Out += Pad + Key + ":\n";
  for (const auto &[K, Member] : V.members())
    renderValue(Out, K, Member, Depth + 1);
}

} // namespace

void TextReporter::emit(const Json &Report) {
  if (!Report.isObject()) {
    renderValue(Out, "report", Report, 0);
    return;
  }
  for (const auto &[Key, Member] : Report.members()) {
    if (Key == "schema" || Key == "tool")
      continue; // Machine-facing envelope members.
    renderValue(Out, Key, Member, 0);
  }
}
