//===- triage/Suppression.cpp - Race suppression files ------------------------===//

#include "triage/Suppression.h"

#include "support/Format.h"
#include "support/StringUtils.h"

#include <fstream>
#include <sstream>

using namespace wr;
using namespace wr::triage;

bool wr::triage::globMatch(std::string_view Pattern, std::string_view Text) {
  // Iterative two-pointer match with one backtrack point per '*' - the
  // classic linear-ish algorithm; patterns here are short.
  size_t P = 0, T = 0;
  size_t StarP = std::string_view::npos, StarT = 0;
  while (T < Text.size()) {
    if (P < Pattern.size() &&
        (Pattern[P] == '?' || Pattern[P] == Text[T])) {
      ++P;
      ++T;
      continue;
    }
    if (P < Pattern.size() && Pattern[P] == '*') {
      StarP = P++;
      StarT = T;
      continue;
    }
    if (StarP != std::string_view::npos) {
      P = StarP + 1;
      T = ++StarT;
      continue;
    }
    return false;
  }
  while (P < Pattern.size() && Pattern[P] == '*')
    ++P;
  return P == Pattern.size();
}

bool Suppression::matches(const RaceSignature &Sig) const {
  return globMatch(Kind, Sig.Kind) && globMatch(Location, Sig.Location) &&
         globMatch(Access, Sig.Access) && globMatch(Context, Sig.Context);
}

bool SuppressionFile::parse(std::string_view Text, SuppressionFile &Out,
                            std::string &Error) {
  Out.Entries.clear();
  Error.clear();

  bool InBlock = false;
  bool HaveName = false;
  Suppression Current;
  size_t LineNo = 0;

  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string_view::npos)
      Eol = Text.size();
    std::string_view Line = trim(Text.substr(Pos, Eol - Pos));
    Pos = Eol + 1;
    ++LineNo;

    if (Line.empty() || Line.front() == '#')
      continue;

    if (Line == "{") {
      if (InBlock) {
        Error = strFormat("line %zu: nested '{'", LineNo);
        return false;
      }
      InBlock = true;
      HaveName = false;
      Current = Suppression();
      continue;
    }
    if (Line == "}") {
      if (!InBlock) {
        Error = strFormat("line %zu: '}' outside a suppression block",
                          LineNo);
        return false;
      }
      if (!HaveName) {
        Error = strFormat("line %zu: suppression block has no 'name:'",
                          LineNo);
        return false;
      }
      Out.Entries.push_back(std::move(Current));
      InBlock = false;
      continue;
    }
    if (!InBlock) {
      Error = strFormat("line %zu: expected '{', got '%s'", LineNo,
                        std::string(Line).c_str());
      return false;
    }

    size_t Colon = Line.find(':');
    if (Colon == std::string_view::npos) {
      Error = strFormat("line %zu: expected 'key: value'", LineNo);
      return false;
    }
    std::string_view Key = trim(Line.substr(0, Colon));
    std::string Value(trim(Line.substr(Colon + 1)));
    if (Key == "name") {
      if (Value.empty()) {
        Error = strFormat("line %zu: empty suppression name", LineNo);
        return false;
      }
      Current.Name = std::move(Value);
      HaveName = true;
    } else if (Key == "kind") {
      Current.Kind = std::move(Value);
    } else if (Key == "location") {
      Current.Location = std::move(Value);
    } else if (Key == "access") {
      Current.Access = std::move(Value);
    } else if (Key == "context") {
      Current.Context = std::move(Value);
    } else {
      Error = strFormat("line %zu: unknown suppression key '%s'", LineNo,
                        std::string(Key).c_str());
      return false;
    }
  }

  if (InBlock) {
    Error = strFormat("line %zu: unterminated suppression block", LineNo);
    return false;
  }
  return true;
}

bool SuppressionFile::load(const std::string &Path, SuppressionFile &Out,
                           std::string &Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = strFormat("cannot open suppression file '%s'", Path.c_str());
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (!SuppressionFile::parse(Buf.str(), Out, Error)) {
    Error = Path + ": " + Error;
    return false;
  }
  return true;
}

std::string SuppressionFile::serialize() const {
  std::string Out;
  for (const Suppression &S : Entries) {
    if (!Out.empty())
      Out += '\n';
    Out += "{\n";
    Out += "  name: " + S.Name + "\n";
    Out += "  kind: " + S.Kind + "\n";
    Out += "  location: " + S.Location + "\n";
    Out += "  access: " + S.Access + "\n";
    Out += "  context: " + S.Context + "\n";
    Out += "}\n";
  }
  return Out;
}

int SuppressionFile::matchIndex(const RaceSignature &Sig) const {
  for (size_t I = 0; I < Entries.size(); ++I)
    if (Entries[I].matches(Sig))
      return static_cast<int>(I);
  return -1;
}

std::vector<detect::Race>
wr::triage::applySuppressions(const std::vector<detect::Race> &Races,
                              const HbGraph &Hb, const SuppressionFile &File,
                              obs::FilterAttrition *Attrition,
                              std::vector<uint64_t> *Hits) {
  if (Hits)
    Hits->resize(File.entries().size(), 0);
  std::vector<detect::Race> Kept;
  if (File.empty())
    return Races;
  Kept.reserve(Races.size());
  size_t Dropped = 0;
  for (const detect::Race &R : Races) {
    int Idx = File.matchIndex(computeSignature(R, Hb));
    if (Idx < 0) {
      Kept.push_back(R);
      continue;
    }
    ++Dropped;
    if (Hits)
      ++(*Hits)[static_cast<size_t>(Idx)];
  }
  if (Attrition)
    Attrition->suppress(Dropped);
  return Kept;
}
