//===- triage/Suppression.h - Race suppression files ------------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// User suppression files for race reports, modeled on Valgrind's: a
/// suppression names a signature pattern, and every race whose signature
/// matches is dropped from the report - but never silently. Suppressed
/// counts land in the run's FilterAttrition (RunStats), per-entry hit
/// counts let batch reports show what each suppression absorbed, and
/// entries that matched nothing produce warnings so stale suppressions
/// are noticed rather than rotting.
///
/// The file format is line-oriented blocks:
///
///     # comment
///     {
///       name: ignore the menu warm-up race
///       kind: variable
///       location: var global.menu*
///       access: *
///       context: *
///     }
///
/// Each field matches the corresponding RaceSignature component with `*`
/// (any run) and `?` (any one char) wildcards; omitted fields default to
/// `*`, so a suppression can be as coarse as "every html race" or as
/// precise as one full signature. `name` is required and purely
/// descriptive.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_TRIAGE_SUPPRESSION_H
#define WEBRACER_TRIAGE_SUPPRESSION_H

#include "detect/Filters.h"
#include "triage/Signature.h"

#include <string>
#include <string_view>
#include <vector>

namespace wr::triage {

/// One suppression entry: a named pattern over the four signature
/// components. An empty-pattern field never matches; the parser defaults
/// omitted fields to "*".
struct Suppression {
  std::string Name;
  std::string Kind = "*";
  std::string Location = "*";
  std::string Access = "*";
  std::string Context = "*";

  /// True when every component pattern matches \p Sig.
  bool matches(const RaceSignature &Sig) const;

  bool operator==(const Suppression &O) const = default;
};

/// Glob match with `*` (any run, including empty) and `?` (any single
/// character); all other characters literal.
bool globMatch(std::string_view Pattern, std::string_view Text);

/// A parsed suppression file: an ordered list of entries (first match
/// wins for hit attribution).
class SuppressionFile {
public:
  /// Parses the block grammar above. On error, returns false and sets
  /// \p Error to a "line N: ..." diagnostic; \p Out is left unspecified.
  static bool parse(std::string_view Text, SuppressionFile &Out,
                    std::string &Error);

  /// Reads and parses \p Path. Unreadable files report through \p Error.
  static bool load(const std::string &Path, SuppressionFile &Out,
                   std::string &Error);

  /// The canonical rendering: one block per entry, every field explicit,
  /// fields in name/kind/location/access/context order. parse() of the
  /// result reproduces the entries exactly (round-trip stable).
  std::string serialize() const;

  /// Index of the first entry matching \p Sig, or -1.
  int matchIndex(const RaceSignature &Sig) const;

  void add(Suppression S) { Entries.push_back(std::move(S)); }
  const std::vector<Suppression> &entries() const { return Entries; }
  bool empty() const { return Entries.empty(); }

private:
  std::vector<Suppression> Entries;
};

/// Drops every race in \p Races whose signature (computed against \p Hb)
/// matches an entry of \p File, returning the survivors in order.
///
/// Attrition is never silent: with \p Attrition non-null, the drops move
/// from its Kept to its Suppressed (FilterAttrition::suppress; the races
/// handed in are the filter pipeline's kept set). With \p Hits non-null,
/// it is resized to File.entries().size() and each drop increments the
/// first matching entry's slot - callers merge these deterministically
/// across traces and warn on entries whose total stays zero.
std::vector<detect::Race>
applySuppressions(const std::vector<detect::Race> &Races, const HbGraph &Hb,
                  const SuppressionFile &File,
                  obs::FilterAttrition *Attrition = nullptr,
                  std::vector<uint64_t> *Hits = nullptr);

} // namespace wr::triage

#endif // WEBRACER_TRIAGE_SUPPRESSION_H
