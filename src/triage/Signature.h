//===- triage/Signature.h - Stable structural race signatures --*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stable structural identity of a race report, the unit the triage
/// engine deduplicates, counts, and suppresses on - the analogue of
/// Valgrind's canonicalized error contexts. At fleet scale the same
/// Southwest-form race arrives from millions of traces; everything that
/// varies across those traces (operation ids, node ids, container ids,
/// dispatch indices, seed-dependent symbol uniquifiers) must cancel out
/// of the signature, and everything structural (race kind, the shape of
/// the location, how each endpoint accessed it, the causal
/// happens-before rules that made the endpoints schedulable) must
/// survive.
///
/// A signature has four components, each a short stable string, so
/// suppression files can wildcard them independently:
///
///  * Kind     - the Sec. 2 race taxonomy ("variable", "html",
///               "function", "event-dispatch").
///  * Location - the location's structural pattern: variant kind plus its
///               stable key with runtime ids elided and decimal runs in
///               source-level names folded to '#' (the corpus's "_p<N>"
///               uniquifiers, menu item indices, ...).
///  * Access   - both endpoints' access shape, canonically ordered so the
///               OpId numbering (and hence which endpoint the detector
///               stored first) is irrelevant: read/write, access origin,
///               operation kind, and trigger kind.
///  * Context  - per endpoint, the *causal* happens-before rules on the
///               endpoint operation's in-edges (create-before-exe,
///               setTimeout, dispatch-chain, ...). Order-only rules
///               (parse order, dispatch order, the load barriers) are
///               excluded: they encode where an operation landed in one
///               schedule, not what kind of operation it is, and vary
///               with network jitter.
///
/// text() renders "Kind|Location|Access|Context"; hash()/id() derive a
/// stable 64-bit FNV-1a fingerprint for compact cross-trace keys.
///
/// computeSignature() signs one race from scratch. SignatureTable signs
/// every race of one trace and computes each distinct signature once: a
/// predicted pass yields thousands of findings per trace that share a
/// handful of signatures, and rebuilding the component strings per finding
/// is what dominated batch ingest. The table also signs a finding from its
/// parts - kind, both accesses and the location - so batch ingest signs a
/// prediction pass's event-index pairs straight out of the trace, with no
/// Race built per finding. Both go through the same component helpers, so
/// each component is defined once.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_TRIAGE_SIGNATURE_H
#define WEBRACER_TRIAGE_SIGNATURE_H

#include "detect/RaceDetector.h"
#include "hb/HbGraph.h"

#include <compare>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace wr::triage {

/// The canonical structural identity of one race report. Equal
/// signatures identify "the same race" across seeds, traces, trace
/// encodings, and partial-order engines.
struct RaceSignature {
  std::string Kind;     ///< Race taxonomy name.
  std::string Location; ///< Structural location pattern.
  std::string Access;   ///< Canonically ordered endpoint shapes.
  std::string Context;  ///< Causal HB-rule context per endpoint.

  /// The canonical one-line rendering: "Kind|Location|Access|Context".
  std::string text() const;

  /// Stable FNV-1a fingerprint of text() (no platform-dependent
  /// std::hash; the same signature hashes identically everywhere).
  uint64_t hash() const;

  /// The fingerprint as a fixed-width hex id for reports ("sig-...").
  std::string id() const;

  bool operator==(const RaceSignature &O) const = default;
};

/// Folds every maximal decimal-digit run in \p Name to '#': the corpus
/// generators uniquify symbols per site ("dw_p3", "menu_p3_0"), and the
/// same source pattern must sign identically at every site layout.
std::string normalizeSourcePattern(std::string_view Name);

/// Computes the signature of \p R. \p Hb must be the graph that owns the
/// race's operation ids (the browser's online, the replay's offline).
RaceSignature computeSignature(const detect::Race &R, const HbGraph &Hb);

/// The signatures of one trace's races, each distinct one computed once.
/// sign() returns an index into a table of distinct signatures; equal
/// signatures share one index.
///
/// The table memoizes each signature component on the narrowest key it
/// depends on: the location pattern per LocId, and an endpoint's (shape,
/// context) per (operation, access kind, access origin). It interns both by
/// content, and keys the signature itself on (race kind, pattern id, the
/// two endpoint ids in id order). Content interning is what makes the last
/// step pay: keyed on operations instead, every predicted pair would be a
/// new key.
///
/// Every race signed through one table must come from the run that built
/// \p Hb, so its LocIds name locations of that run's interner. \p Hb must
/// be finished, and outlive the table: an endpoint's context reads its
/// operation's in-edges, which must not change after they were first read.
class SignatureTable {
public:
  explicit SignatureTable(const HbGraph &Hb) : Hb(Hb) {}

  /// The index of \p R's signature; equal to computeSignature(R, Hb).
  uint32_t sign(const detect::Race &R);

  /// The index of the signature of a \p Kind race between \p First and
  /// \p Second on \p Loc, which must be what Second.Loc resolves to (or
  /// anything, when Second.Loc is InvalidLocId). Equal to sign() of the
  /// Race with those fields.
  uint32_t sign(detect::RaceKind Kind, const Access &First,
                const Access &Second, const Location &Loc);

  const RaceSignature &signature(uint32_t Index) const {
    return Signatures[Index];
  }
  size_t size() const { return Signatures.size(); }

private:
  /// One endpoint's (shape, context) components.
  using Endpoint = std::pair<std::string, std::string>;

  /// (race kind, pattern id, lower endpoint id, higher endpoint id).
  struct Key {
    uint32_t Kind = 0, Pattern = 0, Lo = 0, Hi = 0;
    auto operator<=>(const Key &O) const = default;
  };

  uint32_t patternOf(LocId Id, const Location &Loc);
  uint32_t internPattern(std::string Pattern);
  uint32_t endpointOf(const Access &A);

  const HbGraph &Hb;
  std::vector<uint32_t> PatternOfLoc; ///< By LocId; NoId until computed.
  std::unordered_map<std::string, uint32_t> PatternIds;
  std::vector<std::string> Patterns;
  /// By (operation, access kind, access origin), packed.
  std::unordered_map<uint64_t, uint32_t> EndpointOfAccess;
  std::map<Endpoint, uint32_t> EndpointIds;
  std::vector<Endpoint> Endpoints;
  std::map<Key, uint32_t> SignatureOf;
  std::vector<RaceSignature> Signatures;
};

} // namespace wr::triage

#endif // WEBRACER_TRIAGE_SIGNATURE_H
