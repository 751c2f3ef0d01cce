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
/// is what dominated batch ingest. The table also signs a prediction
/// pass's event-index pair straight out of the trace: each event's
/// endpoint key and pattern id are computed the first time a pair names
/// it, so a pair costs two array loads and a comparison with the last key
/// signed - or, when the key changed, one hash-map probe - with no Race
/// built, no access read twice and no string built. Both go through the
/// same endpoint key and component helpers, so each component is defined
/// once.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_TRIAGE_SIGNATURE_H
#define WEBRACER_TRIAGE_SIGNATURE_H

#include "detect/RaceDetector.h"
#include "hb/HbGraph.h"
#include "instr/TraceLog.h"

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
/// The table keys a signature on (race kind, pattern id, the two
/// endpoints' identities in numeric order) in one hash map, behind a memo
/// of the last key signed.
/// A location's pattern is computed once per LocId and interned by
/// content. An endpoint's identity is its packed (access kind, access
/// origin, operation kind, trigger, causal-rule mask) key: every field
/// its shape and context strings render, so equal keys are equal strings
/// and the strings are built only when a new signature is. The operation
/// part of the key is computed once per operation. Content identity is
/// what makes the key pay: keyed on operations instead, every predicted
/// pair would be a new key. Signing by event index adds one memo per
/// trace event of its (endpoint key, pattern id): the 698,124 predicted
/// pairs of the 100 seed-2012 corpus traces name only 10,156 distinct
/// events.
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

  /// The index of the signature of a \p Kind race between the accesses
  /// of events \p FirstEvent and \p SecondEvent of \p Log, on the
  /// location the second one's LocId resolves to: equal to sign() of the
  /// Race with those fields. Every pair signed through one table must
  /// index the same trace.
  uint32_t sign(detect::RaceKind Kind, const TraceLog &Log,
                uint32_t FirstEvent, uint32_t SecondEvent);

  const RaceSignature &signature(uint32_t Index) const {
    return Signatures[Index];
  }
  size_t size() const { return Signatures.size(); }

private:
  /// (race kind, pattern id, lower endpoint key, higher endpoint key).
  struct Key {
    uint64_t Lo = 0, Hi = 0;
    uint32_t Pattern = 0, Kind = 0;
    bool operator==(const Key &O) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      uint64_t H = K.Lo * 0x9e3779b97f4a7c15ull ^ K.Hi;
      return H * 0xbf58476d1ce4e5b9ull ^
             (static_cast<uint64_t>(K.Pattern) << 2 | K.Kind);
    }
  };

  /// A trace event's endpoint key and pattern id, computed together from
  /// its access the first time a pair names the event.
  struct EventIds {
    uint64_t Endpoint = ~0ull; ///< ~0 until computed.
    uint32_t Pattern = 0;
  };

  const EventIds &idsOf(const TraceLog &Log, uint32_t Event);
  uint32_t signKey(detect::RaceKind Kind, uint32_t Pattern, uint64_t A,
                   uint64_t B);
  uint32_t patternOf(LocId Id, const Location &Loc);
  uint32_t internPattern(std::string Pattern);
  uint64_t endpointOf(const Access &A);

  const HbGraph &Hb;
  std::vector<uint32_t> PatternOfLoc; ///< By LocId; NoId until computed.
  std::unordered_map<std::string, uint32_t> PatternIds;
  std::vector<std::string> Patterns;
  /// By OpId: the operation's part of an endpoint key; ~0 until computed.
  std::vector<uint64_t> OpPartOf;
  std::vector<EventIds> IdsOfEvent; ///< By event index; empty until used.
  std::unordered_map<Key, uint32_t, KeyHash> SignatureOf;
  Key LastKey;             ///< The last key signed, and its signature.
  uint32_t LastIndex = 0;
  std::vector<RaceSignature> Signatures;
};

} // namespace wr::triage

#endif // WEBRACER_TRIAGE_SIGNATURE_H
