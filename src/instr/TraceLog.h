//===- instr/TraceLog.h - Replayable instrumentation trace ------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recorded execution trace as a first-class artifact. A TraceLog is an
/// append-only stream of every instrumentation callback - operations with
/// their full metadata, rule-tagged happens-before edges, logical memory
/// accesses, and event dispatches - carrying enough payload that the
/// happens-before graph and any detector run can be reconstructed without
/// the browser (see detect/TraceReplay.h). Predictive race-detection
/// systems treat the trace, not the live execution, as the unit the
/// analysis consumes; recording once and replaying detector or filter
/// variants avoids re-executing the page per configuration.
///
/// Traces round-trip through a compact binary format (varint-coded, with a
/// magic/version header) so they can be written to disk by one process and
/// analyzed by another (`webracer-cli --record` / `--replay`).
///
/// Formats: WRT2 (current) opens with a location string table - every
/// distinct logical location once, in id order - and access records carry
/// the varint LocId; WRT1 (legacy) inlined the full location into every
/// access record. serialize() always writes WRT2; deserialize() accepts
/// both, re-interning WRT1's inline locations in stream order (which is
/// first-touch order, so the ids match the online run's).
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_INSTR_TRACELOG_H
#define WEBRACER_INSTR_TRACELOG_H

#include "instr/Instrumentation.h"
#include "mem/LocationInterner.h"

#include <cstdint>
#include <string>
#include <vector>

namespace wr {

/// One record of the instrumentation stream. Unlike a debug log line, an
/// event keeps the complete payload of its callback (the whole Operation
/// for creations, the whole Access for memory events) so that replay loses
/// nothing the online run saw.
struct TraceEvent {
  enum class Kind : uint8_t {
    OpCreated,
    OpBegin,
    OpEnd,
    HbEdge,
    MemAccess,
    Dispatch,
  };

  Kind K = Kind::OpBegin;
  /// Created/begun/ended op; edge source; dispatch begin anchor.
  OpId Op = InvalidOpId;
  /// Edge target; dispatch end anchor.
  OpId Op2 = InvalidOpId;
  HbRule Rule = HbRule::RProgram; ///< HbEdge only.
  bool Crashed = false;           ///< OpEnd only.
  Operation Meta;                 ///< OpCreated only.
  Access Mem;                     ///< MemAccess only.
  NodeId Target = InvalidNodeId;  ///< Dispatch only.
  ContainerId TargetObject = 0;   ///< Dispatch only (non-node targets).
  std::string EventType;          ///< Dispatch only.
  int32_t DispatchIndex = -1;     ///< Dispatch only.
};

/// The append-only record stream. Attach to a Browser as an
/// instrumentation sink to record online; deserialize to analyze offline.
class TraceLog final : public InstrumentationSink {
public:
  using EventKind = TraceEvent::Kind;

  void onOperationCreated(OpId Op, const Operation &Meta) override;
  void onOperationBegin(OpId Op) override;
  void onOperationEnd(OpId Op, bool Crashed) override;
  void onHbEdge(OpId From, OpId To, HbRule Rule) override;
  void onLocationInterned(LocId Id, const Location &Loc) override;
  void onMemoryAccess(const Access &A) override;
  void onEventDispatch(NodeId Target, ContainerId TargetObject,
                       const std::string &EventType, int32_t DispatchIndex,
                       OpId Begin, OpId End) override;

  /// The trace's own location table: mirrors the engine's interner while
  /// recording (the sink must be attached from session start, before any
  /// location is interned), or is rebuilt from the WRT2 string table /
  /// WRT1 inline locations when deserializing. Access events' LocIds
  /// resolve against this.
  const LocationInterner &interner() const { return Interner; }
  LocationInterner &interner() { return Interner; }

  const std::vector<TraceEvent> &events() const { return Events; }
  size_t size() const { return Events.size(); }
  bool empty() const { return Events.empty(); }
  void clear() {
    Events.clear();
    Interner.clear();
    Source.clear();
  }

  /// Where this trace came from (a file path for deserialized traces, a
  /// page URL for live recordings) - provenance the triage layer carries
  /// into first-witness attributions. In-memory only: the WRT formats do
  /// not encode it, so serialized traces stay byte-compatible.
  void setSource(std::string S) { Source = std::move(S); }
  const std::string &source() const { return Source; }

  /// Counts events of one kind.
  size_t count(EventKind Kind) const;

  /// Renders the whole trace, one event per line (debugging).
  std::string toString() const;

  /// Encodes the trace into the current (WRT2) binary format: location
  /// string table first, then events referencing it by id.
  std::string serialize() const;

  /// Encodes the trace in the legacy WRT1 layout (inline locations, no
  /// table). Kept so compatibility tooling and tests can produce traces
  /// older readers understand; every access's LocId must resolve in the
  /// trace's interner.
  std::string serializeLegacyWrt1() const;

  /// Decodes \p Bytes (WRT2 or legacy WRT1) into \p Out. Returns false
  /// (and sets \p Error when given) on a bad header, truncation,
  /// out-of-range enum values, a corrupt location table, an access
  /// referencing a location id the table does not define, or a stream
  /// replay cannot build clocks from: creation ids that are not 1, 2,
  /// ...; an edge not from an older to a newer created operation; an
  /// edge into an operation after an access by it or a newer one; an
  /// access by an operation never created. \p Out is left cleared on
  /// failure.
  static bool deserialize(const std::string &Bytes, TraceLog &Out,
                          std::string *Error = nullptr);

private:
  std::vector<TraceEvent> Events;
  LocationInterner Interner;
  std::string Source;
};

} // namespace wr

#endif // WEBRACER_INSTR_TRACELOG_H
