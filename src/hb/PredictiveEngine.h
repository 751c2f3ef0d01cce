//===- hb/PredictiveEngine.h - SHB / WCP predictive orders ------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The partial orders race prediction runs over a replayed trace's event
/// stream (detect/Prediction.h feeds both in one walk, SHB's pass first).
/// Each answers ordering queries from a ClockIndex (hb/ClockIndex.h), the
/// index HbGraph uses, fed with the edges the order keeps:
///
///  * ShbEngine - schedulable happens-before ("What Happens-After the
///    First Race?"): the observed HB edges plus a write-read edge from
///    the last writer of a location to each subsequent reader, carried
///    as a last-write clock that readers join. Race checks posed
///    *before* the reader's join (the driver's check-then-update
///    discipline) make every SHB-concurrent conflicting pair a race in
///    some feasible schedule, so races past the first reported one
///    become sound predictions instead of noise.
///
///  * WcpEngine - a weak-causally-precedes adaptation ("Dynamic Race
///    Prediction in Linear Time") for the web model, where the unit of
///    atomicity is the dispatched operation rather than a lock region:
///    SHB minus the dispatch-order edges (rules 9 and 17) between
///    operations that do not conflict (no common location with a write
///    on either side). Dropping those edges models reordering two
///    same-target dispatches that never touch common state; the
///    resulting order is weaker than SHB, so WCP's predictions are a
///    superset of SHB's by construction. Creation causality survives
///    the weakening: rule 17's caller -> cb_0 edge is never dropped,
///    and dropping a cb_i -> cb_{i+1} chain edge substitutes the
///    interval's creation edge, so no callback floats free of its
///    registration. Unlike SHB, a WCP-concurrent pair is an aggressive
///    candidate, not a guaranteed feasible race (the dropped rules are
///    real platform guarantees; see DESIGN.md).
///
/// The prediction pass feeds every replayed event through the three
/// hooks (operation creation, rule-tagged HB edges, memory accesses) in
/// trace order, after a primeAccess() pre-pass over the accesses. WCP
/// keeps the pre-pass's accesses in one flat list, one entry per run of
/// an operation's accesses to a location, and sorts them into
/// per-operation location spans at its first conflict test, which only a
/// rule-9 or rule-17 edge asks for.
/// Because clocks grow as accesses stream by (a reader's clock gains the
/// last writer's), verdicts between existing operations can change -
/// only ever from concurrent to ordered, which is why the pass may pose
/// each pair once - and a write-read edge can order a higher id before a
/// lower one. The detector's epoch path assumes neither, so it probes
/// HbGraph directly and these engines serve the prediction pass only.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_HB_PREDICTIVEENGINE_H
#define WEBRACER_HB_PREDICTIVEENGINE_H

#include "hb/ClockIndex.h"
#include "hb/HbGraph.h"
#include "mem/Location.h"

#include <unordered_map>
#include <vector>

namespace wr {

/// The predictive orders, in the order a prediction run reports them.
enum class EngineKind : uint8_t {
  Shb, ///< Schedulable-HB: HB plus write-read edges (SHB paper).
  Wcp, ///< Weak-causally-precedes adaptation: SHB minus dispatch-order
       ///< edges between non-conflicting operations.
};

/// Renders an engine kind as its report key (shb, wcp).
const char *toString(EngineKind Kind);

/// Shared machinery of the predictive orders: the kept in-edges of every
/// operation feed a ClockIndex, built lazily in id order when an access
/// or a query first needs an operation's clock (sound because every
/// in-edge of an operation precedes its first access). A write snapshots
/// its operation's clock as the location's last-write clock; a read joins
/// that snapshot into its own operation's clock.
class PredictiveEngine {
public:
  PredictiveEngine() = default;
  PredictiveEngine(const PredictiveEngine &) = delete;
  PredictiveEngine &operator=(const PredictiveEngine &) = delete;
  virtual ~PredictiveEngine() = default;

  /// Combined ordering verdict; requires A != B, both valid.
  Ordering ordering(OpId A, OpId B) const;

  virtual void onOperationCreated(OpId Op, const Operation &Meta);
  virtual void onHbEdge(OpId From, OpId To, HbRule Rule);
  void onMemoryAccess(const Access &A);

  /// Pre-pass: called once per access, before any other hook, for orders
  /// that need both endpoints' access sets to classify an edge (WCP's
  /// conflict test). Default: no-op.
  virtual void primeAccess(OpId Op, LocId Loc, AccessKind Kind) {
    (void)Op;
    (void)Loc;
    (void)Kind;
  }

  /// Chains the incremental index uses so far.
  size_t numChains() const { return Clocks.numChains(); }

  /// HB edges this engine's order dropped (WCP's weakening; 0 for SHB).
  uint64_t droppedEdges() const { return DroppedEdges; }

  /// Bytes of clock state: the index plus the last-write clocks.
  uint64_t clockBytes() const {
    return Clocks.bytes() + LastWrite.size() * sizeof(ClockIndex::ClockRep);
  }

protected:
  /// Engine-specific edge filter; returning false excludes the edge from
  /// this order (counted in droppedEdges()).
  virtual bool keepEdge(OpId From, OpId To, HbRule Rule) {
    (void)From;
    (void)To;
    (void)Rule;
    return true;
  }

private:
  std::vector<ClockIndex::OpList> Preds; ///< Kept in-edges, edge order.
  /// Const queries build clocks lazily - the driver asks about an
  /// access's operation before the access reaches onMemoryAccess.
  mutable ClockIndex Clocks;
  /// Last-write clock per LocId; the default rep is the empty clock.
  std::vector<ClockIndex::ClockRep> LastWrite;
  uint64_t DroppedEdges = 0;
};

/// SHB: every observed edge kept, write-read edges via last-write joins.
class ShbEngine final : public PredictiveEngine {};

/// WCP adaptation: SHB minus dispatch-order edges (rules 9/17) between
/// non-conflicting operations. Needs the primeAccess() pre-pass so both
/// endpoints' access sets exist when an edge is classified.
class WcpEngine final : public PredictiveEngine {
public:
  void onOperationCreated(OpId Op, const Operation &Meta) override;
  void onHbEdge(OpId From, OpId To, HbRule Rule) override;
  void primeAccess(OpId Op, LocId Loc, AccessKind Kind) override;

protected:
  bool keepEdge(OpId From, OpId To, HbRule Rule) override;

private:
  bool conflicting(OpId A, OpId B);
  void buildFootprints();
  bool isIntervalCb(OpId Op) const {
    return Op <= IntervalCb.size() && IntervalCb[Op - 1];
  }

  /// One access of the pre-pass: Op touched Loc with Mask (1 = read,
  /// 2 = write).
  struct PrimedAccess {
    OpId Op;
    LocId Loc;
    uint8_t Mask;
  };
  /// The pre-pass's accesses, one entry per run of one operation's
  /// accesses to a location, in trace order, until the first conflict
  /// test sorts them into the footprints (only dispatch-order edges ever
  /// ask, so a trace without them never sorts).
  std::vector<PrimedAccess> Primed;
  /// By LocId: the location's latest entry in Primed; ~0u before any.
  std::vector<uint32_t> LastPrimed;
  /// Operation Op's footprint is Footprint[FootprintStart[Op - 1] ..
  /// FootprintStart[Op]): its distinct locations ascending, each packed
  /// as LocId << 2 | mask. Operations past the last one that accessed
  /// anything have none.
  std::vector<uint32_t> FootprintStart;
  std::vector<uint64_t> Footprint;
  /// Which operations are interval callbacks (rule 17's cb_i): only the
  /// cb_i -> cb_{i+1} chain edges are droppable, never caller -> cb_0.
  std::vector<uint8_t> IntervalCb;
  /// Registration operation of each interval callback, carried down the
  /// rule-17 chain; substituted when a chain edge is dropped.
  std::unordered_map<OpId, OpId> IntervalCreator;
};

} // namespace wr

#endif // WEBRACER_HB_PREDICTIVEENGINE_H
