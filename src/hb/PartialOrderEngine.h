//===- hb/PartialOrderEngine.h - Pluggable ordering oracles -----*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The partial-order oracle the race detector consumes, extracted behind
/// an engine interface so the observed happens-before relation (HbGraph)
/// is just one of several orders a recorded trace can be analyzed under:
///
///  * Hb / HbDfs - the paper's happens-before relation, answered by the
///    existing HbGraph (vector clocks or memoized DFS). The race detector
///    runs over these. Verdicts between existing operations never change.
///  * Shb / Wcp (PredictiveEngine.h) - orders for race *prediction* over
///    replayed traces, driven by detect/Prediction.h; their verdicts
///    evolve as the trace streams by.
///
/// Engines receive the replayed trace through the three hook methods
/// (operation creation, rule-tagged HB edges, memory accesses) plus an
/// optional primeAccess() pre-pass; all hooks default to no-ops so the
/// graph-backed engine stays a thin adapter.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_HB_PARTIALORDERENGINE_H
#define WEBRACER_HB_PARTIALORDERENGINE_H

#include "hb/HbGraph.h"
#include "mem/Location.h"

namespace wr {

/// Which partial order a detector or prediction pass runs over.
enum class EngineKind : uint8_t {
  Hb,    ///< Observed happens-before, vector-clock strategy (default).
  HbDfs, ///< Observed happens-before, memoized-DFS strategy.
  Shb,   ///< Schedulable-HB: HB plus write-read edges (SHB paper).
  Wcp,   ///< Weak-causally-precedes adaptation: SHB minus dispatch-order
         ///< edges between non-conflicting operations.
};

/// Renders an engine kind as its CLI spelling (hb, hb-dfs, shb, wcp).
const char *toString(EngineKind Kind);

/// Parses a CLI engine name; returns false (leaving \p Out untouched) on
/// an unknown spelling.
bool parseEngineKind(const char *Name, EngineKind &Out);

/// Abstract ordering oracle over trace operations.
class PartialOrderEngine {
public:
  virtual ~PartialOrderEngine() = default;

  virtual EngineKind kind() const = 0;

  /// Combined ordering verdict; requires A != B, both valid.
  virtual Ordering ordering(OpId A, OpId B) const = 0;

  /// True iff A precedes B in this engine's partial order.
  bool happensBefore(OpId A, OpId B) const {
    return ordering(A, B) == Ordering::Before;
  }

  /// CHC under this order: both valid, distinct, unordered.
  bool concurrent(OpId A, OpId B) const {
    if (A == InvalidOpId || B == InvalidOpId || A == B)
      return false;
    return ordering(A, B) == Ordering::Concurrent;
  }

  /// True when this engine can name operations by (chain, position)
  /// epochs and answer epoch-ordering probes with one O(1) clock lookup
  /// (the vector-clock HbGraph strategy). The detector then stores one
  /// epoch per location slot and answers every ordering question through
  /// epochOrdered() - no pair-cache entry, no generic concurrent() call.
  virtual bool supportsEpochQueries() const { return false; }

  /// The epoch of \p Op. Only meaningful when supportsEpochQueries();
  /// the default returns the Pos == 0 "no epoch" sentinel.
  virtual ClockEpoch epochOf(OpId Op) const {
    (void)Op;
    return {};
  }

  /// True iff the operation holding epoch (\p Chain, \p Pos) precedes
  /// \p Op in this engine's order. Only meaningful when
  /// supportsEpochQueries().
  virtual bool epochOrdered(uint32_t Chain, uint32_t Pos, OpId Op) const {
    (void)Chain;
    (void)Pos;
    (void)Op;
    return false;
  }

  /// Trace-stream hooks (defaults: no-op). Drivers feed every replayed
  /// event through these in trace order.
  virtual void onOperationCreated(OpId Op, const Operation &Meta) {
    (void)Op;
    (void)Meta;
  }
  virtual void onHbEdge(OpId From, OpId To, HbRule Rule) {
    (void)From;
    (void)To;
    (void)Rule;
  }
  virtual void onMemoryAccess(const Access &A) { (void)A; }

  /// Optional pre-pass: called once per access, before any other hook,
  /// for engines that need both endpoints' access sets to classify an
  /// edge (WCP's conflict test). Default: no-op.
  virtual void primeAccess(OpId Op, LocId Loc, AccessKind Kind) {
    (void)Op;
    (void)Loc;
    (void)Kind;
  }
};

/// The observed-HB engine: a thin adapter over an existing HbGraph. The
/// graph is built by the browser or the replay driver; this engine only
/// answers queries, so all hooks stay no-ops.
class HbEngine final : public PartialOrderEngine {
public:
  explicit HbEngine(const HbGraph &Hb) : Hb(Hb) {}

  EngineKind kind() const override {
    return Hb.usesVectorClocks() ? EngineKind::Hb : EngineKind::HbDfs;
  }

  Ordering ordering(OpId A, OpId B) const override {
    return Hb.ordering(A, B);
  }

  /// Epoch queries are available exactly when the graph answers
  /// happensBefore() from its clock index (checked per call: tests and
  /// benches flip the strategy on a live graph).
  bool supportsEpochQueries() const override {
    return Hb.usesVectorClocks();
  }

  ClockEpoch epochOf(OpId Op) const override { return Hb.epochOf(Op); }

  bool epochOrdered(uint32_t Chain, uint32_t Pos, OpId Op) const override {
    return Hb.epochOrdered(Chain, Pos, Op);
  }

  const HbGraph &graph() const { return Hb; }

private:
  const HbGraph &Hb;
};

} // namespace wr

#endif // WEBRACER_HB_PARTIALORDERENGINE_H
