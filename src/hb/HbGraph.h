//===- hb/HbGraph.h - The happens-before relation ---------------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The happens-before relation of the paper's Section 3.3, represented as a
/// DAG over operations with rule-tagged edges.
///
/// The paper answers reachability by traversing this graph and blames
/// those traversals for much of its overhead, naming vector clocks as the
/// fix (Sec. 5.2.1). Here every query is a clock probe: a ClockIndex
/// (hb/ClockIndex.h) over every edge, built lazily in id order, holds a
/// chain-decomposition vector clock per operation, so happensBefore() is
/// one O(1) lookup. The index is sound because the builder only ever adds
/// edges *to the most recently created operation*: once both endpoints of
/// a query exist, no later edge can create a new path between them.
///
/// `bench/ablation_hb_repr` measures the paper's memoized graph DFS
/// against the clocks; `bench/hb_scaling` pins the build-cost and
/// clock-memory behavior at growing operation counts.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_HB_HBGRAPH_H
#define WEBRACER_HB_HBGRAPH_H

#include "hb/ClockIndex.h"
#include "hb/Operation.h"
#include "support/InlineVec.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

namespace wr {

/// Which paper rule justified an edge; kept on every edge for debugging and
/// for explaining race reports.
enum class HbRule : uint8_t {
  R1a_ParseOrder,       ///< parse(E1) -> parse(E2), syntactic order.
  R1b_InlineScript,     ///< exe(inline E1) -> parse(E2).
  R1c_SyncScriptLoad,   ///< ld(sync E1) -> parse(E2).
  R2_CreateBeforeExe,   ///< create(E) -> exe(E).
  R3_ExeBeforeLoad,     ///< exe(E) -> ld(E).
  R4_CreateBeforeDefer, ///< create(E) -> exe(deferred S).
  R5_DeferOrder,        ///< ld(E1) -> exe(E2) for consecutive defers.
  R6_FrameCreate,       ///< create(iframe) -> create(nested element).
  R7_FrameLoad,         ///< ld(nested window) -> ld(iframe).
  R8_TargetCreated,     ///< create(T) -> disp_i(e, T).
  R9_DispatchOrder,     ///< disp_j(e,T) -> disp_i(e,T), j < i.
  R10_AjaxSend,         ///< send() -> disp_0(readystatechange, xhr).
  R11_DclBeforeLoad,    ///< dcl(D) -> ld(W).
  R12_ParseBeforeDcl,   ///< parse(E) -> dcl(D).
  R13_InlineBeforeDcl,  ///< exe(static inline E) -> dcl(D).
  R14_ScriptLoadBeforeDcl, ///< ld(sync/defer E) -> dcl(D).
  R15_ElemLoadBeforeWindowLoad, ///< ld(E) -> ld(W).
  R16_SetTimeout,       ///< caller -> cb(B).
  R17_SetInterval,      ///< caller -> cb_0; cb_i -> cb_{i+1}.
  RA_DispatchChain,     ///< begin -> h1 -> ... -> hn -> end within one
                        ///< dispatch (Appendix A phase ordering).
  RA_InlineSplit,       ///< A[0:k) -> B -> A[k+1:) for inline dispatch.
  RProgram,             ///< Generic program-order edge (bootstrap chains).
};

/// Renders a rule tag.
const char *toString(HbRule Rule);

/// Three-valued verdict of one combined ordering query between two
/// distinct, valid operations.
enum class Ordering : uint8_t {
  Before,     ///< A happens-before B.
  After,      ///< B happens-before A.
  Concurrent, ///< Unordered either way.
};

/// Renders an ordering verdict.
const char *toString(Ordering O);

/// Number of HbRule enumerators (dense, starting at 0); sized for
/// per-rule counter arrays.
inline constexpr size_t NumHbRules =
    static_cast<size_t>(HbRule::RProgram) + 1;

/// The happens-before DAG. Operations are created through `addOperation`
/// and edges through `addEdge`; the builder contract is that every edge
/// points from a lower OpId to a higher OpId (asserted), i.e., edges are
/// only added while the target operation is being created.
class HbGraph {
public:
  /// Adjacency list storage: inline room for the common degree (one chain
  /// predecessor plus one cross edge) before touching the heap.
  using OpList = InlineVec<OpId, 2>;

  /// One rule-tagged in-edge (trivially copyable, unlike std::pair).
  struct InEdge {
    OpId From;
    HbRule Rule;
  };
  using InEdgeList = InlineVec<InEdge, 2>;

  HbGraph();

  /// Creates a new operation and returns its id. Ids are dense and start
  /// at 1 (0 is the ⊥ sentinel).
  OpId addOperation(Operation Op);

  /// Pre-sizes the per-operation tables for \p ExpectedOps operations, so
  /// large pages do not pay repeated vector growth in addOperation.
  void reserveOperations(size_t ExpectedOps);

  /// Adds the edge From -> To justified by \p Rule. Requires From < To and
  /// both valid. Duplicate edges are ignored.
  void addEdge(OpId From, OpId To, HbRule Rule);

  /// Number of operations created so far.
  size_t numOperations() const { return Ops.size(); }

  /// Number of (deduplicated) edges.
  size_t numEdges() const { return EdgeCount; }

  /// Deduplicated edges justified by \p Rule (the Tables 1-3 per-rule
  /// evaluation columns). When the same edge is requested twice under
  /// different rules, only the first request counts - matching numEdges.
  uint64_t numEdges(HbRule Rule) const {
    return EdgesByRule[static_cast<size_t>(Rule)];
  }

  /// Per-rule edge counters indexed by HbRule value.
  const std::array<uint64_t, NumHbRules> &edgesByRule() const {
    return EdgesByRule;
  }

  /// Operation metadata. \p Op must be valid.
  const Operation &operation(OpId Op) const {
    assert(Op != InvalidOpId && Op <= Ops.size() && "invalid OpId");
    return Ops[Op - 1];
  }

  /// Mutable access (the runtime patches trigger info as it learns it).
  Operation &operation(OpId Op) {
    assert(Op != InvalidOpId && Op <= Ops.size() && "invalid OpId");
    return Ops[Op - 1];
  }

  /// Direct successors of \p Op.
  const OpList &successors(OpId Op) const {
    assert(Op != InvalidOpId && Op <= Ops.size() && "invalid OpId");
    return Succ[Op - 1];
  }

  /// Direct predecessors of \p Op.
  const OpList &predecessors(OpId Op) const {
    assert(Op != InvalidOpId && Op <= Ops.size() && "invalid OpId");
    return Pred[Op - 1];
  }

  /// True iff A happens-before B in the transitive closure: one clock
  /// probe. Edges strictly ascend, so A >= B is never ordered.
  bool happensBefore(OpId A, OpId B) const;

  /// Combined ordering query. Requires A != B, both valid. Issues at
  /// most one clock probe: edges strictly ascend, so only the lower-id
  /// side can possibly reach the higher-id side.
  Ordering ordering(OpId A, OpId B) const {
    assert(A != InvalidOpId && B != InvalidOpId && A != B &&
           "ordering() requires two distinct valid operations");
    if (A < B)
      return happensBefore(A, B) ? Ordering::Before : Ordering::Concurrent;
    return happensBefore(B, A) ? Ordering::After : Ordering::Concurrent;
  }

  /// Can-Happen-Concurrently (Sec. 5.1): both valid and unordered.
  bool canHappenConcurrently(OpId A, OpId B) const {
    if (A == InvalidOpId || B == InvalidOpId || A == B)
      return false;
    return ordering(A, B) == Ordering::Concurrent;
  }

  /// Number of chains the vector-clock index currently uses.
  size_t numChains() const { return Clocks.numChains(); }

  /// Chain the vector-clock index assigned to \p Op (0-based), building
  /// the index up to \p Op if needed.
  uint32_t chainOf(OpId Op) const { return epochOf(Op).Chain; }

  /// 1-based position of \p Op within chainOf(Op).
  uint32_t chainPositionOf(OpId Op) const { return epochOf(Op).Pos; }

  /// The watermark \p Op holds for \p Chain: the position of the latest
  /// operation of that chain that happens-before \p Op (its own position
  /// on its own chain); 0 when no operation of the chain is ordered
  /// before \p Op. Builds the index up to \p Op if needed.
  uint32_t clockWatermark(OpId Op, uint32_t Chain) const {
    return clocks(Op).watermark(Op, Chain);
  }

  /// The (chain, position) epoch of \p Op, building the index up to
  /// \p Op if needed. epochOf(A) together with epochOrdered() answers
  /// exactly the same question as happensBefore(A, B).
  ClockEpoch epochOf(OpId Op) const { return clocks(Op).epochOf(Op); }

  /// True iff the operation holding epoch (\p Chain, \p Pos) happens-
  /// before \p Op: one clock probe. Correct for any
  /// id relation between the epoch's owner and \p Op - chain positions
  /// grow with operation id along a chain, so the watermark of an older
  /// op can never reach a newer op's position.
  bool epochOrdered(uint32_t Chain, uint32_t Pos, OpId Op) const {
    assert(Pos != 0 && "epoch positions are 1-based");
    return clocks(Op).ordered({Chain, Pos}, Op);
  }
  bool epochOrdered(ClockEpoch E, OpId Op) const {
    return epochOrdered(E.Chain, E.Pos, Op);
  }

  /// Bytes the vector-clock index currently holds: the shared watermark
  /// arena, the fixed per-operation clock records, and the per-chain tail
  /// table (so the memory gates in bench/hb_scaling measure the honest
  /// total, not just the slabs).
  uint64_t clockBytes() const { return Clocks.bytes(); }

  /// Operations whose clock aliases their predecessor's slab (or needed
  /// no slab at all) instead of materializing a copy.
  uint64_t sharedClocks() const { return Clocks.sharedClocks(); }

  /// Multi-predecessor merges that had to materialize a new slab because
  /// some predecessor watermark was not dominated by the base clock.
  uint64_t clockMerges() const { return Clocks.merges(); }

  /// Returns the rule that justifies a direct edge From -> To, if any.
  /// Useful for explaining why two accesses are ordered.
  bool findDirectEdgeRule(OpId From, OpId To, HbRule &RuleOut) const;

  /// Returns one A -> ... -> B path (operation ids, inclusive) if A
  /// happens-before B, else an empty vector. For report explanations;
  /// a breadth-first search over the edges that never consults the
  /// clocks, so tests use it as their reachability reference.
  std::vector<OpId> explainPath(OpId A, OpId B) const;

private:
  /// The clock index, built up to \p Op. Lazy building is safe because
  /// every in-edge of an operation is added before any query names it.
  const ClockIndex &clocks(OpId Op) const {
    assert(Op != InvalidOpId && Op <= Ops.size() && "invalid OpId");
    Clocks.ensure(Op, Pred);
    return Clocks;
  }

  std::vector<Operation> Ops;
  std::vector<OpList> Succ;
  std::vector<OpList> Pred;
  std::vector<InEdgeList> InEdgeRules;
  size_t EdgeCount = 0;
  std::array<uint64_t, NumHbRules> EdgesByRule{};

  /// Vector clocks over every edge, built lazily in id order.
  mutable ClockIndex Clocks;
};

} // namespace wr

#endif // WEBRACER_HB_HBGRAPH_H
