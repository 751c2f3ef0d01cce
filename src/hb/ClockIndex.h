//===- hb/ClockIndex.h - Chain-decomposed vector clocks ---------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vector-clock index behind every order the system checks: HbGraph's
/// happens-before and the SHB/WCP predictive engines (PredictiveEngine.h).
/// Each caller hands it every operation's admitted in-edges; the index
/// packs operations greedily into chains and gives each one a clock of
/// per-chain watermarks, so "A precedes B" is one probe of B's clock at
/// A's (chain, position) epoch.
///
/// Clocks live in one uint32_t pool of slabs plus a 16-byte ClockRep per
/// operation. A slab never changes once written: an operation that
/// extends its predecessor's chain aliases the predecessor's slab, and a
/// merge or a snapshot join writes a fresh slab at the pool tail. So reps
/// share slabs copy-on-write, and a ClockRep copied out of the index is a
/// snapshot that stays valid. See DESIGN.md "Near-linear HB index".
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_HB_CLOCKINDEX_H
#define WEBRACER_HB_CLOCKINDEX_H

#include "hb/Operation.h"
#include "support/InlineVec.h"

#include <cstdint>
#include <vector>

namespace wr {

/// The index's compact name for one operation: its chain and 1-based
/// position within that chain. This is the FastTrack/VerifiedFT "epoch"
/// the race detector stores per location slot: the op holding epoch
/// (c, p) precedes B iff B's watermark for chain c is >= p - one clock
/// probe. Pos 0 never names a real operation, so a default ClockEpoch is
/// the "no epoch recorded" sentinel.
struct ClockEpoch {
  uint32_t Chain = 0;
  uint32_t Pos = 0;
};

class ClockIndex {
public:
  /// One clock: the slab Pool[Offset, Offset + Len) joined with the
  /// owner's epoch (DeltaChain, DeltaPos). The watermark of chain c is
  /// the slab entry (0 past Len), raised to DeltaPos when c is
  /// DeltaChain. A default ClockRep is the empty clock.
  struct ClockRep {
    uint32_t Offset = 0;
    uint32_t Len = 0;
    uint32_t DeltaChain = 0;
    uint32_t DeltaPos = 0;
  };

  /// One operation's admitted in-edges (sources), in edge order.
  using OpList = InlineVec<OpId, 2>;

  /// Builds the clocks of every operation up to \p Op in id order,
  /// reading operation I's in-edges from Preds[I - 1]. An operation's
  /// in-edges must all be admitted before its clock is built.
  void ensure(OpId Op, const std::vector<OpList> &Preds) {
    while (Reps.size() < Op)
      build(Preds[Reps.size()]);
  }

  /// Operations whose clocks exist: ids 1..built().
  size_t built() const { return Reps.size(); }

  /// A built operation's current clock; a copy is a snapshot.
  const ClockRep &rep(OpId Op) const { return Reps[Op - 1]; }

  ClockEpoch epochOf(OpId Op) const {
    return {rep(Op).DeltaChain, rep(Op).DeltaPos};
  }

  uint32_t watermark(OpId Op, uint32_t Chain) const {
    return watermark(rep(Op), Chain);
  }

  /// True iff the operation holding epoch \p E precedes built \p Op.
  bool ordered(ClockEpoch E, OpId Op) const {
    return watermark(Op, E.Chain) >= E.Pos;
  }

  /// Joins \p Snapshot into built \p Op's clock (the predictive orders'
  /// write-read edge). A no-op when the clock already dominates the
  /// snapshot; otherwise the merge is written as a fresh slab and Op's
  /// rep moves to it, so every earlier snapshot stays valid.
  void join(OpId Op, const ClockRep &Snapshot);

  void reserve(size_t Ops) { Reps.reserve(Ops); }

  size_t numChains() const { return ChainTails.size(); }

  /// Bytes held: the slab pool, the reps and the chain-tail table.
  uint64_t bytes() const {
    return Pool.size() * sizeof(uint32_t) + Reps.size() * sizeof(ClockRep) +
           ChainTails.size() * sizeof(OpId);
  }

  /// Bytes if every built clock were its own std::vector<uint32_t> plus
  /// a (chain, pos) record, with the same chain-tail table.
  uint64_t fullCopyBytes() const;

  /// Built operations that aliased a slab (or needed none).
  uint64_t sharedClocks() const { return Shared; }

  /// Built operations that wrote a merged slab.
  uint64_t merges() const { return Merges; }

private:
  uint32_t watermark(const ClockRep &R, uint32_t Chain) const {
    uint32_t W = Chain < R.Len ? Pool[R.Offset + Chain] : 0;
    return Chain == R.DeltaChain && R.DeltaPos > W ? R.DeltaPos : W;
  }

  /// Chains a clock covers.
  static uint32_t width(const ClockRep &R) {
    return R.Len > R.DeltaChain ? R.Len : R.DeltaChain + 1;
  }

  /// True iff clock \p S is pointwise <= clock \p R.
  bool dominated(const ClockRep &S, const ClockRep &R) const;

  /// Appends a zeroed slab of \p Len watermarks; returns its offset.
  uint32_t newSlab(uint32_t Len);
  /// Max-joins clock \p R into the fresh slab at \p Offset.
  void joinInto(uint32_t Offset, const ClockRep &R);

  void build(const OpList &Preds);

  std::vector<uint32_t> Pool;
  std::vector<ClockRep> Reps;   ///< Indexed Op - 1.
  std::vector<OpId> ChainTails; ///< Last op of each chain.
  uint64_t Shared = 0;
  uint64_t Merges = 0;
};

} // namespace wr

#endif // WEBRACER_HB_CLOCKINDEX_H
