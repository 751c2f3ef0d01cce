//===- hb/ClockIndex.cpp - Chain-decomposed vector clocks ------------------===//

#include "hb/ClockIndex.h"

#include "support/Watermarks.h"

#include <algorithm>

using namespace wr;

bool ClockIndex::dominated(const ClockRep &S, const ClockRep &R) const {
  // S's epoch, then its slab: column R.DeltaChain against R's raised
  // watermark there, every other column as one wide compare against R's
  // slab (zero past R.Len), two watermarks per uint64 step.
  if (S.DeltaPos > watermark(R, S.DeltaChain))
    return false;
  uint32_t Own = R.DeltaChain;
  if (Own < S.Len && Pool[S.Offset + Own] > watermark(R, Own))
    return false;
  auto slabDominated = [&](uint32_t Begin, uint32_t End) {
    if (Begin >= End)
      return true;
    const uint32_t *Theirs = Pool.data() + S.Offset;
    uint32_t Mid = std::min(End, R.Len);
    if (Begin < Mid &&
        !support::watermarksDominated(
            Theirs + Begin, Pool.data() + R.Offset + Begin, Mid - Begin))
      return false;
    uint32_t ZBegin = std::max(Begin, Mid);
    return ZBegin >= End ||
           support::watermarksAllZero(Theirs + ZBegin, End - ZBegin);
  };
  return slabDominated(0, std::min(Own, S.Len)) &&
         slabDominated(std::min(Own + 1, S.Len), S.Len);
}

uint32_t ClockIndex::newSlab(uint32_t Len) {
  uint32_t Offset = static_cast<uint32_t>(Pool.size());
  Pool.resize(Pool.size() + Len, 0);
  return Offset;
}

void ClockIndex::joinInto(uint32_t Offset, const ClockRep &R) {
  // The fresh slab is disjoint from every written one, so the wide
  // join's no-overlap requirement holds.
  support::watermarksJoinMax(Pool.data() + Offset, Pool.data() + R.Offset,
                             R.Len);
  uint32_t &Slot = Pool[Offset + R.DeltaChain];
  Slot = std::max(Slot, R.DeltaPos);
}

void ClockIndex::build(const OpList &Preds) {
  // Clocks are built strictly in id order; in-edges ascend, so every
  // predecessor's clock already exists.
  OpId Op = static_cast<OpId>(Reps.size() + 1);

  // Greedy chain packing: the first in-edge (in edge order) whose source
  // is still its chain's tail donates the chain.
  const ClockRep *Donor = nullptr;
  for (OpId P : Preds) {
    if (ChainTails[Reps[P - 1].DeltaChain] == P) {
      Donor = &Reps[P - 1];
      break;
    }
  }
  ClockRep R;
  if (Donor != nullptr) {
    R = {Donor->Offset, Donor->Len, Donor->DeltaChain, Donor->DeltaPos + 1};
    ChainTails[R.DeltaChain] = Op;
  } else {
    R.DeltaChain = static_cast<uint32_t>(ChainTails.size());
    R.DeltaPos = 1;
    ChainTails.push_back(Op);
  }

  // Copy-on-write: the donor's slab under the new epoch already joins
  // the donor's clock (no watermark on the donated chain can exceed the
  // tail's position, which DeltaPos exceeds by one). It is the whole
  // join when every other in-edge's clock is dominated by it.
  bool Alias = Donor != nullptr || Preds.empty();
  if (Donor != nullptr) {
    for (OpId P : Preds) {
      const ClockRep &PR = Reps[P - 1];
      if (&PR != Donor && !dominated(PR, R)) {
        Alias = false;
        break;
      }
    }
  }

  if (Alias) {
    ++Shared;
  } else {
    ++Merges;
    uint32_t Len = 0;
    for (OpId P : Preds)
      Len = std::max(Len, width(Reps[P - 1]));
    R.Offset = newSlab(Len);
    R.Len = Len;
    for (OpId P : Preds)
      joinInto(R.Offset, Reps[P - 1]);
  }
  Reps.push_back(R);
}

void ClockIndex::join(OpId Op, const ClockRep &Snapshot) {
  ClockRep &R = Reps[Op - 1];
  if (dominated(Snapshot, R))
    return;
  uint32_t Len = std::max(width(R), width(Snapshot));
  uint32_t Offset = newSlab(Len);
  joinInto(Offset, R);
  joinInto(Offset, Snapshot);
  // The epoch stays; only the slab moves. When the snapshot comes from a
  // later operation on Op's own chain, the slab's DeltaChain entry now
  // exceeds DeltaPos, and watermark() reports the raised value.
  R.Offset = Offset;
  R.Len = Len;
}
