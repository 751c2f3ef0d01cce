//===- sample/Sampling.cpp - Access-stream sampling layer ----------------------===//

#include "sample/Sampling.h"

#include <cstring>

using namespace wr;
using namespace wr::sample;

const char *wr::sample::toString(SamplingStrategy S) {
  switch (S) {
  case SamplingStrategy::PerLocation:
    return "per-location";
  case SamplingStrategy::PerPair:
    return "per-pair";
  case SamplingStrategy::Adaptive:
    return "adaptive";
  }
  return "unknown";
}

bool wr::sample::parseSamplingStrategy(const char *Name,
                                       SamplingStrategy &Out) {
  if (std::strcmp(Name, "per-location") == 0) {
    Out = SamplingStrategy::PerLocation;
    return true;
  }
  if (std::strcmp(Name, "per-pair") == 0) {
    Out = SamplingStrategy::PerPair;
    return true;
  }
  if (std::strcmp(Name, "adaptive") == 0) {
    Out = SamplingStrategy::Adaptive;
    return true;
  }
  return false;
}

namespace {

/// splitmix64 finalizer: the stateless hash behind the per-location and
/// per-pair decisions (the same mixer Rng::reseed uses, so hash quality
/// matches the stream).
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

} // namespace

AccessSampler::AccessSampler(const SamplingOptions &Opts)
    // fork() the seeded generator rather than using it directly, so the
    // sampler's stream is decorrelated from any other consumer of the
    // same seed (the browser seeds its subsystems the same way).
    : Opts(Opts), Stream(Rng(Opts.Seed).fork()) {}

bool AccessSampler::hashPasses(uint64_t H) const {
  // 53-bit mantissa mapping onto [0, 1), exactly Rng::nextDouble's.
  return static_cast<double>(H >> 11) * 0x1.0p-53 < Opts.Rate;
}

AccessSampler::LocHeat &AccessSampler::heat(LocId Id) {
  if (Id >= Heat.size())
    Heat.resize(Id + 1);
  return Heat[Id];
}

void AccessSampler::markHot(LocId Loc) {
  LocHeat &H = heat(Loc);
  H.Budget = Opts.HotBudget;
  if (!H.EverHot) {
    H.EverHot = true;
    ++Counters.HotLocations;
  }
}

bool AccessSampler::decide(const Access &A, OpId PriorWriteOp,
                           ClockEpoch PriorWriteEpoch, ClockEpoch CurEpoch) {
  switch (Opts.Strategy) {
  case SamplingStrategy::PerLocation: {
    // One hash per location: the whole location is in or out, so a kept
    // location's slot history is exactly the unsampled one.
    if (!hashPasses(mix64(Opts.Seed ^ (0x1000193ull * A.Loc))))
      return false;
    ++Counters.LocationPass;
    return true;
  }
  case SamplingStrategy::PerPair: {
    // No prior writer stored: nothing to pair against; the access must
    // pass or no slot ever fills and no pair ever forms.
    if (PriorWriteOp == InvalidOpId) {
      ++Counters.PairPass;
      return true;
    }
    // Key the pair on clock epochs (stable across OpId numbering).
    if (!hashPasses(mix64(mix64(Opts.Seed ^ PriorWriteEpoch.packed()) ^
                          CurEpoch.packed())))
      return false;
    ++Counters.PairPass;
    return true;
  }
  case SamplingStrategy::Adaptive: {
    LocHeat &H = heat(A.Loc);
    if (H.Seen < Opts.ColdAccesses) {
      ++H.Seen;
      ++Counters.ColdPass;
      return true;
    }
    if (H.Budget > 0) {
      --H.Budget;
      ++Counters.HotPass;
      return true;
    }
    if (Stream.nextDouble() < Opts.Rate) {
      ++Counters.RngPass;
      return true;
    }
    return false;
  }
  }
  return true;
}

bool AccessSampler::shouldSample(const Access &A, OpId PriorWriteOp,
                                 ClockEpoch PriorWriteEpoch,
                                 ClockEpoch CurEpoch) {
  bool IsRead = A.Kind == AccessKind::Read;
  (IsRead ? Counters.SeenReads : Counters.SeenWrites) += 1;
  bool Keep = decide(A, PriorWriteOp, PriorWriteEpoch, CurEpoch);
  if (Keep)
    (IsRead ? Counters.SampledReads : Counters.SampledWrites) += 1;
  else
    (IsRead ? Counters.DroppedReads : Counters.DroppedWrites) += 1;
  return Keep;
}

uint64_t AccessSampler::samplerBytes() const {
  return Heat.capacity() * sizeof(LocHeat);
}
