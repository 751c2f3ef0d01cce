//===- sample/Sampling.cpp - Access-stream sampling layer ----------------------===//

#include "sample/Sampling.h"

using namespace wr;
using namespace wr::sample;

namespace {

/// splitmix64 finalizer: the stateless hash behind the per-location
/// decision (the same mixer Rng::reseed uses).
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

} // namespace

bool AccessSampler::shouldSample(const Access &A) {
  // 53-bit mantissa mapping of the hash onto [0, 1), exactly
  // Rng::nextDouble's, so rate 0.0 drops every location.
  uint64_t H = mix64(Opts.Seed ^ (0x1000193ull * A.Loc));
  bool Keep = static_cast<double>(H >> 11) * 0x1.0p-53 < Opts.Rate;
  bool IsRead = A.Kind == AccessKind::Read;
  (IsRead ? Counters.SeenReads : Counters.SeenWrites) += 1;
  if (Keep)
    (IsRead ? Counters.SampledReads : Counters.SampledWrites) += 1;
  else
    (IsRead ? Counters.DroppedReads : Counters.DroppedWrites) += 1;
  return Keep;
}
