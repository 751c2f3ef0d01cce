//===- support/WorkerPool.h - Index-claiming thread pool --------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one thread pool of the corpus runner and batch ingest. Workers
/// claim item indices through an atomic counter, and each item writes
/// only its own pre-sized result slot, so results land in input order and
/// are identical at every job count.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_SUPPORT_WORKERPOOL_H
#define WEBRACER_SUPPORT_WORKERPOOL_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace wr::support {

/// Calls \p Body(I) once for every I in [0, \p Count) on \p Jobs threads:
/// 0 means the hardware concurrency, and never more threads than items.
/// One job runs every item on the calling thread, in order. \p Body may
/// write only state owned by item I.
template <typename Fn>
void forEachIndex(size_t Count, unsigned Jobs, Fn &&Body) {
  if (Jobs == 0)
    Jobs = std::max(1u, std::thread::hardware_concurrency());
  Jobs = static_cast<unsigned>(
      std::min<size_t>(Jobs, std::max<size_t>(Count, 1)));
  if (Jobs == 1) {
    for (size_t I = 0; I < Count; ++I)
      Body(I);
    return;
  }
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I = Next.fetch_add(1, std::memory_order_relaxed); I < Count;
         I = Next.fetch_add(1, std::memory_order_relaxed))
      Body(I);
  };
  std::vector<std::thread> Pool;
  Pool.reserve(Jobs);
  for (unsigned T = 0; T < Jobs; ++T)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
}

} // namespace wr::support

#endif // WEBRACER_SUPPORT_WORKERPOOL_H
