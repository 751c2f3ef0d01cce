//===- runtime/Network.h - Simulated network --------------------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A network simulator: resources are registered under URLs with either a
/// fixed latency or a seeded random latency range. Fetch completions are
/// delivered as event-loop tasks, which is the primary source of the
/// nondeterministic orderings that cause web races (Sec. 2.1: "variation
/// in network bandwidth").
///
/// The replay-based harmfulness classifier perturbs schedules through
/// latency overrides, flipping the arrival order of targeted resources.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_RUNTIME_NETWORK_H
#define WEBRACER_RUNTIME_NETWORK_H

#include "runtime/EventLoop.h"
#include "support/Rng.h"

#include <functional>
#include <string>
#include <unordered_map>

namespace wr::rt {

/// Outcome of a fetch.
struct FetchResult {
  bool Ok = false;
  std::string Body;
  std::string Url;
};

/// The simulated network.
class NetworkSimulator {
public:
  NetworkSimulator(EventLoop &Loop, uint64_t Seed)
      : Loop(Loop), LatencyRng(Seed) {}

  /// Registers a resource with a fixed latency (microseconds).
  void addResource(std::string Url, std::string Body,
                   VirtualTime Latency = 1000);

  /// Registers a resource whose latency is sampled uniformly from
  /// [MinLatency, MaxLatency] at each fetch.
  void addResourceWithJitter(std::string Url, std::string Body,
                             VirtualTime MinLatency, VirtualTime MaxLatency);

  bool hasResource(const std::string &Url) const;

  /// Starts an asynchronous fetch; \p Done runs as an event-loop task
  /// after the resource's latency (or after ErrorLatency for a missing
  /// resource, with Ok=false).
  void fetch(const std::string &Url,
             std::function<void(const FetchResult &)> Done);

  /// Forces the next fetches of \p Url to complete with latency \p L.
  /// Used by the schedule explorer; cleared by clearOverrides().
  void overrideLatency(const std::string &Url, VirtualTime L);
  void clearOverrides();

  /// Number of fetches issued.
  uint64_t fetchCount() const { return Fetches; }

private:
  struct Resource {
    std::string Body;
    VirtualTime MinLatency = 1000;
    VirtualTime MaxLatency = 1000;
  };

  VirtualTime latencyFor(const std::string &Url, const Resource *R);

  EventLoop &Loop;
  Rng LatencyRng;
  std::unordered_map<std::string, Resource> Resources;
  std::unordered_map<std::string, VirtualTime> Overrides;
  VirtualTime ErrorLatency = 500;
  uint64_t Fetches = 0;
};

} // namespace wr::rt

#endif // WEBRACER_RUNTIME_NETWORK_H
