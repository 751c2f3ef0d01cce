//===- runtime/Network.cpp - Simulated network -------------------------------===//

#include "runtime/Network.h"

using namespace wr;
using namespace wr::rt;

void NetworkSimulator::addResource(std::string Url, std::string Body,
                                   VirtualTime Latency) {
  Resources[std::move(Url)] = Resource{std::move(Body), Latency, Latency};
}

void NetworkSimulator::addResourceWithJitter(std::string Url,
                                             std::string Body,
                                             VirtualTime MinLatency,
                                             VirtualTime MaxLatency) {
  if (MaxLatency < MinLatency)
    MaxLatency = MinLatency;
  Resources[std::move(Url)] =
      Resource{std::move(Body), MinLatency, MaxLatency};
}

bool NetworkSimulator::hasResource(const std::string &Url) const {
  return Resources.count(Url) != 0;
}

VirtualTime NetworkSimulator::latencyFor(const std::string &Url,
                                         const Resource *R) {
  auto Ov = Overrides.find(Url);
  if (Ov != Overrides.end())
    return Ov->second;
  if (!R)
    return ErrorLatency;
  if (R->MinLatency == R->MaxLatency)
    return R->MinLatency;
  return static_cast<VirtualTime>(LatencyRng.nextInRange(
      static_cast<int64_t>(R->MinLatency),
      static_cast<int64_t>(R->MaxLatency)));
}

void NetworkSimulator::fetch(const std::string &Url,
                             std::function<void(const FetchResult &)> Done) {
  ++Fetches;
  auto It = Resources.find(Url);
  const Resource *R = It == Resources.end() ? nullptr : &It->second;
  FetchResult Result;
  Result.Url = Url;
  if (R) {
    Result.Ok = true;
    Result.Body = R->Body;
  }
  VirtualTime L = latencyFor(Url, R);
  Loop.scheduleAfter(L, [Done = std::move(Done),
                         Result = std::move(Result)]() { Done(Result); });
}

void NetworkSimulator::overrideLatency(const std::string &Url,
                                       VirtualTime L) {
  Overrides[Url] = L;
}

void NetworkSimulator::clearOverrides() { Overrides.clear(); }
