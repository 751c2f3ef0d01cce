//===- bench/perf/SynthWorkload.cpp - large synthetic trace workload ----------===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// synth: decode and replay one large synthetic trace with planted races.
// Its clocks are wide (the 512 chains plus one per planted op, where the
// corpus median is 20) and its access stream is write-heavy, so clock
// representation, watermark kernels and the decoder show here.
//
// Shape, all drawn from the seed:
//   - 50,000 ops, each on one of 512 logical chains, with a program-order
//     edge from its chain's tail and, with p = 0.3, a join edge from one
//     of the 64 most recent chain ops;
//   - 128 evenly spaced planted ops with no edges in or out;
//   - 3 accesses per chain op: with p = 0.6 a write to one of its chain's
//     8 private locations, else a read of one of 1,024 shared locations
//     that nobody writes;
//   - planted location i is written by planted op i and by the next chain
//     op. Those writes are the only unordered conflicting pair, so the raw
//     races are exactly the 128 planted locations, each write-write.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "detect/TraceReplay.h"
#include "support/Rng.h"

#include <set>
#include <stdexcept>

using namespace wr;
using namespace perf;

namespace {

constexpr uint32_t NumOps = 50'000;
constexpr uint32_t NumChains = 512;
constexpr uint32_t NumPlanted = 128;
constexpr uint32_t JoinWindow = 64;
constexpr double JoinP = 0.3;
constexpr uint32_t AccessesPerOp = 3;
constexpr double WriteP = 0.6;
constexpr uint32_t PrivatePerChain = 8;
constexpr uint32_t SharedLocations = 1024;

/// Feeds the trace through TraceLog's sink interface, the way a browser
/// records, interning locations on first use.
class TraceWriter {
public:
  explicit TraceWriter(TraceLog &Log) : Log(Log) {}

  OpId newOp() {
    OpId Id = ++LastOp;
    Operation Meta;
    Meta.Kind = OperationKind::ExecuteScript;
    Log.onOperationCreated(Id, Meta);
    return Id;
  }
  void edge(OpId From, OpId To, HbRule Rule) { Log.onHbEdge(From, To, Rule); }
  void access(OpId Op, AccessKind Kind, ContainerId Container,
              const std::string &Name) {
    size_t Before = Interner.size();
    LocId Loc = Interner.internVar(Container, Name);
    if (Interner.size() != Before)
      Log.onLocationInterned(Loc, Interner.resolve(Loc));
    Access A;
    A.Kind = Kind;
    A.Op = Op;
    A.Loc = Loc;
    Log.onMemoryAccess(A);
  }

private:
  TraceLog &Log;
  LocationInterner Interner;
  OpId LastOp = InvalidOpId;
};

std::string plantedName(uint32_t I) { return "planted" + std::to_string(I); }

class SynthWorkload final : public Workload {
public:
  void setup(uint64_t Seed, bool InjectFault, Tracer &) override {
    TraceLog Log;
    TraceWriter W(Log);
    Rng R(Seed);
    std::vector<OpId> Tails(NumChains, InvalidOpId);
    std::vector<OpId> Recent;
    uint32_t NextPlanted = 0;
    int PendingPlanted = -1;
    for (uint32_t I = 0; I < NumOps; ++I) {
      if (NextPlanted < NumPlanted &&
          I == (2 * NextPlanted + 1) * NumOps / (2 * NumPlanted)) {
        OpId Op = W.newOp();
        // The self-test fault: the first planted write becomes a read.
        AccessKind Kind = InjectFault && NextPlanted == 0 ? AccessKind::Read
                                                          : AccessKind::Write;
        std::string Name = plantedName(NextPlanted);
        W.access(Op, Kind, 0, Name);
        Expected.insert(toString(Location(JSVarLoc{0, Name})));
        PendingPlanted = static_cast<int>(NextPlanted++);
        continue;
      }
      uint32_t Chain = static_cast<uint32_t>(R.nextBelow(NumChains));
      OpId Op = W.newOp();
      if (Tails[Chain] != InvalidOpId)
        W.edge(Tails[Chain], Op, HbRule::RProgram);
      if (!Recent.empty() && R.nextBool(JoinP)) {
        OpId From = Recent[R.nextBelow(Recent.size())];
        if (From != Tails[Chain])
          W.edge(From, Op, HbRule::R16_SetTimeout);
      }
      Tails[Chain] = Op;
      if (Recent.size() == JoinWindow)
        Recent.erase(Recent.begin());
      Recent.push_back(Op);
      for (uint32_t A = 0; A < AccessesPerOp; ++A) {
        if (R.nextBool(WriteP))
          W.access(Op, AccessKind::Write, Chain + 1,
                   "p" + std::to_string(R.nextBelow(PrivatePerChain)));
        else
          W.access(Op, AccessKind::Read, 0,
                   "s" + std::to_string(R.nextBelow(SharedLocations)));
      }
      if (PendingPlanted >= 0) {
        W.access(Op, AccessKind::Write, 0,
                 plantedName(static_cast<uint32_t>(PendingPlanted)));
        PendingPlanted = -1;
      }
    }
    Bytes = Log.serialize();
    Events = Log.size();
  }

  PassResult pass(Tracer *T) override {
    PassResult R;
    TraceLog Log;
    Clock::time_point Start = Clock::now();
    {
      Span Sp(T, "instr.decode_ms");
      if (!TraceLog::deserialize(Bytes, Log))
        throw std::runtime_error("synthetic trace failed to decode");
    }
    R.BareSec = secondsSince(Start);
    detect::ReplayResult Replay;
    {
      Span Sp(T, "detect.replay_ms");
      Replay = detect::replayTrace(Log);
    }
    R.AnalysedSec = secondsSince(Start);
    R.ItemMs.push_back(R.AnalysedSec * 1e3);

    if (T) {
      {
        // Building every clock: the lazy index materializes clocks in id
        // order up to the queried op.
        Span Sp(T, "hb.build_ms", /*Probe=*/true);
        HbGraph Hb = detect::buildHbGraphFromTrace(Log);
        OpId Last = static_cast<OpId>(Hb.numOperations());
        (void)Hb.ordering(1, Last);
      }
      T->derive("detect.access_ms",
                T->ms("detect.replay_ms") - T->ms("hb.build_ms"));
    }

    std::set<std::string> Found;
    bool AllWriteWrite = true;
    for (const detect::Race &Race : Replay.RawRaces) {
      Found.insert(toString(Race.Loc));
      AllWriteWrite &= Race.First.Kind == AccessKind::Write &&
                       Race.Second.Kind == AccessKind::Write;
    }
    R.check(Found == Expected && AllWriteWrite &&
            Replay.RawRaces.size() == Expected.size());
    R.Ops = Replay.Stats.Operations;
    R.Accesses = Replay.Stats.AccessesSeen;
    R.countRunStats(Replay.Stats, Replay.Stats.VcChains);
    R.count("instr.trace_bytes", static_cast<double>(Bytes.size()));
    R.count("instr.trace_events", static_cast<double>(Events));
    return R;
  }

private:
  std::string Bytes;
  size_t Events = 0;
  std::set<std::string> Expected;
};

} // namespace

std::unique_ptr<Workload> perf::makeSynthWorkload() {
  return std::make_unique<SynthWorkload>();
}
