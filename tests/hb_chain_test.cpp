//===- tests/hb_chain_test.cpp - chain decomposition invariants --------------===//
//
// The vector-clock index rests on a greedy chain decomposition of the HB
// DAG. These tests pin its structural invariants, which every
// copy-on-write sharing decision in ClockIndex::build relies on:
//
//  * the chains partition the operations (every op in exactly one chain),
//  * positions within each chain are dense and 1-based, so the tail's
//    position is the chain length,
//  * watermarks never decrease along a chain (each link happens-after its
//    predecessor link, so its clock dominates),
//  * the decomposition is a function of the DAG alone: an offline replay
//    of a recorded trace produces the same numChains() as the live run.
//
//===----------------------------------------------------------------------===//

#include "detect/TraceReplay.h"
#include "hb/HbGraph.h"
#include "support/Rng.h"
#include "webracer/Session.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

using namespace wr;

namespace {

Operation op(const char *Label) {
  Operation O;
  O.Kind = OperationKind::ExecuteScript;
  O.Label = Label;
  return O;
}

/// A web-shaped DAG: a dominant chain, forked handler chains that anchor
/// anywhere, and occasional fully concurrent ops.
void buildDag(HbGraph &G, size_t N, uint64_t Seed) {
  Rng R(Seed);
  OpId Tail = G.addOperation(op("root"));
  std::vector<OpId> All = {Tail};
  while (G.numOperations() < N) {
    double P = R.nextDouble();
    if (P < 0.55) {
      OpId Next = G.addOperation(op("chain"));
      G.addEdge(Tail, Next, HbRule::R1a_ParseOrder);
      Tail = Next;
      All.push_back(Next);
    } else if (P < 0.85) {
      OpId From = All[static_cast<size_t>(R.nextBelow(All.size()))];
      OpId Fork = G.addOperation(op("fork"));
      G.addEdge(From, Fork, HbRule::R8_TargetCreated);
      // Merge in a second random predecessor half the time.
      if (R.nextBool()) {
        OpId Other = All[static_cast<size_t>(R.nextBelow(All.size()))];
        if (Other < Fork)
          G.addEdge(Other, Fork, HbRule::R16_SetTimeout);
      }
      All.push_back(Fork);
    } else {
      All.push_back(G.addOperation(op("free")));
    }
  }
}

/// Per-chain op lists ordered by position, after validating that every op
/// sits in exactly one (chain, position) slot.
std::vector<std::vector<OpId>> chainsOf(const HbGraph &G) {
  // chainOf/chainPositionOf build the index lazily, so touch the last op
  // first.
  size_t N = G.numOperations();
  (void)G.chainOf(static_cast<OpId>(N));
  std::vector<std::vector<OpId>> Chains(G.numChains());
  std::map<std::pair<uint32_t, uint32_t>, OpId> Slots;
  for (OpId Op = 1; Op <= N; ++Op) {
    uint32_t Chain = G.chainOf(Op);
    uint32_t Pos = G.chainPositionOf(Op);
    EXPECT_LT(Chain, G.numChains()) << "op " << Op << " in unknown chain";
    EXPECT_GE(Pos, 1u) << "positions are 1-based";
    bool Fresh = Slots.emplace(std::make_pair(Chain, Pos), Op).second;
    EXPECT_TRUE(Fresh) << "ops " << Slots[{Chain, Pos}] << " and " << Op
                       << " share chain " << Chain << " position " << Pos;
    if (Chain < Chains.size()) {
      if (Chains[Chain].size() < Pos)
        Chains[Chain].resize(Pos, InvalidOpId);
      Chains[Chain][Pos - 1] = Op;
    }
  }
  return Chains;
}

TEST(HbChainTest, ChainsPartitionOperations) {
  HbGraph G;
  buildDag(G, 400, 11);
  auto Chains = chainsOf(G);
  size_t Total = 0;
  for (const auto &Chain : Chains)
    Total += Chain.size();
  // Exactly one slot per operation: a partition, no gaps, no overlaps.
  EXPECT_EQ(Total, G.numOperations());
}

TEST(HbChainTest, PositionsDenseAndTailIsLength) {
  HbGraph G;
  buildDag(G, 400, 23);
  for (const auto &Chain : chainsOf(G)) {
    ASSERT_FALSE(Chain.empty()) << "a chain with no operations exists";
    for (size_t I = 0; I < Chain.size(); ++I)
      EXPECT_NE(Chain[I], InvalidOpId)
          << "position " << I + 1 << " of a chain is unoccupied";
    // Dense 1-based positions make the tail's position the length.
    OpId TailOp = Chain.back();
    EXPECT_EQ(G.chainPositionOf(TailOp), Chain.size());
  }
}

TEST(HbChainTest, ChainLinksAreOrdered) {
  // Consecutive chain members must be HB-ordered (chains are paths in the
  // transitive closure, not arbitrary groupings).
  HbGraph G;
  buildDag(G, 300, 37);
  for (const auto &Chain : chainsOf(G))
    for (size_t I = 0; I + 1 < Chain.size(); ++I) {
      EXPECT_TRUE(G.reachesVectorClock(Chain[I], Chain[I + 1]));
      EXPECT_TRUE(G.reachesDfs(Chain[I], Chain[I + 1]));
    }
}

TEST(HbChainTest, WatermarksMonotoneAlongChains) {
  // Walking down a chain, every per-chain watermark is non-decreasing:
  // each link happens-after the previous one, so its clock dominates.
  HbGraph G;
  buildDag(G, 300, 41);
  auto Chains = chainsOf(G);
  uint32_t NumChains = static_cast<uint32_t>(G.numChains());
  for (const auto &Chain : Chains)
    for (size_t I = 0; I + 1 < Chain.size(); ++I)
      for (uint32_t C = 0; C < NumChains; ++C)
        EXPECT_GE(G.clockWatermark(Chain[I + 1], C),
                  G.clockWatermark(Chain[I], C))
            << "watermark of chain " << C << " drops between positions "
            << I + 1 << " and " << I + 2;
}

TEST(HbChainTest, OwnWatermarkIsOwnPosition) {
  HbGraph G;
  buildDag(G, 200, 53);
  for (OpId Op = 1; Op <= G.numOperations(); ++Op)
    EXPECT_EQ(G.clockWatermark(Op, G.chainOf(Op)), G.chainPositionOf(Op));
}

TEST(HbChainTest, NumChainsStableAcrossRecordReplay) {
  // Record the Fig. 1 session, round-trip the trace through the binary
  // format, replay offline: the reconstructed DAG must decompose into
  // exactly the same number of chains the live run reported.
  webracer::SessionOptions Opts;
  Opts.RecordTrace = true;
  webracer::Session S(Opts);
  S.network().addResource("index.html",
                          "<script>x = 1;</script>"
                          "<iframe src=\"a.html\"></iframe>"
                          "<iframe src=\"b.html\"></iframe>",
                          10);
  S.network().addResource("a.html", "<script>x = 2;</script>", 1000);
  S.network().addResource("b.html", "<script>alert(x);</script>", 2000);
  webracer::SessionResult Live = S.run("index.html");
  ASSERT_NE(S.trace(), nullptr);

  TraceLog Decoded;
  ASSERT_TRUE(TraceLog::deserialize(S.trace()->serialize(), Decoded));
  detect::ReplayResult Offline = detect::replayTrace(Decoded);

  EXPECT_GT(Live.Stats.VcChains, 0u);
  EXPECT_EQ(Offline.Stats.VcChains, Live.Stats.VcChains);
  EXPECT_EQ(Offline.Hb.numChains(), Live.Stats.VcChains);
  // And the chain assignment itself matches op for op, not just the count.
  const HbGraph &LiveHb = S.browser().hb();
  ASSERT_EQ(Offline.Hb.numOperations(), LiveHb.numOperations());
  for (OpId Op = 1; Op <= LiveHb.numOperations(); ++Op) {
    EXPECT_EQ(Offline.Hb.chainOf(Op), LiveHb.chainOf(Op));
    EXPECT_EQ(Offline.Hb.chainPositionOf(Op), LiveHb.chainPositionOf(Op));
  }
}

} // namespace
