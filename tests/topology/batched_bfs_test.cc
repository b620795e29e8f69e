// Differential property test for the batched BFS kernel: on every graph
// family the evaluator meets (seeded PLOD, complete, degenerate), the
// bit-parallel kernel must produce bit-identical per-level output to the
// scalar reference kernel, and both must agree exactly with the
// single-source flood depths of FloodBfs — including batch-remainder
// sizes (N % 64 != 0), duplicate sources, and scratch reuse.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"
#include "sppnet/topology/bfs.h"
#include "sppnet/topology/plod.h"

namespace sppnet {
namespace {

Graph MakePath(std::size_t n) {
  GraphBuilder builder(n);
  for (NodeId u = 0; u + 1 < n; ++u) builder.AddEdge(u, u + 1);
  return builder.Build();
}

Graph MakeComplete(std::size_t n) {
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) builder.AddEdge(u, v);
  }
  return builder.Build();
}

Graph MakeStar(std::size_t n) {
  GraphBuilder builder(n);
  for (NodeId u = 1; u < n; ++u) builder.AddEdge(0, u);
  return builder.Build();
}

/// Two disjoint paths plus trailing isolated nodes.
Graph MakeDisconnected(std::size_t n) {
  GraphBuilder builder(n);
  const std::size_t half = n / 2;
  for (NodeId u = 0; u + 1 < half; ++u) builder.AddEdge(u, u + 1);
  for (NodeId u = static_cast<NodeId>(half);
       u + 2 < n; ++u) {
    builder.AddEdge(u, u + 1);
  }
  return builder.Build();
}

Graph MakeSingleEdge() {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1);
  return builder.Build();
}

Graph MakePlod(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  PlodParams params;
  params.target_avg_degree = 3.1;
  return GeneratePlod(n, params, rng);
}

/// Runs both kernels on the same batch and requires bit-identical levels.
void ExpectKernelsIdentical(const Graph& graph,
                            std::span<const NodeId> sources, int max_depth,
                            BatchedBfs& a, BatchedBfs& b) {
  a.Run(graph, sources, max_depth, BatchedBfs::Kernel::kBitParallel);
  b.Run(graph, sources, max_depth, BatchedBfs::Kernel::kScalarReference);
  ASSERT_EQ(a.num_levels(), b.num_levels());
  for (int d = 0; d < a.num_levels(); ++d) {
    const auto la = a.Level(d);
    const auto lb = b.Level(d);
    ASSERT_EQ(la.size(), lb.size()) << "level " << d;
    for (std::size_t i = 0; i < la.size(); ++i) {
      ASSERT_EQ(la[i].node, lb[i].node) << "level " << d << " entry " << i;
      ASSERT_EQ(la[i].word, lb[i].word) << "level " << d << " entry " << i;
    }
  }
}

/// Sweeps every source of `graph` in natural 64-wide batches (the last
/// one a remainder unless n % 64 == 0) and checks, for every source,
/// that both kernels agree with each other and with FloodBfs depths.
void ExpectMatchesScalarFlood(Graph graph, int ttl) {
  const std::size_t n = graph.num_nodes();
  BatchedBfs bit_parallel;
  BatchedBfs reference;
  const Topology topo = Topology::FromGraph(std::move(graph));
  const Graph& g = topo.graph();
  FloodScratch scratch;
  for (std::size_t begin = 0; begin < n; begin += kBfsWordBits) {
    std::vector<NodeId> sources;
    for (std::size_t s = begin; s < std::min(n, begin + kBfsWordBits); ++s) {
      sources.push_back(static_cast<NodeId>(s));
    }
    ExpectKernelsIdentical(g, sources, ttl, bit_parallel, reference);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      FloodBfs(topo, sources[i], ttl, scratch);
      for (NodeId u = 0; u < n; ++u) {
        const int expected = scratch.Visited(u) ? scratch.Depth(u) : -1;
        ASSERT_EQ(bit_parallel.Depth(i, u), expected)
            << "source " << sources[i] << " node " << u;
      }
    }
  }
}

TEST(BatchedBfsTest, PlodMatchesScalarFloodEverySource) {
  ExpectMatchesScalarFlood(MakePlod(300, 12345), 7);
}

TEST(BatchedBfsTest, LargePlodSparseAndDenseLevels) {
  // At N = 10^5 the early levels of an 8-source batch hold fewer than
  // one new node per 16 bitmap words and are ordered by sorting; the
  // later ones by the bitmap pass.
  const Graph graph = MakePlod(100000, 4321);
  std::vector<NodeId> sources;
  for (NodeId s = 0; s < 8; ++s) sources.push_back(s * 12345);
  BatchedBfs a;
  BatchedBfs b;
  ExpectKernelsIdentical(graph, sources, 7, a, b);
  EXPECT_LT(a.Level(1).size() * 16, WordsForBits(graph.num_nodes()));
  EXPECT_GE(a.Level(a.num_levels() - 1).size() * 16,
            WordsForBits(graph.num_nodes()));
}

TEST(SortUniqueNodesTest, SparseAndDenseInputsSortAndDeduplicate) {
  const std::size_t n = 5000;  // 79 bitmap words.
  std::vector<std::uint64_t> bitmap;
  Rng rng(17);
  for (const std::size_t count : {0u, 1u, 4u, 5u, 100u, 3000u, 20000u}) {
    SCOPED_TRACE(testing::Message() << count << " ids");
    std::vector<NodeId> nodes;
    for (std::size_t i = 0; i < count; ++i) {
      nodes.push_back(static_cast<NodeId>(rng.NextBounded(n)));
    }
    std::vector<NodeId> expected = nodes;
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    SortUniqueNodes(nodes, n, bitmap);
    EXPECT_EQ(nodes, expected);
    EXPECT_TRUE(std::all_of(bitmap.begin(), bitmap.end(),
                            [](std::uint64_t w) { return w == 0; }));
  }
  std::vector<NodeId> ends = {static_cast<NodeId>(n - 1), 0,
                              static_cast<NodeId>(n - 1), 64, 63};
  ends.resize(100, 0);  // Dense enough for the bitmap pass.
  SortUniqueNodes(ends, n, bitmap);
  EXPECT_EQ(ends, (std::vector<NodeId>{0, 63, 64, static_cast<NodeId>(n - 1)}));
}

TEST(BatchedBfsTest, PlodRemainderBatch) {
  // 130 % 64 = 2: exercises a 2-source remainder batch.
  ExpectMatchesScalarFlood(MakePlod(130, 999), 4);
}

TEST(BatchedBfsTest, PlodShortTtl) {
  ExpectMatchesScalarFlood(MakePlod(200, 77), 1);
}

TEST(BatchedBfsTest, CompleteGraph) {
  ExpectMatchesScalarFlood(MakeComplete(70), 3);
}

TEST(BatchedBfsTest, PathGraph) { ExpectMatchesScalarFlood(MakePath(90), 5); }

TEST(BatchedBfsTest, StarGraph) { ExpectMatchesScalarFlood(MakeStar(67), 7); }

TEST(BatchedBfsTest, SingleEdge) {
  ExpectMatchesScalarFlood(MakeSingleEdge(), 7);
}

TEST(BatchedBfsTest, DisconnectedWithIsolatedNodes) {
  ExpectMatchesScalarFlood(MakeDisconnected(75), 6);
}

TEST(BatchedBfsTest, IsolatedOnlyGraph) {
  ExpectMatchesScalarFlood(Graph(10), 7);
}

TEST(BatchedBfsTest, ZeroTtlIsLevelZeroOnly) {
  const Graph g = MakePlod(100, 5);
  BatchedBfs bfs;
  const std::vector<NodeId> sources = {0, 1, 2, 3};
  bfs.Run(g, sources, 0);
  ASSERT_EQ(bfs.num_levels(), 1);
  EXPECT_EQ(bfs.Level(0).size(), 4u);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(bfs.Depth(i, sources[i]), 0);
    EXPECT_EQ(bfs.Depth(i, 50), -1);
  }
}

TEST(BatchedBfsTest, DuplicateSourcesFloodIndependently) {
  const Graph g = MakePath(10);
  BatchedBfs bit_parallel;
  BatchedBfs reference;
  const std::vector<NodeId> sources = {3, 3, 7};
  ExpectKernelsIdentical(g, sources, 4, bit_parallel, reference);
  ASSERT_EQ(bit_parallel.Level(0).size(), 2u);  // Two distinct nodes.
  EXPECT_EQ(bit_parallel.Level(0)[0].node, 3u);
  EXPECT_EQ(bit_parallel.Level(0)[0].word, 0b011u);  // Bits 0 and 1.
  EXPECT_EQ(bit_parallel.Depth(0, 0), 3);
  EXPECT_EQ(bit_parallel.Depth(1, 0), 3);
  EXPECT_EQ(bit_parallel.Depth(2, 9), 2);
}

TEST(BatchedBfsTest, ScratchReuseAcrossGraphSizes) {
  // The same BatchedBfs instances, reused across runs on different
  // graphs (including a size change and a re-run on the first graph),
  // must not leak state between runs.
  const Graph a = MakePlod(150, 42);
  const Graph b = MakeComplete(40);
  BatchedBfs bit_parallel;
  BatchedBfs reference;
  const std::vector<NodeId> batch_a = {0, 5, 9, 149, 64};
  const std::vector<NodeId> batch_b = {1, 2, 3};
  for (int round = 0; round < 3; ++round) {
    ExpectKernelsIdentical(a, batch_a, 6, bit_parallel, reference);
    ExpectKernelsIdentical(b, batch_b, 2, bit_parallel, reference);
  }
}

}  // namespace
}  // namespace sppnet
