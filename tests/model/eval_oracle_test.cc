// The batched evaluator against an independent oracle: one plain
// FloodBfs per source (topology/bfs.h), which simulates the Gnutella
// flood message by message and shares no code with the evaluator's
// level-word accumulation. Reach is an integer and must match exactly;
// the duplicate rate, results and path lengths are sums of doubles
// taken in a different order, so they match to 1e-12 relative.
//
// The hand-built tie graph pins the canonical predecessor rule: a node
// with two neighbors one level closer to the source sends its response
// to the lower-id one, even where FloodBfs's queue order would have
// reached it through the other first.

#include <cstdint>
#include <ostream>
#include <utility>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"
#include "sppnet/model/evaluator.h"
#include "sppnet/model/instance.h"
#include "sppnet/topology/bfs.h"
#include "sppnet/topology/graph.h"

namespace sppnet {
namespace {

struct OracleCase {
  std::size_t graph_size;
  double cluster_size;
  int redundancy_k;
  int ttl;
  double outdegree;
  std::uint64_t seed;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << "N=" << c.graph_size << " cluster=" << c.cluster_size
      << " k=" << c.redundancy_k << " ttl=" << c.ttl
      << " outdeg=" << c.outdegree << " seed=" << c.seed;
}

class EvalOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(EvalOracleTest, MatchesPerSourceFloodBfs) {
  const OracleCase param = GetParam();
  Configuration config;
  config.graph_type = GraphType::kPowerLaw;
  config.graph_size = param.graph_size;
  config.cluster_size = param.cluster_size;
  config.redundancy_k = param.redundancy_k;
  config.ttl = param.ttl;
  config.avg_outdegree = param.outdegree;
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(param.seed);
  const NetworkInstance inst = GenerateInstance(config, inputs, rng);
  ASSERT_FALSE(inst.topology.is_complete());
  const InstanceLoads loads = EvaluateInstance(inst, config, inputs);

  const std::size_t n = inst.NumClusters();
  ASSERT_EQ(loads.reach_per_source.size(), n);
  FloodScratch scratch;
  double duplicates = 0.0;
  std::uint64_t total_duplicates = 0;
  for (std::size_t s = 0; s < n; ++s) {
    SCOPED_TRACE(testing::Message() << "source " << s);
    const FloodStats stats =
        FloodBfs(inst.topology, static_cast<NodeId>(s), config.ttl, scratch);
    EXPECT_EQ(loads.reach_per_source[s], static_cast<double>(stats.reached));
    const double w =
        static_cast<double>(inst.ClusterUsers(s)) * config.query_rate;
    duplicates += w * stats.duplicates;
    total_duplicates += static_cast<std::uint64_t>(stats.duplicates);

    // Results sum over every reached cluster, whatever the tree; the
    // response-weighted path length uses the flood depths.
    double results = 0.0, epl_num = 0.0, epl_den = 0.0;
    for (const NodeId u : scratch.order()) {
      results += inst.expected_results[u];
      if (u == s) continue;
      epl_num += inst.response_prob[u] * scratch.Depth(u);
      epl_den += inst.response_prob[u];
    }
    EXPECT_NEAR(loads.results_per_query[s], results, 1e-12 * results);
    const double epl = epl_den > 0.0 ? epl_num / epl_den : 0.0;
    EXPECT_NEAR(loads.epl_per_source[s], epl, 1e-12 * epl);
  }
  if (config.ttl >= 2) {
    EXPECT_GT(total_duplicates, 0u);
  }
  EXPECT_NEAR(loads.duplicate_msgs_per_sec, duplicates, 1e-12 * duplicates);
}

INSTANTIATE_TEST_SUITE_P(
    PlodGraphs, EvalOracleTest,
    ::testing::Values(
        // Pure super-peer network at the Gnutella TTL.
        OracleCase{1000, 1, 1, 7, 3.1, 21},
        // Remainder batch, multi-client clusters.
        OracleCase{5000, 10, 1, 4, 3.1, 22},
        // 2-redundant partners weight every source by k more users.
        OracleCase{3000, 10, 2, 5, 3.1, 23},
        // TTL 1: no duplicates; TTL 2 on a dense overlay: many.
        OracleCase{2000, 5, 1, 1, 3.1, 24},
        OracleCase{6000, 20, 1, 2, 20.0, 25},
        // More than 2^16 clusters: 32-bit reach entries.
        OracleCase{70000, 1, 1, 2, 3.1, 26}));

/// Six clusters of one super-peer each on two paths from 0 to 5,
///
///   0 - 1 - 4 - 5
///   0 - 2 - 3 - 5
///
/// a graph symmetric under swapping 1 <-> 2 and 3 <-> 4.
/// From source 0, node 5 sits at depth 3 with two depth-2 neighbors, 3
/// and 4; the canonical parent is 3, the lower id. (FloodBfs, which
/// dequeues 4 before 3, records 4.) Only node 5 holds results, so every
/// load difference between the mirror images 3/4 and 2/1 comes from
/// where source 0's copy of node 5's response travels.
TEST(EvalOracleTieTest, ResponseFollowsLowerIdParent) {
  GraphBuilder builder(6);
  for (const auto& [u, v] : {std::pair<NodeId, NodeId>{0, 1},
                             {0, 2},
                             {1, 4},
                             {2, 3},
                             {3, 5},
                             {4, 5}}) {
    builder.AddEdge(u, v);
  }
  NetworkInstance inst;
  inst.topology = Topology::FromGraph(builder.Build());
  inst.redundancy_k = 1;
  inst.partner_files.assign(6, 100);
  inst.partner_lifespan.assign(6, 3600.0);
  inst.client_offset.assign(7, 0);
  inst.indexed_files.assign(6, 100.0);
  inst.expected_results.assign(6, 0.0);
  inst.expected_addrs.assign(6, 0.0);
  inst.response_prob.assign(6, 0.0);
  inst.expected_results[5] = 3.0;
  inst.expected_addrs[5] = 2.0;
  inst.response_prob[5] = 0.5;

  Configuration config;
  config.graph_type = GraphType::kPowerLaw;
  config.graph_size = 6;
  config.cluster_size = 1;
  config.ttl = 3;
  const ModelInputs inputs = ModelInputs::Default();

  FloodScratch scratch;
  FloodBfs(inst.topology, 0, config.ttl, scratch);
  ASSERT_EQ(scratch.Depth(5), 3);
  ASSERT_EQ(scratch.Parent(5), 4u);

  const CostTable& costs = inputs.costs;
  // Source 0's queries/sec (one user) times the bytes of node 5's
  // response bundle.
  const double bundle_bps = BytesPerSecToBps(
      config.query_rate * (costs.response_base_bytes * 0.5 +
                           costs.response_per_addr_bytes * 2.0 +
                           costs.response_per_result_bytes * 3.0));
  ASSERT_GT(bundle_bps, 0.0);

  const InstanceLoads loads = EvaluateInstance(inst, config, inputs);
  const auto& p = loads.partner_load;
  const double tol = 1e-9 * bundle_bps;
  // 3 receives the bundle from 5 and forwards it to 2, which forwards it
  // to the source; their mirror images 4 and 1 carry nothing.
  EXPECT_NEAR(p[3].in_bps - p[4].in_bps, bundle_bps, tol);
  EXPECT_NEAR(p[3].out_bps - p[4].out_bps, bundle_bps, tol);
  EXPECT_NEAR(p[2].in_bps - p[1].in_bps, bundle_bps, tol);
  EXPECT_NEAR(p[2].out_bps - p[1].out_bps, bundle_bps, tol);
  EXPECT_EQ(loads.epl_per_source[0], 3.0);
  EXPECT_EQ(loads.reach_per_source[0], 6.0);
}

}  // namespace
}  // namespace sppnet
