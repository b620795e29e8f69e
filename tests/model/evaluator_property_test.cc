// Property sweep over the evaluation engine: structural invariants
// that must hold for every configuration, checked across a grid of
// topologies, cluster sizes, redundancy degrees and TTLs.

#include <cstdint>
#include <tuple>

#include <gtest/gtest.h>

#include "sppnet/model/evaluator.h"

namespace sppnet {
namespace {

// gtest prints a GridPoint as a byte dump, and gtest_discover_tests
// builds each ctest name from that dump. `name_tag` fills the bytes
// that would otherwise be padding, whose contents the compiler leaves
// unspecified, so every build prints the same names. The tag plays no
// part in the test; its values keep the names the suite already has.
struct GridPoint {
  GraphType graph_type;
  std::uint32_t name_tag;
  std::size_t graph_size;
  double cluster_size;
  int redundancy_k;
  int ttl;
  double outdegree;
};
static_assert(sizeof(GridPoint) ==
                  sizeof(GraphType) + sizeof(std::uint32_t) +
                      sizeof(std::size_t) + 2 * sizeof(double) +
                      2 * sizeof(int),
              "GridPoint must have no padding");

class EvaluatorPropertyTest : public ::testing::TestWithParam<GridPoint> {
 protected:
  static const ModelInputs& Inputs() {
    static const ModelInputs* inputs = new ModelInputs(ModelInputs::Default());
    return *inputs;
  }
};

TEST_P(EvaluatorPropertyTest, StructuralInvariants) {
  const GridPoint point = GetParam();
  Configuration config;
  config.graph_type = point.graph_type;
  config.graph_size = point.graph_size;
  config.cluster_size = point.cluster_size;
  config.redundancy_k = point.redundancy_k;
  config.ttl = point.ttl;
  config.avg_outdegree = point.outdegree;

  Rng rng(2024);
  const NetworkInstance inst = GenerateInstance(config, Inputs(), rng);
  const InstanceLoads loads = EvaluateInstance(inst, config, Inputs());

  // (1) Conservation: every byte sent is received by exactly one node.
  ASSERT_GT(loads.aggregate.in_bps, 0.0);
  EXPECT_NEAR(loads.aggregate.in_bps, loads.aggregate.out_bps,
              1e-9 * loads.aggregate.in_bps);

  // (2) Aggregate equals the sum over all nodes.
  LoadVector sum;
  for (const auto& lv : loads.partner_load) sum += lv;
  for (const auto& lv : loads.client_load) sum += lv;
  EXPECT_NEAR(sum.proc_hz, loads.aggregate.proc_hz,
              1e-6 * loads.aggregate.proc_hz);

  // (3) Non-negativity of every per-node component.
  for (const auto& lv : loads.partner_load) {
    ASSERT_GE(lv.in_bps, 0.0);
    ASSERT_GE(lv.out_bps, 0.0);
    ASSERT_GE(lv.proc_hz, 0.0);
  }
  for (const auto& lv : loads.client_load) {
    ASSERT_GE(lv.in_bps, 0.0);
    ASSERT_GE(lv.out_bps, 0.0);
    ASSERT_GE(lv.proc_hz, 0.0);
  }

  // (4) Results are bounded by the full-network expectation and
  //     consistent with the per-source vector.
  double total_files = 0.0;
  for (std::size_t i = 0; i < inst.NumClusters(); ++i) {
    total_files += inst.indexed_files[i];
  }
  const double cap = total_files * Inputs().query_model.MatchProbability();
  EXPECT_LE(loads.mean_results, cap * (1.0 + 1e-9));
  for (const double r : loads.results_per_query) {
    ASSERT_GE(r, 0.0);
    ASSERT_LE(r, cap * (1.0 + 1e-9));
  }

  // (5) Reach bounded by the cluster count; EPL bounded by the TTL.
  EXPECT_LE(loads.mean_reach,
            static_cast<double>(inst.NumClusters()) * (1.0 + 1e-9));
  EXPECT_GE(loads.mean_reach, 1.0);
  EXPECT_LE(loads.mean_epl, static_cast<double>(config.ttl) + 1e-9);
  EXPECT_GE(loads.mean_epl, 0.0);

  // (6) Partner/client array shapes match the instance.
  EXPECT_EQ(loads.partner_load.size(), inst.TotalPartners());
  EXPECT_EQ(loads.client_load.size(), inst.TotalClients());
  EXPECT_EQ(loads.results_per_query.size(), inst.NumClusters());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EvaluatorPropertyTest,
    ::testing::Values(
        GridPoint{GraphType::kStronglyConnected, 0, 1000, 1, 1, 1, 0},
        GridPoint{GraphType::kStronglyConnected, 0x00007F07, 1000, 10, 1, 1, 0},
        GridPoint{GraphType::kStronglyConnected, 0, 1000, 10, 2, 2, 0},
        GridPoint{GraphType::kStronglyConnected, 0, 1000, 50, 3, 1, 0},
        GridPoint{GraphType::kStronglyConnected, 0, 1000, 1000, 1, 1, 0},
        GridPoint{GraphType::kStronglyConnected, 0, 500, 250, 2, 3, 0},
        GridPoint{GraphType::kPowerLaw, 0, 1000, 1, 1, 7, 3.1},
        GridPoint{GraphType::kPowerLaw, 0, 1000, 10, 1, 7, 3.1},
        GridPoint{GraphType::kPowerLaw, 0, 1000, 10, 2, 4, 6.0},
        GridPoint{GraphType::kPowerLaw, 0x4E41485F, 1000, 20, 3, 2, 10.0},
        GridPoint{GraphType::kPowerLaw, 0, 2000, 10, 1, 1, 20.0},
        GridPoint{GraphType::kPowerLaw, 0x002C3B03, 2000, 40, 4, 3, 8.0}));

}  // namespace
}  // namespace sppnet
