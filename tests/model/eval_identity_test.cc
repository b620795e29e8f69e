// ctest-label: threaded
// Bit-identity of the evaluator across evaluation parallelism: every
// parallelism level must produce EXACTLY the same InstanceLoads — every
// double bitwise equal. Per-batch results are folded in batch order, so
// any mismatch means a fold-order bug, not an acceptable rounding
// wiggle; EXPECT_EQ (not EXPECT_DOUBLE_EQ / NEAR) is deliberate. The
// bit-parallel BFS kernel itself is held to the scalar reference kernel
// in tests/topology/batched_bfs_test.cc, and the loads are pinned in
// eval_golden_test.cc.

#include <vector>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"
#include "sppnet/model/evaluator.h"
#include "sppnet/model/trials.h"
#include "sppnet/obs/metrics.h"

namespace sppnet {
namespace {

void ExpectLoadVectorIdentical(const LoadVector& a, const LoadVector& b,
                               const char* what, std::size_t index) {
  SCOPED_TRACE(testing::Message() << what << "[" << index << "]");
  EXPECT_EQ(a.in_bps, b.in_bps);
  EXPECT_EQ(a.out_bps, b.out_bps);
  EXPECT_EQ(a.proc_hz, b.proc_hz);
}

void ExpectVectorIdentical(const std::vector<double>& a,
                           const std::vector<double>& b, const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "index " << i;
  }
}

/// Every field of InstanceLoads, bitwise.
void ExpectLoadsIdentical(const InstanceLoads& a, const InstanceLoads& b) {
  ASSERT_EQ(a.partner_load.size(), b.partner_load.size());
  for (std::size_t i = 0; i < a.partner_load.size(); ++i) {
    ExpectLoadVectorIdentical(a.partner_load[i], b.partner_load[i],
                              "partner_load", i);
  }
  ASSERT_EQ(a.client_load.size(), b.client_load.size());
  for (std::size_t i = 0; i < a.client_load.size(); ++i) {
    ExpectLoadVectorIdentical(a.client_load[i], b.client_load[i],
                              "client_load", i);
  }
  ExpectVectorIdentical(a.results_per_query, b.results_per_query,
                        "results_per_query");
  ExpectVectorIdentical(a.epl_per_source, b.epl_per_source, "epl_per_source");
  ExpectVectorIdentical(a.reach_per_source, b.reach_per_source,
                        "reach_per_source");
  ExpectLoadVectorIdentical(a.aggregate, b.aggregate, "aggregate", 0);
  EXPECT_EQ(a.mean_results, b.mean_results);
  EXPECT_EQ(a.mean_epl, b.mean_epl);
  EXPECT_EQ(a.mean_reach, b.mean_reach);
  EXPECT_EQ(a.duplicate_msgs_per_sec, b.duplicate_msgs_per_sec);
}

struct IdentityCase {
  std::size_t graph_size;
  double cluster_size;
  int redundancy_k;
  int ttl;
  double outdegree;
  GraphType graph_type;
};

class EvalIdentityTest : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(EvalIdentityTest, EnginesAndParallelismBitIdentical) {
  const IdentityCase param = GetParam();
  Configuration config;
  config.graph_type = param.graph_type;
  config.graph_size = param.graph_size;
  config.cluster_size = param.cluster_size;
  config.redundancy_k = param.redundancy_k;
  config.ttl = param.ttl;
  config.avg_outdegree = param.outdegree;
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(4242);
  const NetworkInstance inst = GenerateInstance(config, inputs, rng);

  std::vector<InstanceLoads> all;
  const std::size_t kParallelism[] = {1, 2, 8};
  for (const std::size_t parallelism : kParallelism) {
    EvalOptions options;
    options.parallelism = parallelism;
    all.push_back(EvaluateInstance(inst, config, inputs, options));
  }
  for (std::size_t i = 1; i < all.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "parallelism " << kParallelism[i]);
    ExpectLoadsIdentical(all[0], all[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EvalIdentityTest,
    ::testing::Values(
        // 500 % 64 != 0: remainder batch. Multi-client clusters.
        IdentityCase{500, 10, 1, 5, 3.1, GraphType::kPowerLaw},
        // Exactly two full batches.
        IdentityCase{128, 4, 1, 7, 3.1, GraphType::kPowerLaw},
        // Fewer sources than one batch, with redundancy.
        IdentityCase{50, 5, 2, 3, 6.0, GraphType::kPowerLaw},
        // Dense overlay, short TTL.
        IdentityCase{300, 20, 1, 2, 10.0, GraphType::kPowerLaw},
        // cluster_size 1: pure super-peer network, no clients.
        IdentityCase{200, 1, 1, 7, 3.1, GraphType::kPowerLaw},
        // Complete topology: closed form, trivially identical.
        IdentityCase{400, 10, 2, 2, 0.0, GraphType::kStronglyConnected}));

/// The same identity must survive the trial runner with its own
/// parallelism on top: neither parallelism knob may move a single bit of
/// any report statistic.
TEST(EvalIdentityTest, TrialReportsBitIdenticalAcrossEngineAndParallelism) {
  Configuration config;
  config.graph_type = GraphType::kPowerLaw;
  config.graph_size = 300;
  config.cluster_size = 10;
  config.ttl = 5;
  config.avg_outdegree = 3.1;
  const ModelInputs inputs = ModelInputs::Default();

  std::vector<ConfigurationReport> reports;
  for (const std::size_t eval_parallelism : {1u, 2u, 8u}) {
    TrialOptions options;
    options.num_trials = 3;
    options.seed = 2026;
    options.collect_outdegree_histograms = true;
    options.parallelism = 2;
    options.eval_parallelism = eval_parallelism;
    reports.push_back(RunTrials(config, inputs, options));
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "variant " << i);
    EXPECT_EQ(reports[0].aggregate_in_bps.Mean(),
              reports[i].aggregate_in_bps.Mean());
    EXPECT_EQ(reports[0].aggregate_in_bps.Variance(),
              reports[i].aggregate_in_bps.Variance());
    EXPECT_EQ(reports[0].aggregate_out_bps.Mean(),
              reports[i].aggregate_out_bps.Mean());
    EXPECT_EQ(reports[0].aggregate_proc_hz.Mean(),
              reports[i].aggregate_proc_hz.Mean());
    EXPECT_EQ(reports[0].sp_out_bps.Mean(), reports[i].sp_out_bps.Mean());
    EXPECT_EQ(reports[0].client_in_bps.Mean(),
              reports[i].client_in_bps.Mean());
    EXPECT_EQ(reports[0].results_per_query.Mean(),
              reports[i].results_per_query.Mean());
    EXPECT_EQ(reports[0].epl.Mean(), reports[i].epl.Mean());
    EXPECT_EQ(reports[0].reach.Mean(), reports[i].reach.Mean());
    EXPECT_EQ(reports[0].duplicate_msgs_per_sec.Mean(),
              reports[i].duplicate_msgs_per_sec.Mean());
  }
}

/// The deterministic kernel counters must also be identical across
/// parallelism (the trials.cc fold contract extended to eval.bfs.*).
TEST(EvalIdentityTest, KernelCountersIdenticalAcrossParallelism) {
  Configuration config;
  config.graph_type = GraphType::kPowerLaw;
  config.graph_size = 200;
  config.cluster_size = 5;
  config.ttl = 4;
  config.avg_outdegree = 3.1;
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(7);
  const NetworkInstance inst = GenerateInstance(config, inputs, rng);

  std::vector<MetricsRegistry> registries(3);
  const std::size_t parallelisms[] = {1, 2, 8};
  for (std::size_t i = 0; i < 3; ++i) {
    EvalOptions options;
    options.parallelism = parallelisms[i];
    options.metrics = &registries[i];
    EvaluateInstance(inst, config, inputs, options);
  }
  for (const char* name :
       {"eval.sources", "eval.bfs.batches", "eval.bfs.levels",
        "eval.bfs.frontier_entries", "eval.reached"}) {
    SCOPED_TRACE(name);
    EXPECT_GT(registries[0].CounterValue(name), 0u);
    EXPECT_EQ(registries[0].CounterValue(name),
              registries[1].CounterValue(name));
    EXPECT_EQ(registries[0].CounterValue(name),
              registries[2].CounterValue(name));
  }
  EXPECT_GT(registries[0].GaugeValue("eval.scratch.bytes"), 0.0);
  EXPECT_EQ(registries[0].GaugeValue("eval.scratch.bytes"),
            registries[1].GaugeValue("eval.scratch.bytes"));
  EXPECT_EQ(registries[0].GaugeValue("eval.scratch.bytes"),
            registries[2].GaugeValue("eval.scratch.bytes"));
}

}  // namespace
}  // namespace sppnet
