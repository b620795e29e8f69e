// ctest-label: threaded
// Engine-equivalence goldens: the simulator, running on the calendar
// event queue and the dense per-query state, must be *bitwise*
// indistinguishable from the pre-overhaul simulator (a binary heap and
// hash maps, the only implementation at the time). Every case pins the
// report digest to a golden generated from that simulator, plus a
// second digest over the report fields added since. A digest change
// here means protocol behaviour changed, which a data-structure change
// must never do. The trial tests hold the protocol-level obs
// instruments and trial reports bit-identical across trial
// parallelism.

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"
#include "sppnet/model/config.h"
#include "sppnet/model/instance.h"
#include "sppnet/obs/export.h"
#include "sppnet/obs/metrics.h"
#include "sppnet/sim/faults.h"
#include "sppnet/sim/sim_trials.h"
#include "sppnet/sim/simulator.h"

namespace sppnet {
namespace {

// FNV-1a over the bit patterns of every report field that existed
// before the overhaul, in declaration order. Excluded by design:
// mean_index_memory_bytes (estimated from stdlib container capacities,
// so its exact value is toolchain-dependent) and the fields added
// since (they did not exist when the goldens were generated; see
// TallyDigest). Must match the generator that produced the pinned
// digests byte for byte.
std::uint64_t ReportDigest(const SimReport& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto mix_d = [&](double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  const auto mix_load = [&](const LoadVector& lv) {
    mix_d(lv.in_bps);
    mix_d(lv.out_bps);
    mix_d(lv.proc_hz);
  };
  mix_d(r.measured_seconds);
  for (const LoadVector& lv : r.partner_load) mix_load(lv);
  for (const LoadVector& lv : r.client_load) mix_load(lv);
  mix_load(r.aggregate);
  mix(r.queries_submitted);
  mix(r.responses_delivered);
  mix(r.duplicate_queries);
  mix_d(r.mean_results_per_query);
  mix_d(r.mean_response_hops);
  mix_d(r.mean_first_response_latency);
  mix_d(r.mean_rings_per_query);
  mix(r.cache_hits);
  mix(r.partner_failures);
  mix(r.partner_recoveries);
  mix(r.cluster_outages);
  mix_d(r.cluster_outage_fraction);
  mix_d(r.client_disconnected_fraction);
  mix(r.faults_crashes);
  mix(r.faults_messages_dropped);
  mix(r.faults_request_timeouts);
  mix(r.faults_retries);
  mix(r.faults_failover_episodes);
  mix(r.faults_client_rejoins);
  mix(r.queries_succeeded);
  mix(r.queries_failed);
  mix_d(r.query_success_rate);
  mix_d(r.mean_recovery_latency_seconds);
  return h;
}

// FNV-1a over the report fields added after the goldens above were
// generated: the whole-run event totals, the adaptation tallies and
// converged-network fields, and the capacity-plane tallies, in
// declaration order. mean_index_memory_bytes stays out for the same
// toolchain reason as above.
std::uint64_t TallyDigest(const SimReport& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto mix_d = [&](double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(r.events_scheduled);
  mix(r.events_dispatched);
  mix(r.queue_depth_hwm);
  mix(r.adapt_rounds);
  mix(r.adapt_splits);
  mix(r.adapt_coalesces);
  mix(r.adapt_edges_added);
  mix(r.adapt_ttl_decreases);
  mix(r.adapt_probes_sent);
  mix(r.adapt_reports_received);
  mix(r.adapt_client_moves);
  mix(r.adapt_converged ? 1 : 0);
  mix(r.adapt_converged_round);
  mix(r.final_clusters);
  mix(static_cast<std::uint64_t>(r.final_ttl));
  mix_d(r.final_avg_outdegree);
  mix(r.adapt_demotions);
  mix(r.capacity_windows);
  mix(r.capacity_overload_episodes);
  mix_d(r.capacity_mean_utilization);
  mix_d(r.capacity_overloaded_fraction);
  mix_d(r.capacity_sp_mean_utilization);
  mix_d(r.capacity_sp_overloaded_fraction);
  mix_d(r.capacity_sp_p99_utilization);
  return h;
}

// The deterministic registry sections minus the data-structure
// instruments: sim.queue.* and sim.state.* describe queue buckets,
// resizes and scratch bytes, not protocol behaviour. Everything else —
// protocol counters, the depth high-water mark, the hop histogram —
// must be byte-identical across trial parallelism.
std::string ProtocolMetricsJson(const MetricsRegistry& m) {
  const auto engine_specific = [](std::string_view name) {
    return name.rfind("sim.queue.", 0) == 0 ||
           name.rfind("sim.state.", 0) == 0;
  };
  MetricsRegistry filtered;
  for (const auto& [name, counter] : m.counters()) {
    if (!engine_specific(name)) {
      filtered.GetCounter(name).Increment(counter.value());
    }
  }
  for (const auto& [name, gauge] : m.gauges()) {
    if (!engine_specific(name)) filtered.GetGauge(name).Set(gauge.value());
  }
  for (const auto& [name, histogram] : m.histograms()) {
    if (!engine_specific(name)) {
      filtered.GetHistogram(name, histogram.upper_bounds()).Merge(histogram);
    }
  }
  std::ostringstream out;
  WriteDeterministicMetricsJson(out, filtered);
  return out.str();
}

struct GoldenCase {
  const char* name;
  std::uint64_t digest;
  Configuration config;
  std::uint64_t instance_seed;
  SimOptions options;
  /// TallyDigest of the same run, generated when it was introduced.
  std::uint64_t tally_digest = 0;
};

FaultPlan ActivePlan() {
  FaultPlan plan;
  plan.crash_rate_per_partner = 2e-3;
  plan.crash_recovery_seconds = 15.0;
  plan.message_drop_probability = 0.01;
  plan.max_delay_jitter_seconds = 0.05;
  plan.request_timeout_seconds = 2.0;
  plan.max_retries = 3;
  return plan;
}

FaultPlan ZeroRatePlan() {
  FaultPlan plan;
  plan.crash_rate_per_partner = 0.0;
  plan.message_drop_probability = 0.0;
  plan.max_delay_jitter_seconds = 0.0;
  plan.request_timeout_seconds = 0.0;
  return plan;
}

// All `digest` goldens were generated against the pre-overhaul
// simulator (std::priority_queue + unordered_map state, the only
// implementation at the time) or, for the later layers, when the case
// was introduced; every `tally_digest` was generated when it was added,
// while the heap and hash-map reference engines still ran alongside and
// matched it. Do not regenerate them to make a failure pass.
std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  {
    GoldenCase c{"flood_plod", 0xa9c5873452eb3e5full, {}, 101, {}};
    c.tally_digest = 0xcf479eb5b83ece66ull;
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.seed = 11;
    cases.push_back(c);
  }
  {
    GoldenCase c{"flood_complete", 0x0218d8a5be5cf245ull, {}, 102, {}};
    c.tally_digest = 0xc471b4a4f527bcfeull;
    c.config.graph_type = GraphType::kStronglyConnected;
    c.config.graph_size = 300;
    c.config.cluster_size = 10.0;
    c.config.ttl = 1;
    c.options.seed = 12;
    cases.push_back(c);
  }
  {
    GoldenCase c{"ring_plod", 0xabc7450774b9487full, {}, 103, {}};
    c.tally_digest = 0x213350b9aa389888ull;
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 5;
    c.config.avg_outdegree = 4.0;
    c.options.strategy = SearchStrategy::kExpandingRing;
    c.options.ring_satisfaction_results = 30;
    c.options.seed = 13;
    cases.push_back(c);
  }
  {
    GoldenCase c{"walk_plod", 0xdb9e662bf82b6f46ull, {}, 104, {}};
    c.tally_digest = 0xbbebdc1290e50e29ull;
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.strategy = SearchStrategy::kRandomWalk;
    c.options.num_walkers = 8;
    c.options.walk_ttl = 32;
    c.options.seed = 14;
    cases.push_back(c);
  }
  {
    GoldenCase c{"churn_plod", 0x69a0bd51b6db4f6aull, {}, 105, {}};
    c.tally_digest = 0xed54e920b4ebbcdbull;
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.churn.enable = true;
    c.options.churn.partner_recovery_seconds = 20.0;
    c.options.seed = 15;
    cases.push_back(c);
  }
  {
    GoldenCase c{"faults_active", 0x72f19adb26bedf54ull, {}, 106, {}};
    c.tally_digest = 0x072cc4c4bc62e7d0ull;
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.redundancy = true;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.faults = ActivePlan();
    c.options.seed = 16;
    cases.push_back(c);
  }
  {
    // Same configuration and seeds as churn_plod but with an explicitly
    // constructed zero-rate plan: pinned to the SAME digest — the
    // inactive-plan bit-identity contract of the fault layer.
    GoldenCase c{"churn_plod_zero_rate_plan", 0x69a0bd51b6db4f6aull, {}, 105,
                 {}};
    c.tally_digest = 0xed54e920b4ebbcdbull;
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.churn.enable = true;
    c.options.churn.partner_recovery_seconds = 20.0;
    c.options.faults = ZeroRatePlan();
    c.options.seed = 15;
    cases.push_back(c);
  }
  {
    // Same configuration and seeds as churn_plod but with an explicitly
    // constructed INACTIVE adaptation plan (probe interval 0): pinned to
    // the SAME digest — the inactive-plan bit-identity contract of the
    // adaptation layer, the exact analogue of churn_plod_zero_rate_plan.
    GoldenCase c{"churn_plod_inactive_adaptive_plan", 0x69a0bd51b6db4f6aull,
                 {}, 105, {}};
    c.tally_digest = 0xed54e920b4ebbcdbull;
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.churn.enable = true;
    c.options.churn.partner_recovery_seconds = 20.0;
    c.options.adaptive.probe_interval_seconds = 0.0;
    c.options.adaptive.decision_interval_seconds = 7.0;
    c.options.adaptive.policy.suggested_outdegree = 25.0;
    c.options.seed = 15;
    cases.push_back(c);
  }
  {
    // Same configuration and seeds as churn_plod but with an explicitly
    // constructed INACTIVE consistency plan (change rate 0, every other
    // knob non-default, replication flags set): pinned to the SAME
    // digest — the inactive-plan bit-identity contract of the
    // index-consistency layer, the exact analogue of
    // churn_plod_zero_rate_plan.
    GoldenCase c{"churn_plod_inactive_consistency_plan",
                 0x69a0bd51b6db4f6aull, {}, 105, {}};
    c.tally_digest = 0xed54e920b4ebbcdbull;
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.churn.enable = true;
    c.options.churn.partner_recovery_seconds = 20.0;
    c.options.consistency.change_rate_per_client = 0.0;
    c.options.consistency.scheme = ConsistencyScheme::kPushInvalidate;
    c.options.consistency.ttr_seconds = 3.5;
    c.options.consistency.replication.owner_replication = true;
    c.options.consistency.replication.path_replication = true;
    c.options.consistency.replication.replication_factor = 3;
    c.options.seed = 15;
    cases.push_back(c);
  }
  {
    // Live adaptation on the Section 5.3 bad topology: splits,
    // coalesces, peering and the TTL broadcast all mutate the instance
    // mid-run, and the converged network must still be bit-identical
    // to the golden. Digest generated at introduction (no pre-overhaul
    // implementation existed).
    GoldenCase c{"adaptive_plod", 0x006dd28398706a0cull, {}, 108, {}};
    c.tally_digest = 0x506493e6ada77a3dull;
    c.config.graph_size = 400;
    c.config.cluster_size = 4.0;
    c.config.ttl = 5;
    c.config.avg_outdegree = 3.1;
    c.options.adaptive.probe_interval_seconds = 2.0;
    c.options.adaptive.decision_interval_seconds = 10.0;
    c.options.adaptive.policy.max_bandwidth_bps = 1.0e7;
    c.options.adaptive.policy.max_proc_hz = 2.0e6;
    c.options.seed = 18;
    cases.push_back(c);
  }
  {
    // Concrete-index + result cache: exercises the interned query
    // strings and the per-cluster cache tables, the two state pieces
    // the dense per-query state rewrote most.
    GoldenCase c{"concrete_cache_plod", 0x803b5184d94f833bull, {}, 107, {}};
    c.tally_digest = 0x5bb4772c498d7891ull;
    c.config.graph_size = 200;
    c.config.cluster_size = 10.0;
    c.config.ttl = 3;
    c.config.avg_outdegree = 4.0;
    c.options.concrete_index = true;
    c.options.result_cache_ttl_seconds = 30.0;
    c.options.seed = 17;
    cases.push_back(c);
  }
  {
    // Same configuration and seeds as flood_plod but with an explicitly
    // constructed DISABLED routing layer (non-default digest geometry,
    // enabled = false): pinned to the SAME digest — the inactive-layer
    // bit-identity contract of the routing-index layer, the exact
    // analogue of churn_plod_zero_rate_plan.
    GoldenCase c{"flood_plod_inactive_routing", 0xa9c5873452eb3e5full, {}, 101,
                 {}};
    c.tally_digest = 0xcf479eb5b83ece66ull;
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.routing.enable = false;
    c.options.routing.digest_bits = 1024;
    c.options.routing.num_hashes = 5;
    c.options.routing.refresh_interval_seconds = 7.0;
    c.options.seed = 11;
    cases.push_back(c);
  }
  {
    // Content-pruned flood (ISSUE 8): digest-table build, periodic
    // DigestAnnounce refreshes and per-edge forward suppression all
    // inside the measured window. Digest generated at introduction.
    GoldenCase c{"routed_flood_plod", 0x19e7f12e23d2cb1eull, {}, 109, {}};
    c.tally_digest = 0x96a4443bbc2d78bcull;
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.strategy = SearchStrategy::kRoutedFlood;
    c.options.routing.enable = true;
    c.options.seed = 19;
    cases.push_back(c);
  }
  {
    // Digest-biased k-walker (ISSUE 8): biased neighbor choice, first
    // visit dedup and direct responses. Digest generated at
    // introduction.
    GoldenCase c{"walker_plod", 0x94c679b1d5acf2b4ull, {}, 110, {}};
    c.tally_digest = 0xbeacaf23c2f5a577ull;
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.strategy = SearchStrategy::kWalker;
    c.options.num_walkers = 8;
    c.options.walk_ttl = 32;
    c.options.seed = 20;
    cases.push_back(c);
  }
  {
    // Routed expanding ring (ISSUE 8): routing.enable pruning each
    // iterative-deepening wave, on the complete best case so the
    // per-destination digest path is exercised too. Digest generated at
    // introduction.
    GoldenCase c{"routed_ring_complete", 0x91f02fb0b37e8009ull, {}, 111, {}};
    c.tally_digest = 0xe091fb418809edeaull;
    c.config.graph_type = GraphType::kStronglyConnected;
    c.config.graph_size = 300;
    c.config.cluster_size = 10.0;
    c.config.ttl = 2;
    c.options.strategy = SearchStrategy::kExpandingRing;
    c.options.ring_satisfaction_results = 10;
    c.options.routing.enable = true;
    c.options.seed = 21;
    cases.push_back(c);
  }
  {
    // Same configuration and seeds as churn_plod but with an explicitly
    // constructed INACTIVE capacity plan (every knob non-default,
    // enable = false): pinned to the SAME digest — the inactive-plan
    // bit-identity contract of the capacity layer, the exact analogue
    // of churn_plod_zero_rate_plan. An inactive plan must never touch
    // the capacity stream, schedule a window event or perturb a single
    // protocol draw.
    GoldenCase c{"churn_plod_inactive_capacity_plan", 0x69a0bd51b6db4f6aull,
                 {}, 105, {}};
    c.tally_digest = 0xed54e920b4ebbcdbull;
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.churn.enable = true;
    c.options.churn.partner_recovery_seconds = 20.0;
    c.options.capacity.enable = false;
    c.options.capacity.window_seconds = 3.5;
    c.options.capacity.overload_utilization = 0.4;
    c.options.capacity.capacity_aware_election = false;
    c.options.capacity.demote_overloaded = false;
    c.options.seed = 15;
    cases.push_back(c);
  }
  {
    // Live capacity plan over the Section 5.3 adaptation scenario
    // (ISSUE 10): utilization windows, capacity-aware election on
    // splits and sustained-overload head demotions all active. Digest
    // generated at introduction.
    GoldenCase c{"capacity_adaptive_plod", 0x7d01dfeabe2c4b53ull, {}, 112, {}};
    c.tally_digest = 0x7a50e3af9217461eull;
    c.config.graph_size = 400;
    c.config.cluster_size = 4.0;
    c.config.ttl = 5;
    c.config.avg_outdegree = 3.1;
    c.options.adaptive.probe_interval_seconds = 2.0;
    c.options.adaptive.decision_interval_seconds = 10.0;
    c.options.adaptive.policy.max_bandwidth_bps = 1.0e7;
    c.options.adaptive.policy.max_proc_hz = 2.0e6;
    c.options.capacity.enable = true;
    c.options.capacity.window_seconds = 10.0;
    c.options.seed = 22;
    cases.push_back(c);
  }
  for (GoldenCase& c : cases) {
    c.options.duration_seconds = 120.0;
    c.options.warmup_seconds = 12.0;
  }
  return cases;
}

class EngineEquivalenceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineEquivalenceTest, MatrixBitIdenticalAndPinnedToPreOverhaulGolden) {
  const GoldenCase c = GoldenCases()[GetParam()];
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(c.instance_seed);
  const NetworkInstance instance = GenerateInstance(c.config, inputs, rng);
  SimOptions options = c.options;
  // An attached registry must not perturb the run.
  MetricsRegistry metrics;
  options.metrics = &metrics;
  Simulator sim(instance, c.config, inputs, options);
  const SimReport report = sim.Run();
  EXPECT_EQ(ReportDigest(report), c.digest) << c.name;
  EXPECT_EQ(TallyDigest(report), c.tally_digest) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllGoldenCases, EngineEquivalenceTest,
                         // Derived from the case table so a new golden can
                         // never be silently skipped by a stale bound.
                         ::testing::Range<std::size_t>(0, GoldenCases().size()),
                         [](const auto& info) {
                           return GoldenCases()[info.param].name;
                         });

TEST(EngineEquivalenceTrialsTest, BitIdenticalAcrossParallelismAndEngines) {
  Configuration config;
  config.graph_size = 300;
  config.cluster_size = 10.0;
  config.redundancy = true;
  config.ttl = 4;
  config.avg_outdegree = 4.0;
  const ModelInputs inputs = ModelInputs::Default();

  const auto run = [&](std::size_t parallelism) {
    SimTrialOptions options;
    options.num_trials = 4;
    options.seed = 77;
    options.parallelism = parallelism;
    options.sim.duration_seconds = 60.0;
    options.sim.warmup_seconds = 10.0;
    options.sim.churn.enable = true;
    options.sim.faults = ActivePlan();
    MetricsRegistry metrics;
    options.metrics = &metrics;
    const SimTrialReport report = RunTrials(config, inputs, options);
    // Fold the cross-trial surface into one comparable string: the
    // protocol-level metrics plus the trial report's counter totals and
    // per-trial means.
    std::ostringstream out;
    out << ProtocolMetricsJson(metrics) << report.trials << ','
        << report.queries_submitted << ',' << report.responses_delivered
        << ',' << report.partner_failures << ',' << report.partner_recoveries
        << ',' << report.cluster_outages << ',' << report.faults_crashes
        << ',' << report.faults_messages_dropped << ','
        << report.faults_retries << ',' << report.queries_succeeded << ','
        << report.queries_failed << ','
        << report.cluster_outage_fraction.Mean() << ','
        << report.query_success_rate.Mean() << ','
        << report.mean_recovery_latency_seconds.Mean();
    return out.str();
  };

  const std::string reference = run(1);
  for (const std::size_t parallelism : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(run(parallelism), reference) << "parallelism=" << parallelism;
  }
}

TEST(EngineEquivalenceTrialsTest,
     AdaptiveBitIdenticalAcrossParallelismAndEngines) {
  Configuration config;
  config.graph_size = 400;
  config.cluster_size = 4.0;
  config.ttl = 5;
  config.avg_outdegree = 3.1;
  const ModelInputs inputs = ModelInputs::Default();

  const auto run = [&](std::size_t parallelism) {
    SimTrialOptions options;
    options.num_trials = 3;
    options.seed = 78;
    options.parallelism = parallelism;
    options.sim.duration_seconds = 60.0;
    options.sim.warmup_seconds = 10.0;
    options.sim.adaptive.probe_interval_seconds = 2.0;
    options.sim.adaptive.decision_interval_seconds = 10.0;
    options.sim.adaptive.policy.max_bandwidth_bps = 1.0e7;
    options.sim.adaptive.policy.max_proc_hz = 2.0e6;
    MetricsRegistry metrics;
    options.metrics = &metrics;
    const SimTrialReport report = RunTrials(config, inputs, options);
    // The sim.adaptive.* counters and sim.msg.{probe,report,control}
    // instruments ride inside ProtocolMetricsJson, so one folded string
    // holds the whole adaptation surface identical across parallelism.
    std::ostringstream out;
    out << ProtocolMetricsJson(metrics) << report.trials << ','
        << report.queries_submitted << ',' << report.responses_delivered
        << ',' << report.query_success_rate.Mean();
    return out.str();
  };

  const std::string reference = run(1);
  ASSERT_NE(reference.find("sim.adaptive.rounds"), std::string::npos);
  for (const std::size_t parallelism : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(run(parallelism), reference) << "parallelism=" << parallelism;
  }
}

TEST(EngineEquivalenceTrialsTest,
     CapacityBitIdenticalAcrossParallelismAndEngines) {
  Configuration config;
  config.graph_size = 400;
  config.cluster_size = 4.0;
  config.ttl = 5;
  config.avg_outdegree = 3.1;
  const ModelInputs inputs = ModelInputs::Default();

  const auto run = [&](std::size_t parallelism) {
    SimTrialOptions options;
    options.num_trials = 3;
    options.seed = 80;
    options.parallelism = parallelism;
    options.sim.duration_seconds = 60.0;
    options.sim.warmup_seconds = 10.0;
    options.sim.adaptive.probe_interval_seconds = 2.0;
    options.sim.adaptive.decision_interval_seconds = 10.0;
    options.sim.adaptive.policy.max_bandwidth_bps = 1.0e7;
    options.sim.adaptive.policy.max_proc_hz = 2.0e6;
    options.sim.capacity.enable = true;
    options.sim.capacity.window_seconds = 5.0;
    MetricsRegistry metrics;
    options.metrics = &metrics;
    const SimTrialReport report = RunTrials(config, inputs, options);
    // The sim.capacity.* instruments (including the utilization
    // histogram) and sim.adaptive.demotions ride inside
    // ProtocolMetricsJson: each per-trial capacity stream must land on
    // identical windows however trials are spread over worker threads.
    std::ostringstream out;
    out << ProtocolMetricsJson(metrics) << report.trials << ','
        << report.queries_submitted << ',' << report.responses_delivered
        << ',' << report.query_success_rate.Mean();
    return out.str();
  };

  const std::string reference = run(1);
  ASSERT_NE(reference.find("sim.capacity."), std::string::npos);
  ASSERT_NE(reference.find("sim.adaptive.demotions"), std::string::npos);
  for (const std::size_t parallelism : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(run(parallelism), reference) << "parallelism=" << parallelism;
  }
}

TEST(EngineEquivalenceTrialsTest,
     RoutedFloodBitIdenticalAcrossParallelismAndEngines) {
  Configuration config;
  config.graph_size = 300;
  config.cluster_size = 10.0;
  config.ttl = 4;
  config.avg_outdegree = 4.0;
  const ModelInputs inputs = ModelInputs::Default();

  const auto run = [&](std::size_t parallelism) {
    SimTrialOptions options;
    options.num_trials = 3;
    options.seed = 79;
    options.parallelism = parallelism;
    options.sim.duration_seconds = 60.0;
    options.sim.warmup_seconds = 10.0;
    options.sim.strategy = SearchStrategy::kRoutedFlood;
    options.sim.routing.enable = true;
    MetricsRegistry metrics;
    options.metrics = &metrics;
    const SimTrialReport report = RunTrials(config, inputs, options);
    // The sim.msg.digest.* and sim.routing.* instruments ride inside
    // ProtocolMetricsJson; trial-level parallelism (independent sims on
    // threads) composes with the routing layer even though in-sim
    // sharding does not.
    std::ostringstream out;
    out << ProtocolMetricsJson(metrics) << report.trials << ','
        << report.queries_submitted << ',' << report.responses_delivered
        << ',' << report.query_success_rate.Mean();
    return out.str();
  };

  const std::string reference = run(1);
  ASSERT_NE(reference.find("sim.msg.digest.sent"), std::string::npos);
  for (const std::size_t parallelism : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(run(parallelism), reference) << "parallelism=" << parallelism;
  }
}

}  // namespace
}  // namespace sppnet
