// The simulator workloads. Each process runs several instances generated
// from sub-seeds of the workload seed, one after another, and reports
// their totals: the instance-to-instance spread of a power-law overlay
// (event counts differ by several per cent) then averages out instead of
// deciding the figure of a whole run.
//  - sim_flood: the paper's baseline flood on the default SimOptions
//    engine, PLOD N = 10^5 (10^4 clusters of 10), outdegree 4, TTL 4.
//    Its traced run also measures the sharded engine (S = 8 shards,
//    min(4, nproc) threads, and one thread) on the first instance.
//  - sim_stack: churn + faults + adaptation + capacity on the legacy
//    engine at N = 10^4, streamed through StreamDriver windows with
//    state retirement, with a mid-run checkpoint restored into a fresh
//    driver that must replay the following windows bit-identically.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sppnet/common/rng.h"
#include "sppnet/io/checkpoint.h"
#include "sppnet/model/evaluator.h"
#include "sppnet/model/instance.h"
#include "sppnet/obs/metrics.h"
#include "sppnet/sim/simulator.h"
#include "sppnet/sim/stream.h"
#include "workload.h"

namespace perfbench {
namespace {

using sppnet::Configuration;
using sppnet::MetricsRegistry;
using sppnet::ModelInputs;
using sppnet::NetworkInstance;
using sppnet::SimOptions;
using sppnet::SimReport;
using sppnet::Simulator;

/// The repository's sim-vs-model agreement band (tests/sim).
constexpr double kModelBand = 0.15;

/// Instances per process.
constexpr int kInstances = 3;

/// Largest share of sim_stack's queries the fault plan may leave
/// unanswered. A query whose submitting partner crashes before its retry
/// is abandoned by the modelled protocol (about 1 in 10^5 at these
/// rates); far more than that means retries or failover broke.
constexpr double kMaxAbandonedShare = 0.01;

/// Message types whose sent counters the traced run reports.
constexpr const char* kMessageTypes[] = {"query", "response", "join",
                                         "update", "probe", "report"};

struct SimSpec {
  Configuration config;
  SimOptions options;
};

/// sim_flood inputs.
SimSpec FloodSpec(bool tiny) {
  SimSpec spec;
  spec.config.graph_size = tiny ? 4000 : 100000;
  spec.config.cluster_size = 10.0;
  spec.config.avg_outdegree = 4.0;
  spec.config.ttl = 4;
  spec.options.warmup_seconds = 1.0;
  spec.options.duration_seconds = tiny ? 20.0 : 3.0;
  return spec;
}

/// sim_stack inputs: the largest legal legacy-engine layer stack. The
/// fault plan's 1 s timeouts and 2 s backoff cap give a derived state
/// retention of 22.7 s, so retirement runs in the last four windows.
SimSpec StackSpec(bool tiny) {
  SimSpec spec;
  spec.config.graph_size = tiny ? 1000 : 10000;
  spec.config.cluster_size = 10.0;
  spec.config.avg_outdegree = 3.1;
  spec.config.ttl = 4;
  SimOptions& o = spec.options;
  o.warmup_seconds = 10.0;
  o.duration_seconds = 30.0;
  o.churn.enable = true;
  o.churn.partner_recovery_seconds = 5.0;
  o.faults.crash_rate_per_partner = 2e-4;
  o.faults.crash_recovery_seconds = 5.0;
  o.faults.message_drop_probability = 0.002;
  o.faults.max_delay_jitter_seconds = 0.02;
  o.faults.request_timeout_seconds = 1.0;
  o.faults.max_retries = 3;
  o.faults.backoff_cap_seconds = 2.0;
  o.adaptive.probe_interval_seconds = 2.0;
  o.adaptive.decision_interval_seconds = 10.0;
  o.adaptive.policy.max_bandwidth_bps = 1.0e8;
  o.adaptive.policy.max_proc_hz = 2.0e7;
  o.capacity.enable = true;
  o.capacity.window_seconds = 10.0;
  return spec;
}

/// Sharded-engine grid of the traced sim_flood run.
constexpr std::size_t kShards = 8;
constexpr std::size_t kShardThreads = 4;

constexpr double kStackWindowSeconds = 5.0;
/// Windows completed before the checkpoint is cut.
constexpr std::uint64_t kStackCheckpointWindow = 6;

/// Seed of instance `index` of a run; instance 0 uses the workload seed.
std::uint64_t InstanceSeed(std::uint64_t seed, int index) {
  return seed + static_cast<std::uint64_t>(index) * 0x9e3779b97f4a7c15ull;
}

NetworkInstance MakeInstance(const Configuration& config,
                             const ModelInputs& inputs, std::uint64_t seed,
                             Tracer& tracer) {
  auto span = tracer.Open("GenerateInstance", kLayerInstance);
  sppnet::Rng rng(seed);
  return sppnet::GenerateInstance(config, inputs, rng);
}

/// The first two steps of every set-up: model inputs and the instance.
struct Inputs {
  std::optional<ModelInputs> model;
  NetworkInstance instance;
  double generate_s = 0.0;
};

Inputs LoadInputs(const Configuration& config, std::uint64_t seed,
                  Tracer& tracer) {
  Inputs in;
  {
    auto span = tracer.Open("ModelInputs::Default", kLayerInstance);
    in.model.emplace(ModelInputs::Default());
  }
  const auto t = Clock::now();
  in.instance = MakeInstance(config, *in.model, seed, tracer);
  in.generate_s = SecondsSince(t);
  return in;
}

double ModelAggregate(const NetworkInstance& instance,
                      const Configuration& config, const ModelInputs& inputs,
                      Tracer& tracer) {
  auto span = tracer.Open("EvaluateInstance", kLayerEvaluator);
  return sppnet::EvaluateInstance(instance, config, inputs)
      .aggregate.TotalBps();
}

double RelErr(const SimReport& report, double model_aggregate) {
  return std::fabs(report.aggregate.TotalBps() / model_aggregate - 1.0);
}

/// One simulator run split the way the traced run reports it.
struct SimRun {
  double warmup_s = 0.0;    ///< RunUntil(warmup).
  double measured_s = 0.0;  ///< RunUntil(warmup + duration).
  double finalize_s = 0.0;
  std::uint64_t warmup_events = 0;
  SimReport report;
};

/// Drives a started simulator through the warmup and measurement
/// horizons and finalizes it.
SimRun DriveSimulator(Simulator& sim, const SimOptions& options,
                      std::string_view layer, Tracer& tracer) {
  SimRun run;
  const double end = options.warmup_seconds + options.duration_seconds;
  auto t = Clock::now();
  {
    auto span = tracer.Open("Simulator::RunUntil(warmup)", layer);
    sim.RunUntil(options.warmup_seconds);
  }
  run.warmup_s = SecondsSince(t);
  run.warmup_events = sim.events_dispatched();
  t = Clock::now();
  {
    auto span = tracer.Open("Simulator::RunUntil(end)", layer);
    sim.RunUntil(end);
  }
  run.measured_s = SecondsSince(t);
  t = Clock::now();
  {
    auto span = tracer.Open("Simulator::Finalize", layer);
    run.report = sim.Finalize(end);
  }
  run.finalize_s = SecondsSince(t);
  return run;
}

/// Event-loop time and events of a run's instances, split at the warmup
/// horizon.
struct LoopTotals {
  double warmup_s = 0.0;
  double measured_s = 0.0;
  double warmup_events = 0.0;
  double measured_events = 0.0;

  double loop_s() const { return warmup_s + measured_s; }
  double events() const { return warmup_events + measured_events; }
  void Add(bool warmup, double seconds, double events) {
    (warmup ? warmup_s : measured_s) += seconds;
    (warmup ? warmup_events : measured_events) += events;
  }
};

/// Loop-split and counter-derived simulator, queue and state metrics of a
/// traced run; `nodes` is the number of peers over all instances.
void SetSimulatorLayerMetrics(const MetricsRegistry& m, const LoopTotals& loop,
                              double nodes, WorkloadResult& result) {
  const auto count = [&](const std::string& name) {
    return static_cast<double>(m.CounterValue(name));
  };
  const auto per_event_ns = [](double seconds, double events) {
    return events > 0 ? seconds * 1e9 / events : 0.0;
  };
  const double dispatched = loop.events();
  result.Set("sim.run.ns_per_event.warmup",
             per_event_ns(loop.warmup_s, loop.warmup_events), "ns");
  result.Set("sim.run.ns_per_event.measured",
             per_event_ns(loop.measured_s, loop.measured_events), "ns");
  result.Set("sim.events.dispatched", dispatched, "count");
  for (const char* type : kMessageTypes) {
    result.Set(std::string("sim.msg.") + type + ".sent",
               count(std::string("sim.msg.") + type + ".sent"), "count");
  }
  const double deliveries = count("sim.msg.query.received");
  result.Set("sim.query.useful_ratio",
             deliveries > 0 ? 1.0 - count("sim.queries.duplicate") / deliveries
                            : 0.0,
             "ratio");
  result.Set("sim.queue.scheduled", count("sim.queue.scheduled"), "count");
  result.Set("sim.event_queue.depth_hwm",
             m.GaugeValue("sim.event_queue.depth_hwm"), "count");
  result.Set("sim.queue.slot_visits_per_event",
             dispatched > 0 ? count("sim.queue.slot_visits") / dispatched : 0.0,
             "ratio");
  result.Set("sim.queue.resizes", count("sim.queue.resizes"), "count");
  result.Set("sim.queue.global_scans", count("sim.queue.global_scans"),
             "count");
  // Scratch gauges are high-water marks over the instances; nodes are
  // per instance.
  const double nodes_per_instance = nodes / kInstances;
  result.Set("sim.queue.bytes_per_node",
             m.GaugeValue("sim.queue.scratch_bytes") / nodes_per_instance,
             "bytes");
  result.Set("sim.state.bytes_per_node",
             m.GaugeValue("sim.state.scratch_bytes") / nodes_per_instance,
             "bytes");
  result.Set("sim.state.duplicate_entries",
             count("sim.state.duplicate_entries"), "count");
}

/// Current resident set of this process, in MiB.
double CurrentRssMiB() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0;
  double resident_pages = 0.0;
  statm >> size_pages >> resident_pages;
  return resident_pages * 4096.0 / (1024.0 * 1024.0);
}

/// FNV-1a digest over every field of a SimReport, load vectors included:
/// two reports are bit-identical iff their digests match (up to hash
/// collisions).
std::uint64_t ReportDigest(const SimReport& r) {
  std::uint64_t h = sppnet::kFnv1aOffset;
  const auto mix_double = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = sppnet::Fnv1aMix64(h, bits);
  };
  const auto mix_load = [&](const sppnet::LoadVector& l) {
    mix_double(l.in_bps);
    mix_double(l.out_bps);
    mix_double(l.proc_hz);
  };
  for (const auto& l : r.partner_load) mix_load(l);
  for (const auto& l : r.client_load) mix_load(l);
  mix_load(r.aggregate);
  for (const double v :
       {r.measured_seconds, r.mean_results_per_query, r.mean_response_hops,
        r.mean_first_response_latency, r.mean_rings_per_query,
        r.cluster_outage_fraction, r.client_disconnected_fraction,
        r.query_success_rate, r.mean_recovery_latency_seconds,
        r.final_avg_outdegree, r.capacity_mean_utilization,
        r.capacity_sp_mean_utilization}) {
    mix_double(v);
  }
  for (const std::uint64_t v :
       {r.events_scheduled, r.events_dispatched, r.queue_depth_hwm,
        r.queries_submitted, r.responses_delivered, r.duplicate_queries,
        r.partner_failures, r.partner_recoveries, r.cluster_outages,
        r.faults_crashes, r.faults_messages_dropped,
        r.faults_request_timeouts, r.faults_retries,
        r.faults_failover_episodes, r.faults_client_rejoins,
        r.queries_succeeded, r.queries_failed, r.adapt_rounds,
        r.adapt_splits, r.adapt_coalesces, r.adapt_edges_added,
        r.adapt_client_moves, r.final_clusters, r.capacity_windows,
        r.capacity_overload_episodes}) {
    h = sppnet::Fnv1aMix64(h, v);
  }
  return h;
}

/// model_rel_err: |sim / model - 1| on the oracle instance (the
/// workload's configuration at the oracle seed, simulator seed too), so
/// that it is one deterministic figure per workload that no speed change
/// may move.
void SetOracleError(const Configuration& config, const ModelInputs& inputs,
                    SimOptions options, Tracer& tracer,
                    WorkloadResult& result) {
  const NetworkInstance oracle =
      MakeInstance(config, inputs, kOracleSeed, tracer);
  options.seed = kOracleSeed;
  options.metrics = nullptr;
  SimReport report;
  {
    auto span = tracer.Open("Simulator::Run(oracle)", kLayerSimulator);
    Simulator sim(oracle, config, inputs, options);
    report = sim.Run();
  }
  const double err =
      RelErr(report, ModelAggregate(oracle, config, inputs, tracer));
  result.Set("model_rel_err", err, "ratio");
  result.Check(err <= kModelBand,
               "oracle instance outside the sim-vs-model band");
}

/// The sharded-engine layer, measured in sim_flood's traced run on its
/// first instance: S = 8 shards drained by min(4, nproc) threads, then
/// by one thread. Both reports must be bit-identical and agree with the
/// model; the legacy loop time over the parallel one is the speedup
/// ROADMAP item 2 targets.
void MeasureShardedLayer(const RunContext& ctx, const SimSpec& spec,
                         const Inputs& in, double legacy_loop_s,
                         WorkloadResult& result) {
  Tracer& tracer = *ctx.tracer;
  const std::size_t cores =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  const auto run_sharded = [&](std::size_t threads, MetricsRegistry& m) {
    SimOptions options = spec.options;
    options.seed = InstanceSeed(ctx.seed, 0);
    options.shards.num_shards = kShards;
    options.shards.num_threads = threads;
    options.metrics = &m;
    Simulator sim(in.instance, spec.config, *in.model, options);
    {
      auto s = tracer.Open("Simulator::Start", kLayerShardedSim);
      sim.Start();
    }
    return DriveSimulator(sim, options, kLayerShardedSim, tracer);
  };
  MetricsRegistry registry;
  const SimRun parallel =
      run_sharded(std::min<std::size_t>(kShardThreads, cores), registry);
  MetricsRegistry serial_registry;
  const SimRun serial = run_sharded(1, serial_registry);
  const double loop_s = parallel.warmup_s + parallel.measured_s;
  const double cells =
      static_cast<double>(registry.CounterValue("sim.shard.cells"));
  const std::uint64_t violations =
      registry.CounterValue("sim.shard.lookahead_violations");
  result.Set("sim.shard.cells", cells, "count");
  result.Set("sim.shard.ns_per_cell", cells > 0 ? loop_s * 1e9 / cells : 0.0,
             "ns");
  result.Set("sim.shard.thread_scaling",
             (serial.warmup_s + serial.measured_s) / loop_s, "ratio");
  result.Set("sim.shard.speedup_vs_legacy", legacy_loop_s / loop_s, "ratio");
  result.Set("sim.shard.min_merge_margin",
             registry.GaugeValue("sim.shard.min_merge_margin"), "s");
  result.Set("sim.shard.lookahead_violations",
             static_cast<double>(violations), "count");
  result.Check(violations == 0, "sharded lookahead violations");
  result.Check(ReportDigest(serial.report) == ReportDigest(parallel.report),
               "sharded S8T1 report differs from the S8Tn report");
  auto span = tracer.Open("checks", kLayerBenchmark);
  result.Check(RelErr(parallel.report, ModelAggregate(in.instance, spec.config,
                                                      *in.model, tracer)) <=
                   kModelBand,
               "sharded run outside the sim-vs-model band");
}

/// Protocol-relevant content of a window snapshot (engine-internal
/// sim.queue.* / sim.state.* instruments legitimately differ across a
/// restore and are excluded, as in the checkpoint tests).
std::uint64_t SnapshotDigest(const sppnet::StreamSnapshot& snap) {
  std::uint64_t h = sppnet::kFnv1aOffset;
  h = sppnet::Fnv1aMix64(h, snap.window_index);
  h = sppnet::Fnv1aMix64(h, snap.events_dispatched_delta);
  for (const auto& [name, delta] : snap.counter_deltas) {
    if (name.rfind("sim.queue.", 0) == 0 || name.rfind("sim.state.", 0) == 0) {
      continue;
    }
    h = sppnet::Fnv1a64({reinterpret_cast<const std::uint8_t*>(name.data()),
                         name.size()},
                        h);
    h = sppnet::Fnv1aMix64(h, delta);
  }
  return h;
}

std::uint64_t CounterDeltaSum(const std::vector<sppnet::StreamSnapshot>& snaps,
                              std::string_view name) {
  std::uint64_t total = 0;
  for (const auto& snap : snaps) {
    for (const auto& [counter, delta] : snap.counter_deltas) {
      if (counter == name) total += delta;
    }
  }
  return total;
}

/// One sim_stack instance: set-up, the timed windows with the checkpoint
/// cut, then the restore and replay, with its output checks.
struct StackRun {
  Inputs in;
  double setup_s = 0.0;
  double construct_s = 0.0;
  double wall_s = 0.0;
  double finish_s = 0.0;
  double save_s = 0.0;
  double restore_s = 0.0;
  double replay_s = 0.0;
  std::uint64_t replay_events = 0;
  std::size_t checkpoint_bytes = 0;
  double retention_s = 0.0;
  double rss_growth = 0.0;
  std::vector<double> window_s;
  LoopTotals loop;
  SimReport report;
};

StackRun RunStackInstance(const RunContext& ctx, const SimSpec& spec,
                          const SimOptions& options, WorkloadResult& result) {
  Tracer& tracer = *ctx.tracer;
  StackRun run;
  // The restored driver publishes nothing: the registry already holds
  // the uninterrupted run's totals.
  SimOptions replay_options = options;
  replay_options.metrics = nullptr;
  sppnet::StreamOptions stream;
  stream.window_seconds = kStackWindowSeconds;
  const auto windows = static_cast<std::uint64_t>(std::llround(
      (options.warmup_seconds + options.duration_seconds) /
      kStackWindowSeconds));

  std::unique_ptr<sppnet::StreamDriver> driver;
  const auto t0 = Clock::now();
  {
    auto span = tracer.Open("setup", kLayerBenchmark);
    run.in = LoadInputs(spec.config, options.seed, tracer);
    const auto t = Clock::now();
    auto s = tracer.Open("StreamDriver::StreamDriver", kLayerStream);
    driver = std::make_unique<sppnet::StreamDriver>(
        run.in.instance, spec.config, *run.in.model, options, stream);
    run.construct_s = SecondsSince(t);
  }
  run.setup_s = SecondsSince(t0);

  std::vector<sppnet::StreamSnapshot> snapshots;
  std::vector<double> window_rss;
  std::vector<std::uint8_t> checkpoint;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  bool restored = false;
  bool replay_identical = true;
  const auto t1 = Clock::now();
  {
    auto span = tracer.Open("timed_phase", kLayerBenchmark);
    run.retention_s = driver->effective_retention_seconds();
    for (std::uint64_t w = 0; w < windows; ++w) {
      const auto t = Clock::now();
      {
        auto s = tracer.Open("StreamDriver::AdvanceWindow", kLayerStream);
        snapshots.push_back(driver->AdvanceWindow());
      }
      const double seconds = SecondsSince(t);
      run.window_s.push_back(seconds);
      const sppnet::StreamSnapshot& snap = snapshots.back();
      run.loop.Add(snap.window_end <= options.warmup_seconds, seconds,
                   static_cast<double>(snap.events_dispatched_delta));
      if (ctx.trace) window_rss.push_back(CurrentRssMiB());
      if (w + 1 == kStackCheckpointWindow) {
        const auto tc = Clock::now();
        auto s = tracer.Open("StreamDriver::Checkpoint", kLayerCheckpoint);
        checkpoint = driver->Checkpoint();
        run.save_s = SecondsSince(tc);
      }
    }
    auto t = Clock::now();
    {
      auto s = tracer.Open("StreamDriver::Finish", kLayerStream);
      run.report = driver->Finish();
    }
    run.finish_s = SecondsSince(t);
    events = driver->events_dispatched();
    digest = driver->snapshot_digest();
    driver.reset();

    run.checkpoint_bytes = checkpoint.size();
    if (ctx.corrupt_checkpoint && !checkpoint.empty()) {
      checkpoint[checkpoint.size() / 2] ^= 0x5a;
    }
    t = Clock::now();
    {
      auto s = tracer.Open("StreamDriver::Restore", kLayerCheckpoint);
      driver = std::make_unique<sppnet::StreamDriver>(
          run.in.instance, spec.config, *run.in.model, replay_options, stream);
      restored = driver->Restore(checkpoint);
    }
    run.restore_s = SecondsSince(t);
    if (restored) {
      const std::uint64_t events_at_cut = driver->events_dispatched();
      t = Clock::now();
      for (std::uint64_t w = kStackCheckpointWindow; w < windows; ++w) {
        auto s = tracer.Open("StreamDriver::AdvanceWindow(replay)",
                             kLayerStream);
        replay_identical = replay_identical &&
                           SnapshotDigest(driver->AdvanceWindow()) ==
                               SnapshotDigest(snapshots[w]);
      }
      run.replay_s = SecondsSince(t);
      run.replay_events = driver->events_dispatched() - events_at_cut;
      auto s = tracer.Open("StreamDriver::Finish(replay)", kLayerStream);
      const SimReport replayed = driver->Finish();
      replay_identical = replay_identical &&
                         driver->events_dispatched() == events &&
                         driver->snapshot_digest() == digest &&
                         ReportDigest(replayed) == ReportDigest(run.report);
    }
    driver.reset();
  }
  run.wall_s = SecondsSince(t1);

  // Queries the injected crashes leave unanswered are an outcome of the
  // simulated protocol, reported as sim.faults.queries.failed; they fail
  // no operation of the benchmark unless there are too many of them.
  result.attempted += run.report.queries_submitted;
  result.Check(static_cast<double>(run.report.queries_failed) <=
                   kMaxAbandonedShare *
                       static_cast<double>(run.report.queries_submitted),
               "sim_stack: " + std::to_string(run.report.queries_failed) +
                   " of " + std::to_string(run.report.queries_submitted) +
                   " queries abandoned under the fault plan");
  result.Check(restored, "sim_stack: the checkpoint did not restore");
  result.Check(replay_identical,
               "sim_stack: the restored replay differs from the "
               "uninterrupted run");
  std::uint64_t delta_events = 0;
  for (const auto& snap : snapshots) {
    delta_events += snap.events_dispatched_delta;
  }
  result.Check(delta_events == events &&
                   events == run.report.events_dispatched &&
                   CounterDeltaSum(snapshots, "sim.queries.submitted") ==
                       run.report.queries_submitted &&
                   CounterDeltaSum(snapshots, "sim.responses.delivered") ==
                       run.report.responses_delivered,
               "sim_stack: window deltas do not sum to the run totals");
  // Resident set after the last window over the first window whose
  // boundary lies past the retention horizon (retirement running).
  for (std::size_t w = 0; ctx.trace && w < snapshots.size(); ++w) {
    if (snapshots[w].window_end > run.retention_s) {
      run.rss_growth = window_rss.back() / window_rss[w];
      break;
    }
  }
  return run;
}

}  // namespace

WorkloadResult RunSimFlood(const RunContext& ctx) {
  WorkloadResult result;
  Tracer& tracer = *ctx.tracer;
  const SimSpec spec = FloodSpec(ctx.tiny);
  MetricsRegistry registry;  // Shared by the instances: counters add up.
  std::vector<double> setup_samples;
  double wall_s = 0.0;
  double generate_s = 0.0;
  double construct_s = 0.0;
  double start_s = 0.0;
  double finalize_s = 0.0;
  double nodes = 0.0;
  double first_loop_s = 0.0;
  LoopTotals loop;
  std::optional<Inputs> first;  // Kept for the sharded-layer measurement.
  for (int i = 0; i < kInstances; ++i) {
    SimOptions options = spec.options;
    options.seed = InstanceSeed(ctx.seed, i);
    if (ctx.trace) options.metrics = &registry;
    const auto t0 = Clock::now();
    Inputs in;
    std::unique_ptr<Simulator> sim;
    {
      auto span = tracer.Open("setup", kLayerBenchmark);
      in = LoadInputs(spec.config, options.seed, tracer);
      auto t = Clock::now();
      {
        auto s = tracer.Open("Simulator::Simulator", kLayerSimulator);
        sim = std::make_unique<Simulator>(in.instance, spec.config, *in.model,
                                          options);
      }
      construct_s += SecondsSince(t);
      t = Clock::now();
      auto s = tracer.Open("Simulator::Start", kLayerSimulator);
      sim->Start();
      start_s += SecondsSince(t);
    }
    setup_samples.push_back(SecondsSince(t0));
    generate_s += in.generate_s;

    const auto t1 = Clock::now();
    SimRun run;
    {
      auto span = tracer.Open("timed_phase", kLayerBenchmark);
      run = DriveSimulator(*sim, options, kLayerSimulator, tracer);
      sim.reset();
    }
    wall_s += SecondsSince(t1);
    const double events = static_cast<double>(run.report.events_dispatched);
    const double warmup_events = static_cast<double>(run.warmup_events);
    loop.Add(true, run.warmup_s, warmup_events);
    loop.Add(false, run.measured_s, events - warmup_events);
    finalize_s += run.finalize_s;
    nodes += static_cast<double>(in.instance.TotalUsers());

    result.attempted += run.report.queries_submitted;
    result.failed += run.report.queries_failed;
    result.Check(run.report.queries_submitted > 0, "no query was submitted");
    if (ctx.check_model) {
      // The run's own instance must agree with the model within the
      // repository band.
      auto span = tracer.Open("checks", kLayerBenchmark);
      const double err = RelErr(
          run.report,
          ModelAggregate(in.instance, spec.config, *in.model, tracer));
      result.Check(err <= kModelBand,
                   "sim aggregate bandwidth is " + std::to_string(err) +
                       " away from the model (band " +
                       std::to_string(kModelBand) + ")");
    }
    if (i == 0) {
      first_loop_s = run.warmup_s + run.measured_s;
      first = std::move(in);
    }
  }
  result.Set("setup_s", Median(setup_samples), "s");
  result.Set("wall_s", wall_s, "s");
  result.Set("events_per_s", loop.events() / loop.loop_s(), "events/s");
  result.Set("peak_rss_mib", PeakRssMiB(), "MiB");

  if (ctx.check_model) {
    auto span = tracer.Open("checks", kLayerBenchmark);
    SetOracleError(spec.config, *first->model, spec.options, tracer, result);
  }
  if (ctx.trace) {
    result.Set("model.instance.generate_s", generate_s, "s");
    result.Set("sim.construct_s", construct_s, "s");
    result.Set("sim.start_s", start_s, "s");
    result.Set("sim.finalize_s", finalize_s, "s");
    SetSimulatorLayerMetrics(registry, loop, nodes, result);
    MeasureShardedLayer(ctx, spec, *first, first_loop_s, result);
  }
  if (!result.check_failures.empty()) result.failed = result.attempted;
  return result;
}

WorkloadResult RunSimStack(const RunContext& ctx) {
  WorkloadResult result;
  Tracer& tracer = *ctx.tracer;
  const SimSpec spec = StackSpec(ctx.tiny);
  MetricsRegistry registry;  // Shared by the instances: counters add up.
  std::vector<double> setup_samples;
  std::vector<double> window_s;
  std::map<std::string, double> totals;  // Summed per-layer figures.
  LoopTotals loop;
  double wall_s = 0.0;
  double nodes = 0.0;
  double retention_s = 0.0;
  double rss_growth = 0.0;
  double replay_s = 0.0;
  double replay_events = 0.0;
  std::optional<ModelInputs> model;
  for (int i = 0; i < kInstances; ++i) {
    SimOptions options = spec.options;
    options.seed = InstanceSeed(ctx.seed, i);
    if (ctx.trace) options.metrics = &registry;
    StackRun run = RunStackInstance(ctx, spec, options, result);
    setup_samples.push_back(run.setup_s);
    wall_s += run.wall_s;
    loop.Add(true, run.loop.warmup_s, run.loop.warmup_events);
    loop.Add(false, run.loop.measured_s, run.loop.measured_events);
    window_s.insert(window_s.end(), run.window_s.begin(), run.window_s.end());
    nodes += static_cast<double>(run.in.instance.TotalUsers());
    retention_s = run.retention_s;
    rss_growth = std::max(rss_growth, run.rss_growth);
    replay_s += run.replay_s;
    replay_events += static_cast<double>(run.replay_events);
    const SimReport& r = run.report;
    totals["model.instance.generate_s"] += run.in.generate_s;
    totals["sim.construct_s"] += run.construct_s;
    totals["sim.finalize_s"] += run.finish_s;
    totals["io.checkpoint.bytes"] += static_cast<double>(run.checkpoint_bytes);
    totals["io.checkpoint.save_s"] += run.save_s;
    totals["io.checkpoint.restore_s"] += run.restore_s;
    totals["sim.adaptive.rounds"] += static_cast<double>(r.adapt_rounds);
    totals["sim.adaptive.splits"] += static_cast<double>(r.adapt_splits);
    totals["sim.adaptive.client_moves"] +=
        static_cast<double>(r.adapt_client_moves);
    totals["sim.faults.request_timeouts"] +=
        static_cast<double>(r.faults_request_timeouts);
    totals["sim.faults.retries"] += static_cast<double>(r.faults_retries);
    totals["sim.faults.queries.failed"] +=
        static_cast<double>(r.queries_failed);
    totals["sim.churn.partner_failures"] +=
        static_cast<double>(r.partner_failures);
    totals["sim.capacity.windows"] += static_cast<double>(r.capacity_windows);
    if (i == 0) model = std::move(run.in.model);
  }
  result.Set("setup_s", Median(setup_samples), "s");
  result.Set("wall_s", wall_s, "s");
  result.Set("events_per_s", loop.events() / loop.loop_s(), "events/s");
  result.Set("peak_rss_mib", PeakRssMiB(), "MiB");

  if (ctx.check_model) {
    // The stack's engine against the oracle: the same configuration with
    // every layer off (the model describes none of them).
    auto span = tracer.Open("checks", kLayerBenchmark);
    SimOptions plain;
    plain.warmup_seconds = 2.0;
    plain.duration_seconds = 10.0;
    SetOracleError(spec.config, *model, plain, tracer, result);
  }

  if (ctx.trace) {
    const std::map<std::string, std::string> units = {
        {"model.instance.generate_s", "s"}, {"sim.construct_s", "s"},
        {"sim.finalize_s", "s"},            {"io.checkpoint.bytes", "bytes"},
        {"io.checkpoint.save_s", "s"},      {"io.checkpoint.restore_s", "s"}};
    for (const auto& [name, value] : totals) {
      const auto unit = units.find(name);
      result.Set(name, value, unit == units.end() ? "count" : unit->second);
    }
    SetSimulatorLayerMetrics(registry, loop, nodes, result);
    result.Set("sim.faults.retry_ratio",
               totals["sim.faults.retries"] /
                   std::max(1.0, static_cast<double>(result.attempted)),
               "ratio");
    result.Set("sim.stream.window_s.p50", Median(window_s), "s");
    result.Set("sim.stream.window_s.max",
               *std::max_element(window_s.begin(), window_s.end()), "s");
    result.Set("sim.stream.retention_s", retention_s, "s");
    result.Set("sim.stream.rss_growth", rss_growth, "ratio");
    result.Set("io.checkpoint.bytes_per_node",
               totals["io.checkpoint.bytes"] / nodes, "bytes");
    result.Set("io.checkpoint.replay_ns_per_event",
               replay_events > 0 ? replay_s * 1e9 / replay_events : 0.0, "ns");
  }
  if (!result.check_failures.empty()) result.failed = result.attempted;
  return result;
}

}  // namespace perfbench
