#include "sppnet/model/trials.h"

#include <chrono>
#include <utility>
#include <vector>

#include "sppnet/common/rng.h"
#include "sppnet/common/trial_runner.h"
#include "sppnet/model/instance.h"
#include "sppnet/obs/metrics.h"

namespace sppnet {
namespace {

double Metric(const LoadVector& lv, LoadMetric metric) {
  switch (metric) {
    case LoadMetric::kInBps:
      return lv.in_bps;
    case LoadMetric::kOutBps:
      return lv.out_bps;
    case LoadMetric::kProcHz:
      return lv.proc_hz;
    case LoadMetric::kTotalBps:
      return lv.TotalBps();
  }
  return 0.0;
}

/// Everything one trial contributes to the report, extracted on the
/// worker so the fold stays cheap and deterministic.
struct TrialObservation {
  LoadVector aggregate;
  LoadVector sp_mean;
  LoadVector client_mean;
  bool has_clients = false;
  double results = 0.0;
  double epl = 0.0;
  double reach = 0.0;
  double duplicates = 0.0;
  double mean_connections = 0.0;
  // (degree, out_bps, results) per cluster, only when histograms are on.
  std::vector<int> degrees;
  std::vector<double> sp_out_bps;  // One entry per partner.
  std::vector<double> cluster_results;
  int redundancy_k = 1;
  // Wall-clock phase timings, measured on the worker and folded into
  // the report-only trial timers (never into seeded behaviour).
  double generate_seconds = 0.0;
  double evaluate_seconds = 0.0;
  // Deterministic eval.bfs.* kernel tallies (bit-identical across every
  // parallelism setting) plus report-only evaluation phase times.
  std::uint64_t eval_sources = 0;
  std::uint64_t eval_batches = 0;
  std::uint64_t eval_levels = 0;
  std::uint64_t eval_frontier_entries = 0;
  std::uint64_t eval_reached = 0;
  double eval_scratch_bytes = 0.0;
  double eval_expand_seconds = 0.0;
  double eval_accumulate_seconds = 0.0;
};

double TimerSeconds(const MetricsRegistry& metrics, const char* name) {
  const auto it = metrics.timers().find(name);
  return it == metrics.timers().end() ? 0.0 : it->second.total_seconds();
}

TrialObservation RunOneTrial(const Configuration& config,
                             const ModelInputs& inputs, Rng trial_rng,
                             const TrialOptions& options) {
  const bool collect_histograms = options.collect_outdegree_histograms;
  const auto t0 = std::chrono::steady_clock::now();
  const NetworkInstance instance = GenerateInstance(config, inputs, trial_rng);
  const auto t1 = std::chrono::steady_clock::now();
  MetricsRegistry eval_metrics;
  EvalOptions eval_options;
  eval_options.parallelism = options.eval_parallelism;
  eval_options.metrics = &eval_metrics;
  const InstanceLoads loads =
      EvaluateInstance(instance, config, inputs, eval_options);
  const auto t2 = std::chrono::steady_clock::now();

  TrialObservation obs;
  obs.eval_sources = eval_metrics.CounterValue("eval.sources");
  obs.eval_batches = eval_metrics.CounterValue("eval.bfs.batches");
  obs.eval_levels = eval_metrics.CounterValue("eval.bfs.levels");
  obs.eval_frontier_entries =
      eval_metrics.CounterValue("eval.bfs.frontier_entries");
  obs.eval_reached = eval_metrics.CounterValue("eval.reached");
  obs.eval_scratch_bytes = eval_metrics.GaugeValue("eval.scratch.bytes");
  obs.eval_expand_seconds = TimerSeconds(eval_metrics, "eval.bfs.expand");
  obs.eval_accumulate_seconds = TimerSeconds(eval_metrics, "eval.accumulate");
  obs.generate_seconds = std::chrono::duration<double>(t1 - t0).count();
  obs.evaluate_seconds = std::chrono::duration<double>(t2 - t1).count();
  obs.aggregate = loads.aggregate;
  obs.sp_mean = InstanceLoads::MeanOf(loads.partner_load);
  if (!loads.client_load.empty()) {
    obs.client_mean = InstanceLoads::MeanOf(loads.client_load);
    obs.has_clients = true;
  }
  obs.results = loads.mean_results;
  obs.epl = loads.mean_epl;
  obs.reach = loads.mean_reach;
  obs.duplicates = loads.duplicate_msgs_per_sec;

  const std::size_t n = instance.NumClusters();
  double conn_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    conn_sum += instance.PartnerConnections(i);
  }
  obs.mean_connections = n > 0 ? conn_sum / static_cast<double>(n) : 0.0;

  if (collect_histograms) {
    const auto k = static_cast<std::size_t>(instance.redundancy_k);
    obs.redundancy_k = instance.redundancy_k;
    obs.degrees.reserve(n);
    obs.cluster_results.reserve(n);
    obs.sp_out_bps.reserve(n * k);
    for (std::size_t i = 0; i < n; ++i) {
      obs.degrees.push_back(static_cast<int>(
          instance.topology.Degree(static_cast<NodeId>(i))));
      obs.cluster_results.push_back(loads.results_per_query[i]);
      for (std::size_t p = 0; p < k; ++p) {
        obs.sp_out_bps.push_back(loads.partner_load[i * k + p].out_bps);
      }
    }
  }
  return obs;
}

}  // namespace

ConfigurationReport RunTrials(const Configuration& config,
                              const ModelInputs& inputs,
                              const TrialOptions& options) {
  // Scheduling (pre-split streams, strided workers, fold in trial
  // order) is the shared RunTrialLoop contract; this function only
  // supplies the per-trial work and the fold.
  TrialRunnerOptions runner;
  runner.num_trials = options.num_trials;
  runner.seed = options.seed;
  runner.parallelism = options.parallelism;

  Counter* trials_completed = nullptr;
  WallTimer* generate_timer = nullptr;
  WallTimer* evaluate_timer = nullptr;
  if (options.metrics != nullptr) {
    trials_completed = &options.metrics->GetCounter("trials.completed");
    generate_timer = &options.metrics->GetTimer("trials.generate");
    evaluate_timer = &options.metrics->GetTimer("trials.evaluate");
  }
  ConfigurationReport report;
  const auto fold = [&](TrialObservation obs, std::size_t) {
    if (trials_completed != nullptr) {
      trials_completed->Increment();
      generate_timer->Record(obs.generate_seconds);
      evaluate_timer->Record(obs.evaluate_seconds);
      MetricsRegistry& m = *options.metrics;
      m.GetCounter("eval.sources").Increment(obs.eval_sources);
      m.GetCounter("eval.bfs.batches").Increment(obs.eval_batches);
      m.GetCounter("eval.bfs.levels").Increment(obs.eval_levels);
      m.GetCounter("eval.bfs.frontier_entries")
          .Increment(obs.eval_frontier_entries);
      m.GetCounter("eval.reached").Increment(obs.eval_reached);
      m.GetGauge("eval.scratch.bytes").SetMax(obs.eval_scratch_bytes);
      m.GetTimer("eval.bfs.expand").Record(obs.eval_expand_seconds);
      m.GetTimer("eval.accumulate").Record(obs.eval_accumulate_seconds);
    }
    report.aggregate_in_bps.Add(obs.aggregate.in_bps);
    report.aggregate_out_bps.Add(obs.aggregate.out_bps);
    report.aggregate_proc_hz.Add(obs.aggregate.proc_hz);
    report.sp_in_bps.Add(obs.sp_mean.in_bps);
    report.sp_out_bps.Add(obs.sp_mean.out_bps);
    report.sp_proc_hz.Add(obs.sp_mean.proc_hz);
    if (obs.has_clients) {
      report.client_in_bps.Add(obs.client_mean.in_bps);
      report.client_out_bps.Add(obs.client_mean.out_bps);
      report.client_proc_hz.Add(obs.client_mean.proc_hz);
    }
    report.results_per_query.Add(obs.results);
    report.epl.Add(obs.epl);
    report.reach.Add(obs.reach);
    report.duplicate_msgs_per_sec.Add(obs.duplicates);
    report.sp_connections.Add(obs.mean_connections);
    if (!obs.degrees.empty()) {
      const auto k = static_cast<std::size_t>(obs.redundancy_k);
      for (std::size_t i = 0; i < obs.degrees.size(); ++i) {
        report.results_by_outdegree.Add(obs.degrees[i],
                                        obs.cluster_results[i]);
        for (std::size_t p = 0; p < k; ++p) {
          report.sp_out_bps_by_outdegree.Add(obs.degrees[i],
                                             obs.sp_out_bps[i * k + p]);
        }
      }
    }
  };
  RunTrialLoop(
      runner,
      [&](Rng trial_rng, std::size_t) {
        return RunOneTrial(config, inputs, trial_rng, options);
      },
      fold);
  return report;
}

std::vector<double> AllNodeLoads(const InstanceLoads& loads,
                                 LoadMetric metric) {
  std::vector<double> out;
  out.reserve(loads.partner_load.size() + loads.client_load.size());
  for (const auto& lv : loads.partner_load) out.push_back(Metric(lv, metric));
  for (const auto& lv : loads.client_load) out.push_back(Metric(lv, metric));
  return out;
}

}  // namespace sppnet
