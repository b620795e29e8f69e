#ifndef SPPNET_MODEL_TRIALS_H_
#define SPPNET_MODEL_TRIALS_H_

#include <cstdint>
#include <vector>

#include "sppnet/common/stats.h"
#include "sppnet/model/config.h"
#include "sppnet/model/evaluator.h"

namespace sppnet {

class MetricsRegistry;

/// Options for Step 4 of the analysis: repeated trials over fresh
/// instances of one configuration, averaged with confidence intervals.
struct TrialOptions {
  std::size_t num_trials = 5;
  std::uint64_t seed = 42;
  /// If true, also populate the per-outdegree histograms used by
  /// Figures 7 and 8 (slightly more bookkeeping per trial).
  bool collect_outdegree_histograms = false;
  /// Worker threads for the trials. Results are bit-identical to the
  /// serial run regardless of the value: per-trial RNG streams are
  /// pre-split and observations are folded in trial order.
  std::size_t parallelism = 1;
  /// Worker threads *within* each trial's evaluation, sharding source
  /// batches (see EvalOptions::parallelism). Bit-transparent like
  /// `parallelism`; the two compose (trials x batches workers).
  std::size_t eval_parallelism = 1;
  /// Optional observability sink (see obs/metrics.h). When set, the
  /// runner publishes the "trials.completed" counter plus the
  /// "trials.generate" / "trials.evaluate" wall-clock phase timers,
  /// and folds the per-trial eval.bfs.* kernel counters/gauges and
  /// phase timers emitted by the evaluation engine. Counters are
  /// folded in trial order and are bit-identical across parallelism
  /// settings; the timers are report-only wall-clock values and carry
  /// no determinism guarantee. Not owned.
  MetricsRegistry* metrics = nullptr;
};

/// Cross-trial summary of one configuration: E[E[M|I]] = E[M] per the
/// paper, with enough per-class breakdown to regenerate every figure.
struct ConfigurationReport {
  // Aggregate load over all nodes (equation 4).
  RunningStat aggregate_in_bps;
  RunningStat aggregate_out_bps;
  RunningStat aggregate_proc_hz;

  // Individual load of the super-peer class (equation 3; with
  // redundancy every partner is one observation).
  RunningStat sp_in_bps;
  RunningStat sp_out_bps;
  RunningStat sp_proc_hz;

  // Individual load of the client class.
  RunningStat client_in_bps;
  RunningStat client_out_bps;
  RunningStat client_proc_hz;

  // Quality of results and flood behaviour (query-rate weighted).
  RunningStat results_per_query;
  RunningStat epl;
  RunningStat reach;
  RunningStat duplicate_msgs_per_sec;

  // Mean open connections per super-peer partner.
  RunningStat sp_connections;

  // Per-outdegree histograms (Figures 7/8); populated only on request.
  GroupedStat sp_out_bps_by_outdegree;
  GroupedStat results_by_outdegree;

  /// Aggregate (in + out) bandwidth mean, the y-axis of Figure 4.
  double AggregateBandwidthMean() const {
    return aggregate_in_bps.Mean() + aggregate_out_bps.Mean();
  }
};

/// Runs `options.num_trials` generate-and-evaluate rounds for `config`
/// and accumulates the report. Deterministic in (config, inputs, seed).
ConfigurationReport RunTrials(const Configuration& config,
                              const ModelInputs& inputs,
                              const TrialOptions& options);

/// Which scalar to extract from a LoadVector.
enum class LoadMetric { kInBps, kOutBps, kProcHz, kTotalBps };

/// Flattens every node's load (all partners, then all clients) into one
/// vector of the chosen metric — the input of the Figure 12 rank plot.
std::vector<double> AllNodeLoads(const InstanceLoads& loads,
                                 LoadMetric metric);

}  // namespace sppnet

#endif  // SPPNET_MODEL_TRIALS_H_
