// paper_sweep: the Figure 4/5 sweep through RunTrials — the four
// reference systems x the 13-point cluster sweep at N = 10^4 with trial
// parallelism 2, the row construction of bench/fig04_aggregate_bandwidth.
// It never touches the simulator.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "sppnet/io/table.h"
#include "sppnet/model/config.h"
#include "sppnet/model/trials.h"
#include "sppnet/obs/metrics.h"
#include "workload.h"

namespace perfbench {
namespace {

using sppnet::ConfigurationReport;
using sppnet::Configuration;
using sppnet::GraphType;
using sppnet::ModelInputs;
using sppnet::TableWriter;
using sppnet::TrialOptions;

struct SweepSystem {
  const char* name;
  GraphType graph_type;
  double avg_outdegree;
  int ttl;
  bool redundancy;
};

constexpr SweepSystem kSystems[] = {
    {"strong", GraphType::kStronglyConnected, 0.0, 1, false},
    {"strong+red", GraphType::kStronglyConnected, 0.0, 1, true},
    {"power3.1", GraphType::kPowerLaw, 3.1, 7, false},
    {"power3.1+red", GraphType::kPowerLaw, 3.1, 7, true},
};

constexpr double kClusterSweep[] = {1,   2,   5,    10,   20,   50,  100,
                                    200, 500, 1000, 2000, 5000, 10000};
constexpr double kTinyClusterSweep[] = {1, 2, 5, 10, 20, 50, 100, 200};

constexpr std::size_t kFullGraphSize = 10000;
constexpr std::size_t kTinyGraphSize = 400;
constexpr std::size_t kTrialParallelism = 2;
/// Set-up repetitions; set-up time is reported as their median.
constexpr int kSetupReps = 3;

/// Trial counts of bench/fig04: the Theta(N^2) power-law points at
/// cluster size <= 2 run fewer trials.
std::size_t TrialsFor(const SweepSystem& system, double cluster_size) {
  return system.graph_type == GraphType::kPowerLaw && cluster_size <= 2 ? 2
                                                                        : 4;
}

Configuration MakeConfig(const SweepSystem& system, double cluster_size,
                         std::size_t graph_size) {
  Configuration c;
  c.graph_type = system.graph_type;
  c.graph_size = graph_size;
  c.cluster_size = cluster_size;
  c.redundancy = system.redundancy;
  if (system.avg_outdegree > 0.0) c.avg_outdegree = system.avg_outdegree;
  c.ttl = system.ttl;
  return c;
}

/// Pinned aggregate bandwidth (bps) and results per query of every full
/// sweep point at the oracle seed, in sweep order. Any seed must land
/// within PinTolerance() of these.
struct Pin {
  double aggregate_bps;
  double results_per_query;
};
constexpr Pin kSweepPins[] = {
    {1.58013e+09, 880.646},
    {9.76197e+08, 882.482},
    {6.00931e+08, 881.862},
    {4.60356e+08, 882.079},
    {3.79433e+08, 891.408},
    {3.11453e+08, 888.23},
    {2.83368e+08, 886.169},
    {2.63734e+08, 881.89},
    {2.53198e+08, 883.89},
    {2.47252e+08, 891.625},
    {2.59918e+08, 939.307},
    {1.91569e+08, 881.364},
    {1.13577e+08, 825.074},
    {8.86151e+08, 880.646},
    {5.69738e+08, 881.387},
    {4.48279e+08, 881.523},
    {3.77072e+08, 891.302},
    {3.13905e+08, 888.048},
    {2.87623e+08, 886.518},
    {2.68588e+08, 881.835},
    {2.58426e+08, 883.864},
    {2.52689e+08, 891.638},
    {2.65754e+08, 939.292},
    {1.97169e+08, 881.364},
    {1.18793e+08, 825.074},
    {3.50303e+09, 804.32},
    {2.34089e+09, 834.287},
    {1.50364e+09, 815.097},
    {1.16967e+09, 834.643},
    {9.51572e+08, 853.921},
    {7.25977e+08, 839.372},
    {6.37212e+08, 860.008},
    {5.87937e+08, 886.15},
    {4.80361e+08, 928.258},
    {3.53204e+08, 896.66},
    {1.9215e+08, 755.235},
    {1.98002e+08, 894.539},
    {1.13577e+08, 825.074},
    {2.26201e+09, 840.72},
    {1.47906e+09, 819.854},
    {1.16212e+09, 833.669},
    {9.47428e+08, 853.609},
    {7.28094e+08, 839.363},
    {6.4232e+08, 860.613},
    {5.91011e+08, 886.398},
    {4.86054e+08, 928.229},
    {3.58407e+08, 896.437},
    {1.96867e+08, 755.221},
    {2.03587e+08, 894.547},
    {1.18793e+08, 825.074},
};

/// A recorded Figure 4 value: the accuracy reference of model_rel_err
/// for this workload.
struct RecordPoint {
  std::size_t system;
  double cluster_size;
  std::size_t trials;
  double aggregate_bps;
};
/// Full size: the values EXPERIMENTS.md records for the N = 10^4 sweep
/// at seed 42.
constexpr RecordPoint kFig04Record[] = {
    {0, 1, 4, 1.58e9}, {0, 200, 4, 2.64e8}, {0, 10000, 4, 1.14e8},
    {2, 1, 2, 3.50e9}, {2, 1000, 4, 3.53e8},
};
/// Tiny size: the N = 400 Figure 4 golden (two trials per point).
constexpr RecordPoint kTinyFig04Record[] = {
    {0, 1, 2, 2.50e6}, {0, 10, 2, 8.15e5}, {0, 50, 2, 5.86e5},
    {2, 1, 2, 5.72e6}, {2, 10, 2, 1.66e6}, {2, 50, 2, 8.25e5},
};

std::string Render(const TableWriter& table) {
  std::ostringstream os;
  table.Print(os);
  return os.str();
}

/// The Figure 4 golden of tests/integration/golden_tables_test.cc,
/// rebuilt with the same logic and compared with the same pinned text.
bool Fig04GoldenHolds(const ModelInputs& inputs) {
  TableWriter table({"ClusterSize", "System", "Aggregate bw (bps)",
                     "CI95 (in)", "Results/query"});
  for (const std::size_t s : {std::size_t{0}, std::size_t{2}}) {
    for (const double cs : {1.0, 10.0, 50.0}) {
      Configuration config = MakeConfig(kSystems[s], cs, 400);
      TrialOptions options;
      options.num_trials = 2;
      options.seed = 42;
      options.parallelism = 2;
      const ConfigurationReport report = RunTrials(config, inputs, options);
      table.AddRow({sppnet::Format(static_cast<std::size_t>(cs)),
                    kSystems[s].name,
                    sppnet::FormatSci(report.AggregateBandwidthMean()),
                    sppnet::FormatSci(
                        report.aggregate_in_bps.ConfidenceHalfWidth95()),
                    sppnet::Format(report.results_per_query.Mean(), 3)});
    }
  }
  return Render(table) ==
         "ClusterSize  System    Aggregate bw (bps)  CI95 (in)  Results/query\n"
         "-------------------------------------------------------------------\n"
         "1            strong    2.50e+06            4.02e+04   31\n"
         "10           strong    8.15e+05            5.66e+04   31\n"
         "50           strong    5.86e+05            7.56e+04   31.1\n"
         "1            power3.1  5.72e+06            7.37e+04   30.1\n"
         "10           power3.1  1.66e+06            1.51e+05   30.8\n"
         "50           power3.1  8.25e+05            1.28e+05   32.3\n";
}

/// The Figure 7 golden (outdegree 3.1 table) of the same test.
bool Fig07GoldenHolds(const ModelInputs& inputs) {
  Configuration config;
  config.graph_size = 400;
  config.cluster_size = 5;
  config.avg_outdegree = 3.1;
  config.ttl = 7;
  TrialOptions options;
  options.num_trials = 2;
  options.seed = 42;
  options.collect_outdegree_histograms = true;
  options.parallelism = 2;
  const ConfigurationReport report = RunTrials(config, inputs, options);
  TableWriter table({"#neighbors", "SPs", "Out bw (bps)", "StdDev"});
  for (int d = 1; d < report.sp_out_bps_by_outdegree.KeyUpperBound(); ++d) {
    const sppnet::RunningStat& stat = report.sp_out_bps_by_outdegree.Group(d);
    if (stat.count() < 3) continue;
    table.AddRow({sppnet::Format(d), sppnet::Format(stat.count()),
                  sppnet::FormatSci(stat.Mean()),
                  sppnet::FormatSci(stat.StdDev())});
  }
  return Render(table) ==
         "#neighbors  SPs  Out bw (bps)  StdDev\n"
         "---------------------------------------\n"
         "1           41   2.87e+03      1.51e+03\n"
         "2           62   7.78e+03      3.85e+03\n"
         "3           17   1.32e+04      5.51e+03\n"
         "4           17   1.50e+04      3.22e+03\n"
         "5           6    2.28e+04      5.13e+03\n"
         "6           5    2.60e+04      5.99e+03\n"
         "7           3    3.11e+04      3.90e+03\n";
}

/// Seed-to-seed spread of a sweep point shrinks with the number of
/// cluster observations (clusters x trials): a 25 % floor, widened to
/// four standard errors where few clusters make one instance noisy (at
/// cluster size 5000 there are two). Over seeds 1-8 the largest
/// deviation of any point was 57 % of its band.
double PinTolerance(const Configuration& config, std::size_t trials) {
  const double observations =
      static_cast<double>(config.graph_size) / config.cluster_size *
      static_cast<double>(trials);
  return std::max(0.25, 4.0 / std::sqrt(observations));
}

bool Within(double value, double pinned, double tolerance) {
  return std::isfinite(value) && std::fabs(value / pinned - 1.0) <= tolerance;
}

}  // namespace

WorkloadResult RunPaperSweep(const RunContext& ctx) {
  WorkloadResult result;
  Tracer& tracer = *ctx.tracer;
  const std::size_t graph_size = ctx.tiny ? kTinyGraphSize : kFullGraphSize;
  const std::vector<double> sweep =
      ctx.tiny ? std::vector<double>(std::begin(kTinyClusterSweep),
                                     std::end(kTinyClusterSweep))
               : std::vector<double>(std::begin(kClusterSweep),
                                     std::end(kClusterSweep));

  // Set-up is only the model inputs and the sweep plan: instance
  // generation is per-trial work and belongs to the timed phase. It is
  // repeated and the median reported.
  struct Point {
    std::size_t system;
    Configuration config;
    std::size_t trials;
  };
  std::vector<double> setup_samples;
  std::optional<ModelInputs> inputs;
  std::vector<Point> plan;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    auto span = tracer.Open("setup", kLayerBenchmark);
    const auto t0 = Clock::now();
    {
      auto s = tracer.Open("ModelInputs::Default", kLayerInstance);
      inputs.emplace(ModelInputs::Default());
    }
    plan.clear();
    for (std::size_t s = 0; s < std::size(kSystems); ++s) {
      for (const double cs : sweep) {
        if (kSystems[s].redundancy && cs < 2.0) continue;
        plan.push_back({s, MakeConfig(kSystems[s], cs, graph_size),
                        TrialsFor(kSystems[s], cs)});
      }
    }
    setup_samples.push_back(SecondsSince(t0));
  }

  sppnet::MetricsRegistry registry;
  std::vector<ConfigurationReport> reports;
  reports.reserve(plan.size());
  std::uint64_t trials = 0;
  const auto t0 = Clock::now();
  {
    auto span = tracer.Open("timed_phase", kLayerBenchmark);
    for (const Point& point : plan) {
      TrialOptions options;
      options.num_trials = point.trials;
      options.seed = ctx.seed;
      options.parallelism = kTrialParallelism;
      if (ctx.trace) options.metrics = &registry;
      auto s = tracer.Open("RunTrials", kLayerTrials);
      reports.push_back(RunTrials(point.config, *inputs, options));
      trials += point.trials;
    }
  }
  const double wall_s = SecondsSince(t0);
  result.Set("setup_s", Median(setup_samples), "s");
  result.Set("wall_s", wall_s, "s");
  result.Set("events_per_s", static_cast<double>(trials) / wall_s, "events/s");
  result.Set("peak_rss_mib", PeakRssMiB(), "MiB");

  // Output checks. An operation is one configuration evaluated; a point
  // outside its pinned band fails that operation.
  result.attempted = plan.size();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const ConfigurationReport& r = reports[i];
    bool ok = r.aggregate_in_bps.count() == plan[i].trials &&
              std::isfinite(r.AggregateBandwidthMean()) &&
              r.AggregateBandwidthMean() > 0.0;
    if (!ctx.tiny) {
      const double tolerance = PinTolerance(plan[i].config, plan[i].trials);
      ok = ok &&
           Within(r.AggregateBandwidthMean(), kSweepPins[i].aggregate_bps,
                  tolerance) &&
           Within(r.results_per_query.Mean(), kSweepPins[i].results_per_query,
                  tolerance);
    }
    if (!ok) {
      ++result.failed;
      char line[160];
      std::snprintf(line, sizeof(line),
                    "paper_sweep %s cluster %g: aggregate %.4g bps, "
                    "results/query %.4g outside the pinned band",
                    kSystems[plan[i].system].name, plan[i].config.cluster_size,
                    r.AggregateBandwidthMean(), r.results_per_query.Mean());
      result.check_failures.emplace_back(line);
    }
  }
  if (ctx.check_model) {
    result.Check(Fig04GoldenHolds(*inputs),
                 "paper_sweep: Figure 4 golden table differs from the pin");
    result.Check(Fig07GoldenHolds(*inputs),
                 "paper_sweep: Figure 7 golden table differs from the pin");
    // model_rel_err: the largest relative distance between the sweep at
    // the oracle seed and the Figure 4 values EXPERIMENTS.md records.
    // Tiny runs compare against the pinned sweep's own first points.
    double worst = 0.0;
    const std::span<const RecordPoint> record =
        ctx.tiny ? std::span<const RecordPoint>(kTinyFig04Record)
                 : std::span<const RecordPoint>(kFig04Record);
    for (const RecordPoint& point : record) {
      TrialOptions options;
      options.num_trials = point.trials;
      options.seed = kOracleSeed;
      options.parallelism = kTrialParallelism;
      auto s = tracer.Open("RunTrials(record)", kLayerTrials);
      const double value =
          RunTrials(MakeConfig(kSystems[point.system], point.cluster_size,
                               graph_size),
                    *inputs, options)
              .AggregateBandwidthMean();
      worst = std::max(worst, std::fabs(value / point.aggregate_bps - 1.0));
    }
    result.Set("model_rel_err", worst, "ratio");
  }

  if (ctx.trace) {
    const auto timer = [&](const char* name) {
      const auto it = registry.timers().find(name);
      return it == registry.timers().end() ? 0.0 : it->second.total_seconds();
    };
    const double generate_s = timer("trials.generate");
    const double evaluate_s = timer("trials.evaluate");
    const double frontier =
        static_cast<double>(registry.CounterValue("eval.bfs.frontier_entries"));
    const double expand_s = timer("eval.bfs.expand");
    result.Set("model.trials.generate_s", generate_s, "s");
    result.Set("model.trials.evaluate_s", evaluate_s, "s");
    result.Set("model.trials.busy_share",
               (generate_s + evaluate_s) /
                   (wall_s * static_cast<double>(kTrialParallelism)),
               "ratio");
    result.Set("model.evaluator.bfs_expand_s", expand_s, "s");
    result.Set("model.evaluator.accumulate_s", timer("eval.accumulate"), "s");
    result.Set("model.evaluator.frontier_entries", frontier, "count");
    result.Set("model.evaluator.ns_per_frontier_entry",
               frontier > 0 ? expand_s * 1e9 / frontier : 0.0, "ns");
    result.Set("model.evaluator.scratch_bytes",
               registry.GaugeValue("eval.scratch.bytes"), "bytes");
  }
  return result;
}

}  // namespace perfbench
