#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Shared types of the benchmark workloads. One process runs one workload
// once: set-up, the timed phase, then the output checks. The sim
// workloads run several instances per process, each with its own set-up;
// set-up time is the median over the set-ups. run.py launches the
// processes and takes medians across them.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Seed of the oracle instances behind `model_rel_err` and of the pinned
/// reference tables (the seed the repository's goldens and EXPERIMENTS.md
/// use). It is fixed so that model_rel_err is one deterministic figure per
/// workload, whatever the workload seed.
inline constexpr std::uint64_t kOracleSeed = 42;

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  /// Self-test scale: every workload shrinks to well under a second.
  bool tiny = false;
  /// Attach metrics registries and compute the per-layer metrics.
  bool trace = false;
  /// Run the oracle and band checks (model_rel_err); run.py asks for
  /// them once per run, not in every process.
  bool check_model = false;
  /// Flip one byte of the sim_stack checkpoint before restoring it
  /// (self-test of the failure accounting).
  bool corrupt_checkpoint = false;
  Tracer* tracer = nullptr;
};

struct MetricValue {
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  std::map<std::string, MetricValue> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed output check; any entry fails the whole run.
  std::vector<std::string> check_failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = MetricValue{value, unit};
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of a non-empty sample.
double Median(std::vector<double> values);

/// Peak resident set of this process so far, in MiB.
double PeakRssMiB();

WorkloadResult RunPaperSweep(const RunContext& ctx);
WorkloadResult RunSimFlood(const RunContext& ctx);
WorkloadResult RunSimStack(const RunContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
