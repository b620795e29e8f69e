// sppnet_perfbench: runs one benchmark workload once and prints one JSON
// object on stdout with its metrics, operation counts, failed output
// checks and the machine fingerprint. run.py drives it (see README.md).
//
//   sppnet_perfbench --workload <paper_sweep|sim_flood|sim_stack>
//                    --seed <n> [--trace 0|1] [--trace-out <file>]
//                    [--check-model 0|1] [--tiny]
//                    [--corrupt-checkpoint] [--commit <id>]

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "sppnet/io/json.h"
#include "trace.h"
#include "workload.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

namespace {

int Usage(const char* message) {
  std::fprintf(stderr, "sppnet_perfbench: %s\n", message);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunContext ctx;
  std::string trace_out;
  std::string commit = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tiny") {
      ctx.tiny = true;
    } else if (arg == "--corrupt-checkpoint") {
      ctx.corrupt_checkpoint = true;
    } else {
      const char* v = value();
      if (v == nullptr) return Usage(("missing value for " + arg).c_str());
      if (arg == "--workload") {
        ctx.workload = v;
      } else if (arg == "--seed") {
        ctx.seed = std::strtoull(v, nullptr, 10);
        have_seed = true;
      } else if (arg == "--trace") {
        ctx.trace = std::strcmp(v, "0") != 0;
      } else if (arg == "--trace-out") {
        trace_out = v;
      } else if (arg == "--check-model") {
        ctx.check_model = std::strcmp(v, "0") != 0;
      } else if (arg == "--commit") {
        commit = v;
      } else {
        return Usage(("unknown argument " + arg).c_str());
      }
    }
  }
  if (!have_seed) return Usage("--seed is required");

  Tracer tracer(ctx.trace, ctx.workload, "seed" + std::to_string(ctx.seed));
  ctx.tracer = &tracer;
  WorkloadResult result;
  if (ctx.workload == "paper_sweep") {
    result = RunPaperSweep(ctx);
  } else if (ctx.workload == "sim_flood") {
    result = RunSimFlood(ctx);
  } else if (ctx.workload == "sim_stack") {
    result = RunSimStack(ctx);
  } else {
    return Usage(("unknown workload '" + ctx.workload + "'").c_str());
  }

  if (ctx.trace) {
    // Self time per layer over the whole process, and the part of the
    // timed phase no layer span covers.
    for (const auto& [layer, seconds] : tracer.LayerSelfSeconds()) {
      result.Set("trace.self_s." + layer, seconds, "s");
    }
    result.Set("trace.uncovered_share",
               tracer.SelfSeconds("timed_phase") /
                   result.metrics.at("wall_s").value,
               "ratio");
    if (!trace_out.empty() && !tracer.WriteChromeTrace(trace_out)) {
      result.check_failures.push_back("cannot write trace file " + trace_out);
    }
  }

  sppnet::JsonWriter w(std::cout, 0);
  w.BeginObject();
  w.Key("workload").String(ctx.workload);
  w.Key("seed").Number(ctx.seed);
  w.Key("fingerprint").BeginObject();
  w.Key("nproc").Number(
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.Key("compiler").String(PERFBENCH_COMPILER);
  w.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  w.Key("commit").String(commit);
  w.EndObject();
  w.Key("attempted").Number(result.attempted);
  w.Key("failed").Number(result.failed);
  w.Key("check_failures").BeginArray();
  for (const std::string& failure : result.check_failures) w.String(failure);
  w.EndArray();
  w.Key("metrics").BeginObject();
  for (const auto& [name, metric] : result.metrics) {
    w.Key(name).BeginObject();
    w.Key("value").Number(metric.value);
    w.Key("unit").String(metric.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::cout << '\n';
  return 0;
}
