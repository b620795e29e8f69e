#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced benchmark run. Spans are opened
// by the benchmark's own code around each call into a library layer, kept
// in memory, and written once at exit as Chrome trace-event JSON (loads
// in Perfetto / chrome://tracing offline). A disabled tracer records
// nothing and never reads the clock, so the untraced run pays only a
// branch per span.

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Layer names used by the spans (a layer is a library module; the map
/// from layer to metrics is in README.md).
inline constexpr std::string_view kLayerBenchmark = "benchmark";
inline constexpr std::string_view kLayerInstance = "model.instance";
inline constexpr std::string_view kLayerTrials = "model.trials";
inline constexpr std::string_view kLayerEvaluator = "model.evaluator";
inline constexpr std::string_view kLayerSimulator = "sim.simulator";
inline constexpr std::string_view kLayerShardedSim = "sim.sharded_sim";
inline constexpr std::string_view kLayerStream = "sim.stream";
inline constexpr std::string_view kLayerCheckpoint = "io.checkpoint";

/// Every layer a span may name, in report order.
inline constexpr std::string_view kAllLayers[] = {
    kLayerBenchmark, kLayerInstance,  kLayerTrials, kLayerEvaluator,
    kLayerSimulator, kLayerShardedSim, kLayerStream, kLayerCheckpoint};

struct SpanRecord {
  std::string name;
  std::string layer;
  double start_us = 0.0;  ///< Microseconds since the tracer was created.
  double end_us = 0.0;
  int parent = -1;  ///< Index of the enclosing span, -1 for a root.
};

class Tracer {
 public:
  /// RAII span: closes on destruction. Returned as a prvalue and bound
  /// with `auto span = tracer.Open(...)` (guaranteed copy elision).
  class Span {
   public:
    Span() = default;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    friend class Tracer;
    Span(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_ = nullptr;
    int index_ = -1;
  };

  Tracer(bool enabled, std::string workload, std::string run_id);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span nested under the innermost open span. Returns an
  /// inert span when the tracer is disabled.
  [[nodiscard]] Span Open(std::string_view name, std::string_view layer);

  /// Self time per layer: each span's duration minus the part of it its
  /// child spans cover, summed by layer.
  std::map<std::string, double> LayerSelfSeconds() const;

  /// Self time of the spans with this name, summed.
  double SelfSeconds(std::string_view name) const;

  /// Writes the Chrome trace-event JSON document; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  double NowMicros() const;
  /// Self time of every span, in microseconds, indexed like spans_.
  std::vector<double> SelfMicros() const;

  bool enabled_;
  std::string workload_;
  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  ///< Stack of open span indices.
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
