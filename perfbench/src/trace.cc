#include "trace.h"

#include <fstream>
#include <utility>

#include "sppnet/io/json.h"

namespace perfbench {

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_us =
      tracer_->NowMicros();
  // Spans are scoped objects, so they close in LIFO order.
  tracer_->open_.pop_back();
}

Tracer::Tracer(bool enabled, std::string workload, std::string run_id)
    : enabled_(enabled),
      workload_(std::move(workload)),
      run_id_(std::move(run_id)),
      origin_(std::chrono::steady_clock::now()) {}

double Tracer::NowMicros() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Span Tracer::Open(std::string_view name, std::string_view layer) {
  if (!enabled_) return Span();
  SpanRecord record;
  record.name = std::string(name);
  record.layer = std::string(layer);
  record.parent = open_.empty() ? -1 : open_.back();
  record.start_us = NowMicros();
  spans_.push_back(std::move(record));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return Span(this, index);
}

std::vector<double> Tracer::SelfMicros() const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double duration = s.end_us - s.start_us;
    self[i] += duration;
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= duration;
  }
  return self;
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  const std::vector<double> self_us = SelfMicros();
  std::map<std::string, double> self;
  for (std::string_view layer : kAllLayers) self[std::string(layer)] = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].layer] += self_us[i] * 1e-6;
  }
  return self;
}

double Tracer::SelfSeconds(std::string_view name) const {
  const std::vector<double> self_us = SelfMicros();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += self_us[i] * 1e-6;
  }
  return total;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  sppnet::JsonWriter w(out, 0);
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("cat").String(s.layer);
    w.Key("ph").String("X");
    w.Key("ts").Number(s.start_us);
    w.Key("dur").Number(s.end_us - s.start_us);
    w.Key("pid").Number(1);
    w.Key("tid").Number(1);
    w.Key("args").BeginObject();
    w.Key("span_id").Number(static_cast<std::int64_t>(i));
    w.Key("parent").Number(static_cast<std::int64_t>(s.parent));
    w.Key("workload").String(workload_);
    w.Key("run_id").String(run_id_);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
