#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace flixbench {
namespace {

// All significant digits: the result line reports values as measured. A
// non-finite value (a metric without samples) prints as 0 so the line stays
// valid JSON; MetricSet::AllFinite marks such a run incorrect.
std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Self time of each event of a batch: its duration minus its children's.
// Children nest strictly inside their parent (one thread, scoped spans).
std::vector<uint64_t> SelfTimes(const std::vector<flix::obs::TraceEvent>& batch) {
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < batch.size(); ++i) index_of[batch[i].id] = i;
  std::vector<uint64_t> self(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    self[i] += batch[i].dur_ns;
    if (auto it = index_of.find(batch[i].parent_id); it != index_of.end()) {
      self[it->second] -= batch[i].dur_ns;
    }
  }
  return self;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void SpanLog::Start() {
  const uint64_t now = NowNs();
  if (!started_) epoch_ns_ = now;
  started_ = true;
  offset_ns_ = now - epoch_ns_;
  // A large ring: Drain empties it after every traced call, and the biggest
  // batch (a type query over one HOPI partition) holds a few thousand spans.
  flix::obs::TraceCollector::Global().Enable(1u << 16);
}

void SpanLog::Stop() { flix::obs::TraceCollector::Global().Disable(); }

std::vector<flix::obs::TraceEvent> SpanLog::Drain() {
  flix::obs::TraceCollector& collector = flix::obs::TraceCollector::Global();
  std::vector<flix::obs::TraceEvent> batch = collector.Events();
  dropped_ += collector.Dropped();
  collector.Clear();
  const std::vector<uint64_t> self = SelfTimes(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].start_ns += offset_ns_;
    auto it = std::find_if(self_times_.begin(), self_times_.end(),
                           [&](const auto& t) { return t.first == batch[i].name; });
    if (it == self_times_.end()) {
      self_times_.emplace_back(batch[i].name, self[i]);
    } else {
      it->second += self[i];
    }
    if (kept_.size() < kKeptEvents) kept_.push_back(batch[i]);
  }
  num_events_ += batch.size();
  return batch;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  out << flix::obs::ToChromeTraceJson(kept_) << "\n";
  return static_cast<bool>(out);
}

uint64_t SpanLog::SelfNs(const std::vector<flix::obs::TraceEvent>& batch,
                         std::string_view name) {
  const std::vector<uint64_t> self = SelfTimes(batch);
  uint64_t total = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].name == name) total += self[i];
  }
  return total;
}

uint64_t SpanLog::TotalNs(const std::vector<flix::obs::TraceEvent>& batch,
                          std::string_view name) {
  uint64_t total = 0;
  for (const flix::obs::TraceEvent& e : batch) {
    if (e.name == name) total += e.dur_ns;
  }
  return total;
}

Timing RunRead(const flix::core::Flix& flix, const Op& op, Answer& answer,
               flix::core::QueryStats* stats) {
  answer.results.clear();
  answer.distances.clear();
  Timing timing;
  uint64_t start = 0;
  if (op.kind == OpKind::kPoint) {
    start = NowNs();
    for (const auto& [a, b] : op.pairs) {
      answer.distances.push_back(flix.FindDistance(a, b));
    }
    timing.total_ns = timing.first_ns = NowNs() - start;
    return timing;
  }
  const flix::core::ResultSink sink = [&](const flix::core::Result& r) {
    if (answer.results.empty()) timing.first_ns = NowNs() - start;
    answer.results.push_back(r);
    return true;
  };
  flix::core::QueryOptions options;
  if (op.kind == OpKind::kTopK || op.kind == OpKind::kType) {
    options.max_results = kTopK;
  }
  options.exact = op.kind == OpKind::kExact;
  start = NowNs();
  if (op.kind == OpKind::kType) {
    flix.pee().EvaluateTypeQuery(op.start_tag, op.tag, options, sink, stats);
  } else {
    flix.pee().FindDescendantsByTag(op.start, op.tag, options, sink, stats);
  }
  timing.total_ns = NowNs() - start;
  if (answer.results.empty()) timing.first_ns = timing.total_ns;
  return timing;
}

void MetricSet::Set(std::string name, double value, std::string unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = std::move(unit);
      return;
    }
  }
  entries_.push_back({std::move(name), value, std::move(unit)});
}

bool MetricSet::AllFinite() const {
  return std::all_of(entries_.begin(), entries_.end(),
                     [](const Entry& e) { return std::isfinite(e.value); });
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " +
           FormatNumber(entries_[i].value) + ", \"unit\": \"" +
           entries_[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace flixbench
