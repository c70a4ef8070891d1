// Timing, span and reporting helpers shared by the benchmark's untraced
// and traced runs.
#ifndef FLIXBENCH_MEASURE_H_
#define FLIXBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "flix/flix.h"
#include "inputs.h"
#include "obs/trace.h"

namespace flixbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Quantile by linear interpolation between order statistics; 0 for no data.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

// Span log of the traced run. The spans are obs::TraceSpan scopes: the
// library's own (flix.build and its MDB, ISS, IB and landmark children,
// pee.query, pee.entry, pee.cursor.*) and the benchmark's op and probe
// spans, all gathered by the process-wide obs::TraceCollector. The log
// drains the collector after every traced call, so the collector's ring
// never wraps, folds each drained batch into self time per span name, and
// keeps the first kKeptEvents events for the span file written at exit.
class SpanLog {
 public:
  static constexpr size_t kKeptEvents = 100'000;

  // Starts or stops collecting. Spans opened while stopped record nothing.
  void Start();
  void Stop();

  // Takes every span the collector finished since the last drain. Start
  // times are rebased onto the first Start, so the kept events form one
  // timeline. Call it only when no collected span is open.
  std::vector<flix::obs::TraceEvent> Drain();

  // Total self time per span name over every drained span: duration
  // minus the durations of its children, in first-seen order.
  const std::vector<std::pair<std::string, uint64_t>>& self_times() const {
    return self_times_;
  }
  size_t num_events() const { return num_events_; }
  // Spans the collector dropped because a batch overflowed its ring.
  uint64_t dropped() const { return dropped_; }

  // The kept events as Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool WriteJson(const std::string& path) const;

  // Over one drained batch: the summed self time, and the summed duration,
  // of the spans called `name`.
  static uint64_t SelfNs(const std::vector<flix::obs::TraceEvent>& batch,
                         std::string_view name);
  static uint64_t TotalNs(const std::vector<flix::obs::TraceEvent>& batch,
                          std::string_view name);

 private:
  bool started_ = false;
  uint64_t epoch_ns_ = 0;   // NowNs() at the first Start
  uint64_t offset_ns_ = 0;  // from the first Start to the latest one
  std::vector<std::pair<std::string, uint64_t>> self_times_;
  std::vector<flix::obs::TraceEvent> kept_;
  size_t num_events_ = 0;
  uint64_t dropped_ = 0;
};

// Per-op result of one timed execution.
struct Timing {
  uint64_t first_ns = 0;  // to the first result (whole op when it has none)
  uint64_t total_ns = 0;
};

// Runs a read op against `flix`, writing
// what it returned into `answer` (cleared first).
Timing RunRead(const flix::core::Flix& flix, const Op& op, Answer& answer,
               flix::core::QueryStats* stats = nullptr);

// Named metrics in insertion order, printed as the result line's "metrics".
class MetricSet {
 public:
  void Set(std::string name, double value, std::string unit);
  std::string ToJson() const;
  // False when a value is NaN or infinite (a metric with no samples).
  bool AllFinite() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};


}  // namespace flixbench

#endif  // FLIXBENCH_MEASURE_H_
