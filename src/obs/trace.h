// RAII scoped timer that records its lifetime into a latency histogram and,
// when a trace log is attached, emits one line per span — the lightweight
// per-query tracing the self-tuning loop (paper Section 7) observes.
//
// Beyond the always-on histogram/log path, spans can be *collected*: when
// the process-wide TraceCollector is enabled (`flixctl trace`), every named
// span is assigned an ID, parented to the innermost open span on the same
// thread, annotated with key/value attributes, and appended to a bounded
// ring buffer. The collected events export as Chrome trace-event JSON
// (chrome://tracing, Perfetto), giving one inspectable timeline per query:
// MDB -> ISS -> strategy -> cursor phases nest as spans.
#ifndef FLIX_OBS_TRACE_H_
#define FLIX_OBS_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace flix::obs {

// Attaches (or detaches, with nullptr) the process-wide trace log. Spans
// then append lines of the form
//   [trace] <name> dur_ns=<nanos>
// on destruction. The stream must outlive all spans; writes are serialized
// by an internal mutex. Returns the previous sink.
std::ostream* SetTraceLog(std::ostream* out);

// True iff a trace log is attached (cheap relaxed load; lets hot paths skip
// building annotations nobody would see).
bool TraceLogEnabled();

// One finished span, as stored by the TraceCollector.
struct TraceEvent {
  uint64_t id = 0;         // unique per process run, assigned at span open
  uint64_t parent_id = 0;  // 0 = root (no enclosing span on this thread)
  uint64_t start_ns = 0;   // relative to TraceCollector::Enable()
  uint64_t dur_ns = 0;
  uint32_t thread = 0;  // small per-thread ordinal, stable within the run
  std::string name;
  std::vector<std::pair<std::string, std::string>> attrs;
};

// Bounded ring buffer of finished spans. Disabled by default — recording
// costs one relaxed load per span when off. Enabled only by tooling
// (`flixctl trace`) and tests; when the ring is full the oldest events are
// dropped (and counted), keeping memory bounded under long workloads.
class TraceCollector {
 public:
  static TraceCollector& Global();

  // Starts collecting, resets the epoch span starts are measured from, and
  // clears previously collected events. `capacity` bounds the ring.
  void Enable(size_t capacity = 4096) EXCLUDES(mutex_);
  void Disable();
  bool Enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Nanoseconds from Enable() to `watch`'s start; 0 when disabled or when
  // `watch` started earlier.
  uint64_t StartNanos(const Stopwatch& watch) const EXCLUDES(mutex_);

  void Record(TraceEvent event) EXCLUDES(mutex_);

  // Collected events, oldest first. Snapshot copy; safe while recording.
  std::vector<TraceEvent> Events() const EXCLUDES(mutex_);
  // Events evicted because the ring was full.
  uint64_t Dropped() const EXCLUDES(mutex_);
  void Clear() EXCLUDES(mutex_);

 private:
  std::atomic<bool> enabled_{false};
  mutable Mutex mutex_ ACQUIRED_AFTER(lockorder::kMetrics);
  std::vector<TraceEvent> ring_ GUARDED_BY(mutex_);
  size_t capacity_ GUARDED_BY(mutex_) = 0;
  size_t next_ GUARDED_BY(mutex_) = 0;  // ring write position
  uint64_t dropped_ GUARDED_BY(mutex_) = 0;
  Stopwatch epoch_ GUARDED_BY(mutex_);
};

// Renders events as a Chrome trace-event JSON document
// ({"traceEvents":[...]}, "ph":"X" complete events, microsecond
// timestamps). Loadable in chrome://tracing and Perfetto; span nesting is
// carried by ts/dur containment per thread, and parent/span IDs are
// attached under "args" for programmatic consumers.
std::string ToChromeTraceJson(const std::vector<TraceEvent>& events);

// One retained slow query.
struct SlowQueryRecord {
  std::string description;
  uint64_t dur_ns = 0;
  uint64_t seq = 0;  // arrival order across the whole run
};

// Bounded in-memory ring of the most recent queries slower than a
// threshold. Disabled (threshold 0) by default; `flixctl trace` and tests
// configure it. Cheap when disabled: one relaxed load per query.
class SlowQueryLog {
 public:
  static SlowQueryLog& Global();

  // threshold_ns == 0 disables recording. Clears retained entries.
  void Configure(uint64_t threshold_ns, size_t capacity = 64)
      EXCLUDES(mutex_);
  uint64_t ThresholdNanos() const {
    return threshold_ns_.load(std::memory_order_relaxed);
  }

  // Retains the query iff recording is enabled and dur_ns >= threshold.
  void Record(std::string description, uint64_t dur_ns) EXCLUDES(mutex_);

  // Retained records, oldest first.
  std::vector<SlowQueryRecord> Entries() const EXCLUDES(mutex_);
  void Clear() EXCLUDES(mutex_);

 private:
  std::atomic<uint64_t> threshold_ns_{0};
  mutable Mutex mutex_ ACQUIRED_AFTER(lockorder::kMetrics);
  std::vector<SlowQueryRecord> ring_ GUARDED_BY(mutex_);
  size_t capacity_ GUARDED_BY(mutex_) = 64;
  size_t next_ GUARDED_BY(mutex_) = 0;
  uint64_t seq_ GUARDED_BY(mutex_) = 0;
};

// Scoped timer. On destruction records elapsed nanoseconds into the given
// histogram (if any), appends a trace line (if a log is attached), and —
// when the TraceCollector is enabled and the span is named — emits a
// TraceEvent parented to the innermost open span on this thread.
class TraceSpan {
 public:
  // `name` must outlive the span (string literals in practice).
  explicit TraceSpan(Histogram* histogram, const char* name = nullptr);

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { Finish(); }

  uint64_t ElapsedNanos() const { return watch_.ElapsedNanos(); }

  // Attaches a key/value attribute to the collected event. No-ops (beyond
  // a branch) unless the collector was enabled when the span opened.
  void AddAttr(const char* key, std::string_view value);
  void AddAttr(const char* key, int64_t value);

  // True iff this span is feeding the TraceCollector — lets callers skip
  // building attribute values nobody would see.
  bool Collecting() const { return collecting_; }

  // Records and logs now instead of at scope exit; subsequent Finish calls
  // (including the destructor's) are no-ops.
  void Finish();

  // Drops the span: nothing is recorded or logged at destruction.
  void Cancel();

 private:
  Histogram* histogram_;
  const char* name_;
  Stopwatch watch_;
  bool finished_ = false;
  bool collecting_ = false;
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t start_ns_ = 0;
  std::vector<std::pair<std::string, std::string>> attrs_;
};

}  // namespace flix::obs

#endif  // FLIX_OBS_TRACE_H_
