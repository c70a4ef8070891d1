#include "obs/trace.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>

#include "common/sync.h"

namespace flix::obs {
namespace {

std::atomic<std::ostream*> g_trace_log{nullptr};
// Serializes trace-line writes to the attached stream; metrics rank
// (innermost), like every obs-layer lock.
Mutex g_trace_mutex ACQUIRED_AFTER(lockorder::kMetrics);

std::atomic<uint64_t> g_next_span_id{1};

// Small dense per-thread ordinal; Chrome's viewer groups rows by tid, and
// raw std::thread::id values are neither small nor stable to render.
uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

// Innermost open collected span on this thread; parents are resolved here,
// so spans must finish on the thread that opened them (all call sites are
// scoped locals, which guarantees that).
thread_local std::vector<uint64_t> t_span_stack;

void AppendJsonEscaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::ostream* SetTraceLog(std::ostream* out) {
  return g_trace_log.exchange(out, std::memory_order_release);
}

bool TraceLogEnabled() {
  return g_trace_log.load(std::memory_order_relaxed) != nullptr;
}

TraceCollector& TraceCollector::Global() {
  static TraceCollector* collector = new TraceCollector();  // never dies
  return *collector;
}

void TraceCollector::Enable(size_t capacity) {
  MutexLock lock(mutex_);
  ring_.clear();
  ring_.reserve(capacity);
  capacity_ = capacity == 0 ? 1 : capacity;
  next_ = 0;
  dropped_ = 0;
  epoch_.Restart();
  enabled_.store(true, std::memory_order_release);
}

void TraceCollector::Disable() {
  enabled_.store(false, std::memory_order_release);
}

uint64_t TraceCollector::StartNanos(const Stopwatch& watch) const {
  if (!Enabled()) return 0;
  MutexLock lock(mutex_);
  return watch.StartedNanosAfter(epoch_);
}

void TraceCollector::Record(TraceEvent event) {
  MutexLock lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_] = std::move(event);
    next_ = (next_ + 1) % capacity_;
    ++dropped_;
  }
}

std::vector<TraceEvent> TraceCollector::Events() const {
  MutexLock lock(mutex_);
  std::vector<TraceEvent> events;
  events.reserve(ring_.size());
  // `next_` is the oldest slot once the ring has wrapped.
  for (size_t i = 0; i < ring_.size(); ++i) {
    events.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return events;
}

uint64_t TraceCollector::Dropped() const {
  MutexLock lock(mutex_);
  return dropped_;
}

void TraceCollector::Clear() {
  MutexLock lock(mutex_);
  ring_.clear();
  next_ = 0;
  dropped_ = 0;
}

std::string ToChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const TraceEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    AppendJsonEscaped(out, e.name);
    // Complete ("X") events; timestamps are microseconds in this format.
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof buf, "%" PRIu32, e.thread);
    out += buf;
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f",
                  static_cast<double>(e.start_ns) / 1e3);
    out += buf;
    std::snprintf(buf, sizeof buf, ",\"dur\":%.3f",
                  static_cast<double>(e.dur_ns) / 1e3);
    out += buf;
    out += ",\"args\":{\"span_id\":";
    std::snprintf(buf, sizeof buf, "%" PRIu64, e.id);
    out += buf;
    out += ",\"parent_id\":";
    std::snprintf(buf, sizeof buf, "%" PRIu64, e.parent_id);
    out += buf;
    for (const auto& [key, value] : e.attrs) {
      out += ',';
      AppendJsonEscaped(out, key);
      out += ':';
      AppendJsonEscaped(out, value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

SlowQueryLog& SlowQueryLog::Global() {
  static SlowQueryLog* log = new SlowQueryLog();  // never dies
  return *log;
}

void SlowQueryLog::Configure(uint64_t threshold_ns, size_t capacity) {
  MutexLock lock(mutex_);
  ring_.clear();
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.reserve(capacity_);
  next_ = 0;
  threshold_ns_.store(threshold_ns, std::memory_order_release);
}

void SlowQueryLog::Record(std::string description, uint64_t dur_ns) {
  const uint64_t threshold = ThresholdNanos();
  if (threshold == 0 || dur_ns < threshold) return;
  MutexLock lock(mutex_);
  SlowQueryRecord record{std::move(description), dur_ns, seq_++};
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_] = std::move(record);
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<SlowQueryRecord> SlowQueryLog::Entries() const {
  MutexLock lock(mutex_);
  std::vector<SlowQueryRecord> entries;
  entries.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    entries.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return entries;
}

void SlowQueryLog::Clear() {
  MutexLock lock(mutex_);
  ring_.clear();
  next_ = 0;
}

TraceSpan::TraceSpan(Histogram* histogram, const char* name)
    : histogram_(histogram), name_(name) {
  TraceCollector& collector = TraceCollector::Global();
  if (name_ != nullptr && collector.Enabled()) {
    collecting_ = true;
    id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
    parent_id_ = t_span_stack.empty() ? 0 : t_span_stack.back();
    t_span_stack.push_back(id_);
    // The span starts when watch_ did, so start_ns + dur_ns (dur from
    // watch_ in Finish) is the moment Finish read the clock: one clock for
    // both ends, and a child's interval nests in its parent's by
    // construction.
    start_ns_ = collector.StartNanos(watch_);
  }
}

void TraceSpan::AddAttr(const char* key, std::string_view value) {
  if (!collecting_) return;
  attrs_.emplace_back(key, std::string(value));
}

void TraceSpan::AddAttr(const char* key, int64_t value) {
  if (!collecting_) return;
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, value);
  attrs_.emplace_back(key, buf);
}

void TraceSpan::Finish() {
  if (finished_) return;
  finished_ = true;
  const uint64_t nanos = watch_.ElapsedNanos();
  if (histogram_ != nullptr) histogram_->Record(nanos);
  if (collecting_) {
    // Balanced with the constructor's push; spans are scoped locals, so
    // the top of the stack is this span.
    if (!t_span_stack.empty() && t_span_stack.back() == id_) {
      t_span_stack.pop_back();
    }
    TraceEvent event;
    event.id = id_;
    event.parent_id = parent_id_;
    event.start_ns = start_ns_;
    event.dur_ns = nanos;
    event.thread = ThreadOrdinal();
    event.name = name_;
    event.attrs = std::move(attrs_);
    TraceCollector::Global().Record(std::move(event));
  }
  if (std::ostream* log = g_trace_log.load(std::memory_order_acquire)) {
    MutexLock lock(g_trace_mutex);
    *log << "[trace] " << (name_ != nullptr ? name_ : "span")
         << " dur_ns=" << nanos << "\n";
  }
}

void TraceSpan::Cancel() {
  if (finished_) return;
  finished_ = true;
  if (collecting_ && !t_span_stack.empty() && t_span_stack.back() == id_) {
    t_span_stack.pop_back();
  }
}

}  // namespace flix::obs
