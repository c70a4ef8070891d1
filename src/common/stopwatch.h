// Wall-clock (steady_clock) stopwatch used by the benchmark harnesses and
// the observability spans (obs/trace.h).
#ifndef FLIX_COMMON_STOPWATCH_H_
#define FLIX_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace flix {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  // Integer nanoseconds — the unit the metrics histograms record.
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

  // Nanoseconds from `earlier`'s start to this stopwatch's start; 0 if
  // `earlier` started later. Reads no clock.
  uint64_t StartedNanosAfter(const Stopwatch& earlier) const {
    if (start_ < earlier.start_) return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(start_ -
                                                             earlier.start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace flix

#endif  // FLIX_COMMON_STOPWATCH_H_
