// Monotonic timing for every stackroute timestamp: bench JSON, sweep
// wall-clock columns, and chrome-trace span events all read the same
// steady_clock nanosecond counter, so their numbers are directly
// comparable. Header-only.
#pragma once

#include <chrono>
#include <cstdint>

namespace stackroute::obs {

/// Monotonic nanoseconds since an arbitrary epoch (steady_clock). Never
/// goes backwards; differences are wall-clock durations.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Starts on construction; reset() restarts.
class Timer {
 public:
  Timer() : start_(now_ns()) {}

  void reset() { start_ = now_ns(); }

  [[nodiscard]] std::int64_t nanoseconds() const { return now_ns() - start_; }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(nanoseconds()) * 1e-9;
  }
  [[nodiscard]] double milliseconds() const {
    return static_cast<double>(nanoseconds()) * 1e-6;
  }

 private:
  std::int64_t start_;
};

}  // namespace stackroute::obs
