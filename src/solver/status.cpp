#include "stackroute/solver/status.h"

#include <chrono>
#include <limits>

namespace stackroute {

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kConverged:
      return "converged";
    case SolveStatus::kIterLimit:
      return "iter_limit";
    case SolveStatus::kDeadlineExceeded:
      return "deadline";
    case SolveStatus::kNumericFailure:
      return "numeric";
    case SolveStatus::kOverloaded:
      return "overloaded";
  }
  return "unknown";
}

std::int64_t budget_clock_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SolveBudget SolveBudget::armed() const {
  SolveBudget out = *this;
  if (out.deadline_ns <= 0 && out.deadline_ms > 0.0) {
    // Saturate instead of overflowing: an allowance past the clock's range
    // (huge or infinite deadline_ms) is a deadline that never fires. Below
    // 9e18 ns the double fits in int64, so the conversion is defined.
    constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
    const double allowance_ns = out.deadline_ms * 1e6;
    const std::int64_t now = budget_clock_now_ns();
    out.deadline_ns =
        allowance_ns < 9e18 &&
                static_cast<std::int64_t>(allowance_ns) < kNever - now
            ? now + static_cast<std::int64_t>(allowance_ns)
            : kNever;
  }
  return out;
}

}  // namespace stackroute
