// util/parallel.h: the thread pool behind parallel_for/parallel_sum —
// coverage of every index, one level of parallelism, growth past the core
// count, repeatable reductions and concurrent top-level callers.
#include "stackroute/util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace stackroute {
namespace {

/// Sets the process-wide thread count for one scope.
class ThreadsScope {
 public:
  explicit ThreadsScope(int n) : saved_(max_threads_setting()) {
    set_max_threads(n);
  }
  ~ThreadsScope() { set_max_threads(saved_); }
  ThreadsScope(const ThreadsScope&) = delete;
  ThreadsScope& operator=(const ThreadsScope&) = delete;

 private:
  int saved_;
};

/// A deterministic, non-trivially-summable term.
double term(std::size_t i) { return std::sin(0.37 * static_cast<double>(i)); }

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kGrain = 16;
  for (const int threads : {1, 2, 3, 4, 8}) {
    const ThreadsScope scope(threads);
    for (const std::size_t n :
         {std::size_t{0}, 2 * kGrain - 1, 2 * kGrain, 2 * kGrain + 1,
          std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(n, [&](std::size_t i) { ++hits[i]; }, kGrain);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "index " << i << " of " << n << " at " << threads << " threads";
      }
    }
  }
}

TEST(ParallelFor, NestedLoopsAndSerialScopesRunOnTheCallingThread) {
  const ThreadsScope scope(4);
  std::vector<std::thread::id> outer(8);
  std::vector<int> nested_off_thread(8, 0);
  parallel_for(
      8,
      [&](std::size_t i) {
        const std::thread::id me = std::this_thread::get_id();
        outer[i] = me;
        EXPECT_EQ(max_threads(), 1);
        parallel_for(
            100,
            [&](std::size_t) {
              if (std::this_thread::get_id() != me) ++nested_off_thread[i];
            },
            /*grain=*/1);
      },
      /*grain=*/1);
  for (std::size_t i = 0; i < outer.size(); ++i) {
    EXPECT_EQ(nested_off_thread[i], 0) << "outer index " << i;
  }
  EXPECT_EQ(outer[0], std::this_thread::get_id());  // the caller runs chunk 0

  const SerialScope serial;
  EXPECT_EQ(max_threads(), 1);
  std::atomic<int> off_thread{0};
  const std::thread::id me = std::this_thread::get_id();
  parallel_for(
      1000,
      [&](std::size_t) {
        if (std::this_thread::get_id() != me) ++off_thread;
      },
      /*grain=*/1);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ParallelFor, GrowsToTheRequestedCountWhateverTheCores) {
  const ThreadsScope scope(8);
  EXPECT_EQ(max_threads(), 8);
  std::vector<std::thread::id> ids(8);
  parallel_for(
      8, [&](std::size_t i) { ids[i] = std::this_thread::get_id(); },
      /*grain=*/1);
  EXPECT_EQ(std::set<std::thread::id>(ids.begin(), ids.end()).size(), 8u);
}

TEST(ParallelFor, DefaultSettingMeansEveryCore) {
  const ThreadsScope scope(0);
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(max_threads(), cores > 0 ? cores : 1);
}

TEST(ParallelFor, RethrowsAChunksException) {
  const ThreadsScope scope(4);
  EXPECT_THROW(parallel_for(
                   400,
                   [](std::size_t i) {
                     if (i == 399) throw std::runtime_error("last chunk");
                   },
                   /*grain=*/1),
               std::runtime_error);
  // The pool stays usable.
  std::atomic<int> count{0};
  parallel_for(400, [&](std::size_t) { ++count; }, /*grain=*/1);
  EXPECT_EQ(count.load(), 400);
}

TEST(ParallelSum, BitwiseRepeatableAndSerialBelowTwoGrains) {
  constexpr std::size_t kGrain = 64;
  const ThreadsScope scope(4);
  const std::size_t n = 50 * kGrain;
  const double first = parallel_sum(n, term, kGrain);
  for (int run = 0; run < 100; ++run) {
    ASSERT_EQ(parallel_sum(n, term, kGrain), first) << "run " << run;
  }
  double serial_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) serial_total += term(i);
  EXPECT_NEAR(first, serial_total, 1e-9 * static_cast<double>(n));

  const std::size_t small = 2 * kGrain - 1;
  double small_serial = 0.0;
  for (std::size_t i = 0; i < small; ++i) small_serial += term(i);
  EXPECT_EQ(parallel_sum(small, term, kGrain), small_serial);
}

TEST(ParallelFor, ConcurrentTopLevelCallersBothFinish) {
  const ThreadsScope scope(4);
  constexpr std::size_t kN = 20000;
  constexpr int kRounds = 50;
  const auto drive = [&](std::vector<double>& out, double& sum) {
    for (int round = 0; round < kRounds; ++round) {
      parallel_for(kN, [&](std::size_t i) { out[i] = term(i) + round; });
      sum = parallel_sum(kN, term);
    }
  };
  std::vector<double> a(kN), b(kN);
  double sum_a = 0.0, sum_b = 0.0;
  std::thread ta([&] { drive(a, sum_a); });
  std::thread tb([&] { drive(b, sum_b); });
  ta.join();
  tb.join();
  const double expected_sum = parallel_sum(kN, term);
  EXPECT_EQ(sum_a, expected_sum);
  EXPECT_EQ(sum_b, expected_sum);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(a[i], term(i) + (kRounds - 1)) << i;
    ASSERT_EQ(b[i], term(i) + (kRounds - 1)) << i;
  }
}

}  // namespace
}  // namespace stackroute
