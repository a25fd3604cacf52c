// Data-parallel loops over one process-wide std::thread pool.
//
// A region splits [0, n) into one contiguous chunk per participant: the
// calling thread runs chunk 0, pool worker w runs chunk w + 1. Workers
// start on first use, live as long as the process (and so does their
// thread_local scratch), and grow to the largest count ever requested.
// Parallelism is one level deep: a region opened inside a chunk or under a
// SerialScope runs serially. While one thread owns the pool, other
// top-level callers run their chunks on their own thread.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace stackroute {

/// Upper bound on the participant count; larger settings are clamped.
inline constexpr int kMaxThreads = 1024;

/// Process-wide participant count; 0 (the default) means
/// std::thread::hardware_concurrency().
void set_max_threads(int n);
/// Participants a region opened here would use: 1 inside a chunk or a
/// SerialScope, otherwise the process-wide setting.
int max_threads();
/// The raw set_max_threads value, for save/restore around a scope.
int max_threads_setting();

/// Runs every region opened on this thread serially while it lives.
class SerialScope {
 public:
  SerialScope();
  ~SerialScope();
  SerialScope(const SerialScope&) = delete;
  SerialScope& operator=(const SerialScope&) = delete;
};

namespace detail {
/// 1 below two grains, else max_threads() (at most n).
inline std::size_t chunk_count(std::size_t n, std::size_t grain) {
  return n < 2 * grain ? 1 : std::min<std::size_t>(max_threads(), n);
}
/// First index of chunk c of [0, n) split into near-equal contiguous chunks.
inline std::size_t chunk_begin(std::size_t n, std::size_t chunks,
                               std::size_t c) {
  return c * (n / chunks) + std::min(c, n % chunks);
}
/// Calls body(c) for every c in [0, chunks >= 2), returning once all are
/// done; rethrows the first exception a chunk threw.
using ChunkBody = std::function<void(std::size_t)>;
void run_chunks(std::size_t chunks, const ChunkBody& body);
}  // namespace detail

/// Parallel loop over [0, n). `fn(i)` must be safe to run concurrently for
/// distinct i. Serial below two grains, where waking the pool costs more
/// than the work.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, std::size_t grain = 64) {
  const std::size_t chunks = detail::chunk_count(n, grain);
  if (chunks == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto body = [&](std::size_t c) {
    const std::size_t end = detail::chunk_begin(n, chunks, c + 1);
    for (std::size_t i = detail::chunk_begin(n, chunks, c); i < end; ++i) fn(i);
  };
  detail::run_chunks(chunks, std::ref(body));
}

/// Parallel sum of fn(i) over [0, n). Chunk partial sums are added in
/// chunk order, so the result depends only on n and max_threads(); below
/// two grains it is the serial loop.
template <typename Fn>
double parallel_sum(std::size_t n, Fn&& fn, std::size_t grain = 512) {
  double total = 0.0;
  const std::size_t chunks = detail::chunk_count(n, grain);
  if (chunks == 1) {
    for (std::size_t i = 0; i < n; ++i) total += fn(i);
    return total;
  }
  std::vector<double> partial(chunks);
  auto body = [&](std::size_t c) {
    double s = 0.0;  // local: chunks share no cache line while summing
    const std::size_t end = detail::chunk_begin(n, chunks, c + 1);
    for (std::size_t i = detail::chunk_begin(n, chunks, c); i < end; ++i) {
      s += fn(i);
    }
    partial[c] = s;
  };
  detail::run_chunks(chunks, std::ref(body));
  for (const double s : partial) total += s;
  return total;
}

}  // namespace stackroute
