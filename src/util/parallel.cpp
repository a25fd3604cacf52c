#include "stackroute/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>

namespace stackroute {

namespace {

std::atomic<int> g_max_threads{0};
thread_local int tl_serial_depth = 0;  // > 0: regions opened here are serial

int hardware_threads() {
  static const int n = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, kMaxThreads);
  return n;
}

/// Spins until ready() or for 5 ms: long enough to bridge most serial
/// stretches between a solver's regions on Anaheim, where a blocked worker
/// would pay a wake-up per region.
template <typename Ready>
bool spin_until(Ready ready) {
  using std::chrono::steady_clock;
  const auto end = steady_clock::now() + std::chrono::milliseconds(5);
  do {
    for (int k = 0; k < 64; ++k) {
      if (ready()) return true;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  } while (steady_clock::now() < end);
  return false;
}

class Pool {
 public:
  Pool() = default;
  ~Pool() {
    state_.store(kStop);
    state_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Runs a region with the calling thread on chunk 0; false (nothing run)
  /// while another thread owns the pool.
  bool try_run(std::size_t chunks, const detail::ChunkBody& body) {
    const std::unique_lock<std::mutex> own(run_mu_, std::try_to_lock);
    if (!own.owns_lock()) return false;
    while (workers_.size() + 1 < chunks) {
      const std::size_t w = workers_.size();
      workers_.emplace_back([this, w, seen = state_.load()] { work(w, seen); });
    }
    body_ = &body;
    error_ = nullptr;
    pending_.store(chunks - 1);
    state_.store(((state_.load() >> 16) + 1) << 16 | chunks);
    state_.notify_all();
    run(0);
    if (!spin_until([&] { return pending_.load() == 0; })) {
      for (std::size_t p; (p = pending_.load()) != 0;) pending_.wait(p);
    }
    if (error_) std::rethrow_exception(error_);
    return true;
  }

 private:
  static constexpr std::uint64_t kStop = ~std::uint64_t{0};
  static_assert(kMaxThreads < 0xffff);  // the chunk count fits state_

  void run(std::size_t c) {
    try {
      (*body_)(c);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu_);
      if (!error_) error_ = std::current_exception();
    }
  }

  /// Worker w runs chunk w + 1 of every region that has one; workers past
  /// the core count block at once rather than spin on a core others need.
  void work(std::size_t w, std::uint64_t seen) {
    tl_serial_depth = 1;
    const bool spin = static_cast<int>(w) + 1 < hardware_threads();
    for (;;) {
      if (!spin || !spin_until([&] { return state_.load() != seen; })) {
        state_.wait(seen);
      }
      // A region that needs this worker cannot finish without it, so none
      // is skipped between the wake-up and this load.
      seen = state_.load();
      if (seen == kStop) return;
      if (w + 1 >= (seen & 0xffff)) continue;
      run(w + 1);
      if (pending_.fetch_sub(1) == 1) pending_.notify_one();
    }
  }

  std::mutex run_mu_;  // held by the thread that owns the current region
  // The region's body: written before state_ publishes it, read by the
  // workers it needs, stable until pending_ reaches 0.
  const detail::ChunkBody* body_ = nullptr;
  std::mutex error_mu_;
  std::exception_ptr error_;  // the first exception a chunk threw
  std::atomic<std::uint64_t> state_{0};  // epoch << 16 | chunk count
  std::atomic<std::size_t> pending_{0};  // worker chunks still running
  std::vector<std::thread> workers_;     // touched by the owner only
};

}  // namespace

void set_max_threads(int n) {
  g_max_threads.store(std::clamp(n, 0, kMaxThreads));
}

int max_threads_setting() { return g_max_threads.load(); }

int max_threads() {
  if (tl_serial_depth > 0) return 1;
  const int n = g_max_threads.load();
  return n == 0 ? hardware_threads() : n;
}

SerialScope::SerialScope() { ++tl_serial_depth; }
SerialScope::~SerialScope() { --tl_serial_depth; }

namespace detail {

void run_chunks(std::size_t chunks, const ChunkBody& body) {
  const SerialScope serial;  // regions opened by a chunk run serially
  static Pool pool;
  if (pool.try_run(chunks, body)) return;
  for (std::size_t c = 0; c < chunks; ++c) body(c);
}

}  // namespace detail

}  // namespace stackroute
