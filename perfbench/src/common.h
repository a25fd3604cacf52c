// Shared plumbing of the benchmark binary: options, clocks, order
// statistics, the metric report printed as the run's last stdout line,
// the benchmark's spans (chrome-trace export + per-layer self times), and
// a small strict JSON reader, so serve responses are checked independently
// of the library's own parser.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Goodput latency limit of this workload (from BENCHMARK.json's why).
  double goodput_limit_ms = 0.0;
  std::string trace_out;  // chrome-trace path written by traced runs
  std::string commit = "unknown";
};

/// Monotonic wall clock in milliseconds.
double now_ms();

/// Linear-interpolated quantile (q in [0, 1]) of `v`; NaN when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// splitmix64: the benchmark's own input generator, seeded from --seed.
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// Caller-side outcome of the ops of one measured segment: one sweep, or
/// a whole phase.
struct OpLog {
  std::vector<double> latency_ms;  // ok ops only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t within_limit = 0;  // ok ops at or under the goodput limit
  double wall_ms = 0.0;

  void add(double ms, bool ok, double limit_ms);
  [[nodiscard]] std::uint64_t ok() const { return attempted - failed; }
  [[nodiscard]] double ops_per_s() const;
};

/// A measured phase as consecutive segments. End-to-end timings are the
/// median over segments of each segment's figure.
using Segments = std::vector<OpLog>;
double median_ops_per_s(const Segments& segments);

/// Metrics of one run plus its correctness verdict.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] double get(const std::string& name) const;
  /// A failed output check: the run is no longer correct.
  void fail(const std::string& why);
  void count_ops(const Segments& segments);

  /// The end-to-end metrics every workload derives from its op segments.
  void set_end_to_end(const Segments& segments);
  /// setup_s from repeated set-ups (median).
  void set_setup(const std::vector<double>& setup_ms);
  void set_peak_rss();

  /// The final stdout line: {"correct","attempted","failed","metrics"}.
  [[nodiscard]] std::string result_json() const;
  [[nodiscard]] bool correct() const { return correct_; }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  bool correct_ = true;
  int reported_failures_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Process high-water RSS in MiB (getrusage).
double peak_rss_mb();

// ---- spans ------------------------------------------------------------

namespace trace {

/// Turns span recording on or off for the whole process.
void set_enabled(bool on);
bool enabled();

/// RAII span on the calling thread's lane (one obs::TraceSession per
/// thread, outside the library's own thread-local trace sink, so only the
/// benchmark's spans are recorded). `name` must be a string literal of the
/// form "<layer>.<what>"; the layer prefix is what self times are
/// attributed to.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

/// Every lane's events as one chrome://tracing document.
bool write_chrome(const std::string& path);

/// Self time per layer (span duration minus the part its children cover),
/// in milliseconds, over every span closed so far.
std::map<std::string, double> layer_self_ms();

}  // namespace trace

// ---- strict JSON reader ---------------------------------------------------

/// Top-level fields of one JSON object line: numbers, strings and
/// booleans by key (nested values are validated but not kept). parse()
/// returns false on any syntax error or trailing garbage.
struct JsonFields {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
  std::map<std::string, bool> bools;

  bool parse(const std::string& text);
  [[nodiscard]] double number(const std::string& key, double fallback) const;
  [[nodiscard]] std::string string(const std::string& key) const;
  [[nodiscard]] bool flag(const std::string& key) const;
};

/// |a - b| <= tol * max(|a|, |b|, 1e-300).
bool close_rel(double a, double b, double tol);

}  // namespace perfbench
