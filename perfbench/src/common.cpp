#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>

#include "stackroute/obs/trace.h"

namespace perfbench {

double now_ms() { return static_cast<double>(stackroute::obs::now_ns()) / 1e6; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t Rand::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rand::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void OpLog::add(double ms, bool ok, double limit_ms) {
  ++attempted;
  if (!ok) {
    ++failed;
    return;
  }
  latency_ms.push_back(ms);
  if (ms <= limit_ms) ++within_limit;
}

double OpLog::ops_per_s() const {
  return wall_ms > 0.0 ? 1000.0 * static_cast<double>(ok()) / wall_ms : 0.0;
}

double median_ops_per_s(const Segments& segments) {
  std::vector<double> v;
  for (const OpLog& s : segments) v.push_back(s.ops_per_s());
  return median(v);
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

bool Report::has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

double Report::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? std::nan("") : it->second.first;
}

void Report::fail(const std::string& why) {
  correct_ = false;
  // Enough lines to diagnose, never a flood.
  if (++reported_failures_ <= 20) std::cerr << "check failed: " << why << "\n";
}

void Report::count_ops(const Segments& segments) {
  for (const OpLog& s : segments) {
    attempted_ += s.attempted;
    failed_ += s.failed;
  }
}

void Report::set_end_to_end(const Segments& segments) {
  std::vector<double> p50, tail, goodput;
  std::uint64_t attempted = 0, failed = 0;
  for (const OpLog& s : segments) {
    attempted += s.attempted;
    failed += s.failed;
    // The highest quantile with at least ten ok ops beyond it, capped at
    // p99: a segment of few, slow ops falls back towards its median.
    const double n = static_cast<double>(std::max<std::uint64_t>(s.ok(), 1));
    const double q = std::max(0.5, std::min(0.99, 1.0 - 10.0 / n));
    p50.push_back(quantile(s.latency_ms, 0.5));
    tail.push_back(quantile(s.latency_ms, q));
    goodput.push_back(s.wall_ms > 0.0 ? 1000.0 *
                                            static_cast<double>(s.within_limit) /
                                            s.wall_ms
                                      : 0.0);
  }
  set("ops_per_s", median_ops_per_s(segments), "1/s");
  set("latency_p50_ms", median(p50), "ms");
  set("latency_p99_ms", median(tail), "ms");
  set("goodput_per_s", median(goodput), "1/s");
  set("ok_rate",
      attempted > 0 ? static_cast<double>(attempted - failed) /
                          static_cast<double>(attempted)
                    : 0.0,
      "ratio");
}

void Report::set_setup(const std::vector<double>& setup_ms) {
  set("setup_s", median(setup_ms) / 1000.0, "s");
}

void Report::set_peak_rss() { set("peak_rss_mb", peak_rss_mb(), "MiB"); }

std::string Report::result_json() const {
  std::ostringstream os;
  bool ok = correct_ && attempted_ > 0 && failed_ == 0;
  std::ostringstream ms;
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    double v = vu.first;
    if (!std::isfinite(v)) {
      std::cerr << "check failed: metric " << name << " is not finite\n";
      ok = false;
      v = -1.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    ms << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  os << "{\"correct\": " << (ok ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
     << ", \"failed\": " << failed_ << ", \"metrics\": {" << ms.str() << "}}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

bool close_rel(double a, double b, double tol) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) <= tol * scale;
}

// ---- spans ------------------------------------------------------------

namespace trace {
namespace {

namespace obs = stackroute::obs;

struct Open {
  const char* name;
  std::int64_t begin_ns;
  std::int64_t children_ns = 0;
};

/// One thread's spans: the library's single-threaded TraceSession records
/// and exports them; the open stack gives each span's self time.
struct Lane {
  explicit Lane(std::int64_t epoch) : session(epoch) {}
  obs::TraceSession session;
  std::vector<Open> open;
  std::map<std::string, double> self_ms;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<Lane>> g_lanes;
const std::int64_t g_epoch = obs::now_ns();
thread_local Lane* tl_lane = nullptr;

Lane& lane() {
  if (tl_lane == nullptr) {
    const std::lock_guard<std::mutex> lock(g_mu);
    g_lanes.push_back(std::make_unique<Lane>(g_epoch));
    g_lanes.back()->session.set_tid(static_cast<int>(g_lanes.size()));
    tl_lane = g_lanes.back().get();
  }
  return *tl_lane;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) : on_(enabled()) {
  if (!on_) return;
  Lane& l = lane();
  l.session.begin(name);
  l.open.push_back({name, obs::now_ns()});
}

Span::~Span() {
  if (!on_) return;
  Lane& l = lane();
  l.session.end();
  const Open o = l.open.back();
  l.open.pop_back();
  const std::int64_t dur = obs::now_ns() - o.begin_ns;
  const std::string name(o.name);
  l.self_ms[name.substr(0, name.find('.'))] +=
      static_cast<double>(dur - o.children_ns) / 1e6;
  if (!l.open.empty()) l.open.back().children_ns += dur;
}

bool write_chrome(const std::string& path) {
  std::ofstream os(path);
  const std::lock_guard<std::mutex> lock(g_mu);
  std::vector<const obs::TraceSession*> sessions;
  for (const auto& l : g_lanes) sessions.push_back(&l->session);
  obs::TraceSession::write_chrome_trace(sessions, os);
  return static_cast<bool>(os.flush());
}

std::map<std::string, double> layer_self_ms() {
  std::map<std::string, double> self;
  const std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& l : g_lanes) {
    for (const auto& [layer, ms] : l->self_ms) self[layer] += ms;
  }
  return self;
}

}  // namespace trace

// ---- strict JSON reader ---------------------------------------------------

namespace {

class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool at_end() {
    ws();
    return i_ == s_.size();
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }

  bool string(std::string* out) {
    if (!eat('"')) return false;
    std::string v;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') {
        if (out) *out = v;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        v += c;
        continue;
      }
      if (i_ >= s_.size()) return false;
      const char esc = s_[i_++];
      switch (esc) {
        case '"': v += '"'; break;
        case '\\': v += '\\'; break;
        case '/': v += '/'; break;
        case 'b': v += '\b'; break;
        case 'f': v += '\f'; break;
        case 'n': v += '\n'; break;
        case 'r': v += '\r'; break;
        case 't': v += '\t'; break;
        case 'u':
          for (int k = 0; k < 4; ++k, ++i_) {
            if (i_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[i_]))) {
              return false;
            }
          }
          v += '?';
          break;
        default:
          return false;
      }
    }
    return false;
  }

  bool number(double* out) {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    if (i_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[i_]))) {
      return false;
    }
    if (s_[i_] == '0') {
      ++i_;
    } else {
      while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) ++i_;
    }
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      if (i_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[i_]))) {
        return false;
      }
      while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) ++i_;
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      if (i_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[i_]))) {
        return false;
      }
      while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) ++i_;
    }
    if (out) *out = std::stod(s_.substr(start, i_ - start));
    return true;
  }

  /// Any value; top-level scalars land in `fields` under `key`.
  bool value(JsonFields* fields, const std::string& key, int depth) {
    if (depth > 64) return false;
    ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return object(nullptr, depth + 1);
    if (c == '[') {
      ++i_;
      if (eat(']')) return true;
      do {
        if (!value(nullptr, "", depth + 1)) return false;
      } while (eat(','));
      return eat(']');
    }
    if (c == '"') {
      std::string s;
      if (!string(&s)) return false;
      if (fields) fields->strings[key] = s;
      return true;
    }
    if (literal("true")) {
      if (fields) fields->bools[key] = true;
      return true;
    }
    if (literal("false")) {
      if (fields) fields->bools[key] = false;
      return true;
    }
    if (literal("null")) return true;
    double d = 0.0;
    if (!number(&d)) return false;
    if (fields) fields->numbers[key] = d;
    return true;
  }

  bool object(JsonFields* fields, int depth) {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      std::string key;
      ws();
      if (!string(&key) || !eat(':')) return false;
      if (!value(fields, key, depth)) return false;
    } while (eat(','));
    return eat('}');
  }

 private:
  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

bool JsonFields::parse(const std::string& text) {
  numbers.clear();
  strings.clear();
  bools.clear();
  Reader r(text);
  return r.object(this, 0) && r.at_end();
}

double JsonFields::number(const std::string& key, double fallback) const {
  const auto it = numbers.find(key);
  return it == numbers.end() ? fallback : it->second;
}

std::string JsonFields::string(const std::string& key) const {
  const auto it = strings.find(key);
  return it == strings.end() ? std::string() : it->second;
}

bool JsonFields::flag(const std::string& key) const {
  const auto it = bools.find(key);
  return it != bools.end() && it->second;
}

}  // namespace perfbench
