#pragma once
// Shared pieces of the repository benchmark: run arguments, the metric
// record a workload returns, wall-clock helpers, latency percentiles, the
// in-memory span recorder used by traced runs, and bitwise result digests
// for the correctness oracles.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload run reports. `attempted` counts every timed or checked
/// operation; `failed` counts thrown calls, non-OK responses, failed
/// correctness checks and quarantined MC samples.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric name -> value; perfbench/run.py attaches the units listed in
  /// BENCHMARK.json.
  std::map<std::string, double> metrics;
  /// Human-readable lines for stderr (sample counts, percentiles used).
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    correct = false;
    ++failed;
    notes.push_back("FAILED: " + why);
  }
  /// Counts one checked operation; records a failure when !ok.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
};

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// The q-quantile of `v` (nearest rank, 0 when empty).
double quantile(std::vector<double> v, double q);

/// Highest quantile on the ladder 0.5, 0.75, 0.9, 0.95, 0.99 that
/// has at least ten samples beyond it, for `n` samples; 0.5 when n < 20.
double tail_quantile(std::size_t n);

/// Peak resident set size of this process in MiB (getrusage high-water).
double peak_rss_mb();

/// Spans kept in memory during a traced run and written once at exit.
/// Each span is one call into a module's public functions, timed from the
/// benchmark's side of the call.
class SpanRecorder {
 public:
  /// A disabled recorder ignores open/close, so untraced runs pay nothing.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double dur_s = 0.0;
    std::uint64_t items = 0;
  };

  /// Opens a span (child of the innermost open span) and returns its id
  /// (-1 when disabled).
  int open(const std::string& name);
  void close(int id, std::uint64_t items = 0);

  /// Durations of every closed span called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;
  /// Median duration of the spans called `name` (0 when none).
  double median_s(const std::string& name) const;

  /// Writes Chrome trace-event JSON; returns false on an I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(SpanRecorder& rec, const std::string& name)
      : rec_(rec), id_(rec.open(name)) {}
  ~Scope() { rec_.close(id_, items_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void set_items(std::uint64_t n) { items_ = n; }

 private:
  SpanRecorder& rec_;
  int id_;
  std::uint64_t items_ = 0;
};

/// 64-bit FNV-1a style digest over raw object bytes: two values digest
/// equal exactly when their bytes are equal (up to hash collisions), which
/// is what the bit-identity oracles need.
class Digest {
 public:
  template <class T>
  Digest& add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Digest& add_str(const std::string& s) {
    for (unsigned char b : s) {
      h_ ^= b;
      h_ *= 0x100000001b3ULL;
    }
    return add(s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
