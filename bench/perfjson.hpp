#pragma once
// Shared instrumentation for the *_perf.json records emitted by
// bench_micro_perf: one steady-clock stopwatch (best_of) and one record
// writer. Every record opens with the same envelope, schema_version plus a
// host-metadata block (hardware lanes, the lane count the default
// ExecContext resolves to, and the resolved scheduling grain), so
// downstream tooling can key on one layout across records, machines, and
// NSDC_GRAIN settings.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/exec.hpp"
#include "util/threading.hpp"

namespace nsdc::perfjson {

/// Version of the shared record envelope. Bump when the envelope itself
/// (not an individual bench's payload) changes incompatibly.
inline constexpr int kSchemaVersion = 1;

/// Opens a record: `{` + schema_version + bench name + host block.
inline void open_envelope(std::ostream& json, const std::string& bench) {
  const ExecContext exec;
  json << "{\n  \"schema_version\": " << kSchemaVersion << ",\n"
       << "  \"bench\": \"" << bench << "\",\n"
       << "  \"host\": {\"hardware_threads\": " << default_threads()
       << ", \"resolved_threads\": " << exec.resolved_threads()
       << ", \"grain\": " << exec.resolved_grain(1) << "}";
}

/// The best wall time of a best_of run and its last call's result.
template <class T>
struct Timed {
  double seconds;
  T result;
};

/// Steady-clock stopwatch: the least wall time over `reps` calls of `fn`.
/// Returns the seconds alone when `fn` returns void, else a Timed with
/// the last call's result (kept and released outside the timed span).
template <class Fn>
auto best_of(int reps, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  using R = std::invoke_result_t<Fn&>;
  double best = 1e300;
  const auto lap = [&best](Clock::time_point t0) {
    best = std::min(
        best, std::chrono::duration<double>(Clock::now() - t0).count());
  };
  if constexpr (std::is_void_v<R>) {
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = Clock::now();
      fn();
      lap(t0);
    }
    return best;
  } else {
    std::optional<R> last;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = Clock::now();
      R r = fn();
      lap(t0);
      last.emplace(std::move(r));
    }
    return Timed<R>{best, std::move(*last)};
  }
}

/// One JSON member: a key and its value rendered as JSON text. Numbers
/// use the stream's default format (6 significant digits), bools print
/// as true/false and anything else is written as a quoted string.
struct Field {
  template <class T>
  Field(std::string k, const T& v) : key(std::move(k)) {
    std::ostringstream os;
    if constexpr (std::is_same_v<T, bool>) {
      os << (v ? "true" : "false");
    } else if constexpr (std::is_arithmetic_v<T>) {
      os << v;
    } else {
      os << '"' << v << '"';
    }
    text = os.str();
  }
  std::string key;
  std::string text;
};
using Fields = std::initializer_list<Field>;

/// A *_perf.json record: the envelope, then top-level members in the
/// order first given. A member is a scalar, an array of flat rows or one
/// flat nested object. Each call is echoed to stderr as one line.
class Record {
 public:
  explicit Record(std::string bench) : bench_(std::move(bench)) {}

  /// Top-level scalar members.
  void fields(Fields fs) {
    for (const Field& f : fs) member(f.key).text = f.text;
    echo("", fs);
  }
  /// Appends a flat row to the array member `array`.
  void row(const std::string& array, Fields fs) {
    Member& m = member(array);
    m.text += (m.array ? ",\n    " : "[\n    ") + object(fs);
    m.array = true;
    echo(array + " ", fs);
  }
  /// A flat object member.
  void nested(const std::string& key, Fields fs) {
    member(key).text = object(fs);
    echo(key + " ", fs);
  }

  void write(const std::string& path) const {
    std::ofstream json(path);
    open_envelope(json, bench_);
    for (const Member& m : members_) {
      json << ",\n  \"" << m.key << "\": " << m.text
           << (m.array ? "\n  ]" : "");
    }
    json << "\n}\n";
    std::cerr << "[" << bench_ << "] wrote " << path << "\n";
  }

 private:
  struct Member {
    std::string key;
    std::string text;  ///< the value's JSON; an array's lacks its "]"
    bool array = false;
  };

  Member& member(const std::string& key) {
    for (Member& m : members_) {
      if (m.key == key) return m;
    }
    return members_.emplace_back(Member{key, {}, false});
  }
  static std::string object(Fields fs) {
    std::string out;
    for (const Field& f : fs) {
      out += (out.empty() ? "{\"" : ", \"") + f.key + "\": " + f.text;
    }
    return out + "}";
  }
  void echo(const std::string& where, Fields fs) const {
    std::cerr << "[" << bench_ << "] " << where << object(fs) << "\n";
  }

  std::string bench_;
  std::vector<Member> members_;
};

}  // namespace nsdc::perfjson
