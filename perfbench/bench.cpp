#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail_quantile(std::size_t n) {
  double best = 0.5;
  for (const double q : {0.75, 0.9, 0.95, 0.99}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) best = q;
  }
  return best;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int SpanRecorder::open(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_s = std::chrono::duration<double>(Clock::now() - epoch_).count();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id, std::uint64_t items) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.dur_s =
      std::chrono::duration<double>(Clock::now() - epoch_).count() - s.start_s;
  s.items = items;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.dur_s);
  }
  return out;
}

double SpanRecorder::median_s(const std::string& name) const {
  return median(durations(name));
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  out << std::setprecision(17);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_s * 1e6
        << ",\"dur\":" << s.dur_s * 1e6 << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"items\":" << s.items << "}}";
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
