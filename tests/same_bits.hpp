#pragma once
// One definition of "bit-identical" for engine results, shared by the
// tests and bench_micro_perf. Each *_diff returns "" when the two results
// carry the same bits in every field it covers, and otherwise the path of
// the first field that differs, with its net, edge, PO, sample or level
// index (e.g. "nets[12][1].moments.sigma"). Values are compared as bit
// patterns (memcmp, the determinism contract of DESIGN §7): +0 and -0
// differ, and NaNs with the same bits are equal. Pointers compare by
// address, strings by content.

#include <array>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "sta/engine.hpp"
#include "sta/netmc.hpp"
#include "sta/ssta_analytic.hpp"

namespace nsdc::testfix {

namespace same_bits_detail {

/// nullopt when `a` and `b` have the same bits, else the path suffix of
/// the first difference below them ("" when they are scalars).
using Path = std::optional<std::string>;

// Declared up front so that every overload sees every other one.
template <class T, std::size_t N>
Path diff(const std::array<T, N>& a, const std::array<T, N>& b);
template <class T>
Path diff(const std::vector<T>& a, const std::vector<T>& b);
inline Path diff(const Moments& a, const Moments& b);
inline Path diff(const StaEngine::NetTime& a, const StaEngine::NetTime& b);
inline Path diff(const NetlistMonteCarlo::EdgeStats& a,
                 const NetlistMonteCarlo::EdgeStats& b);
inline Path diff(const AnalyticSsta::EdgeStats& a,
                 const AnalyticSsta::EdgeStats& b);
inline Path diff(const std::string& a, const std::string& b);
inline Path diff(const RcTree::Sink& a, const RcTree::Sink& b);
inline Path diff(const RcTree& a, const RcTree& b);
inline Path diff(const PathStage& a, const PathStage& b);
inline Path diff(const PathDescription& a, const PathDescription& b);

template <class T>
Path diff(const T& a, const T& b) {
  static_assert(std::is_arithmetic_v<T> || std::is_pointer_v<T>,
                "no bit comparison for this type");
  if (std::memcmp(&a, &b, sizeof a) == 0) return std::nullopt;
  return std::string();
}

/// Prefixes `name` to the path of the first difference.
template <class T>
Path member(const char* name, const T& a, const T& b) {
  Path p = diff(a, b);
  if (p) p->insert(0, name);
  return p;
}

inline Path diff(const Moments& a, const Moments& b) {
  if (Path p = member(".mu", a.mu, b.mu)) return p;
  if (Path p = member(".sigma", a.sigma, b.sigma)) return p;
  if (Path p = member(".gamma", a.gamma, b.gamma)) return p;
  return member(".kappa", a.kappa, b.kappa);
}

inline Path diff(const StaEngine::NetTime& a, const StaEngine::NetTime& b) {
  if (Path p = member(".arrival", a.arrival, b.arrival)) return p;
  if (Path p = member(".slew", a.slew, b.slew)) return p;
  if (Path p = member(".from_pin", a.from_pin, b.from_pin)) return p;
  return member(".reachable", a.reachable, b.reachable);
}

inline Path diff(const NetlistMonteCarlo::EdgeStats& a,
                 const NetlistMonteCarlo::EdgeStats& b) {
  if (Path p = member(".moments", a.moments, b.moments)) return p;
  return member(".count", a.count, b.count);
}

inline Path diff(const AnalyticSsta::EdgeStats& a,
                 const AnalyticSsta::EdgeStats& b) {
  if (Path p = member(".moments", a.moments, b.moments)) return p;
  return member(".reachable", a.reachable, b.reachable);
}

inline Path diff(const std::string& a, const std::string& b) {
  if (a == b) return std::nullopt;
  return std::string();
}

inline Path diff(const RcTree::Sink& a, const RcTree::Sink& b) {
  if (Path p = member(".node", a.node, b.node)) return p;
  return member(".pin", a.pin, b.pin);
}

/// Node by node `parent`, `edge_res` and `node_cap` ("nodes[3].edge_res"),
/// then the sinks.
inline Path diff(const RcTree& a, const RcTree& b) {
  if (Path p = member(".num_nodes()", a.num_nodes(), b.num_nodes())) {
    return p;
  }
  for (int i = 0; i < a.num_nodes(); ++i) {
    Path p = member(".parent", a.parent(i), b.parent(i));
    if (!p) p = member(".edge_res", a.edge_res(i), b.edge_res(i));
    if (!p) p = member(".node_cap", a.node_cap(i), b.node_cap(i));
    if (p) return ".nodes[" + std::to_string(i) + "]" + *p;
  }
  return member(".sinks", a.sinks(), b.sinks());
}

inline Path diff(const PathStage& a, const PathStage& b) {
  if (Path p = member(".cell", a.cell, b.cell)) return p;
  if (Path p = member(".pin", a.pin, b.pin)) return p;
  if (Path p = member(".in_rising", a.in_rising, b.in_rising)) return p;
  if (Path p = member(".input_slew", a.input_slew, b.input_slew)) return p;
  if (Path p = member(".output_load", a.output_load, b.output_load)) {
    return p;
  }
  if (Path p = member(".wire", a.wire, b.wire)) return p;
  if (Path p = member(".sink_node", a.sink_node, b.sink_node)) return p;
  return member(".load_cell", a.load_cell, b.load_cell);
}

inline Path diff(const PathDescription& a, const PathDescription& b) {
  if (Path p = member(".design", a.design, b.design)) return p;
  if (Path p = member(".note", a.note, b.note)) return p;
  return member(".stages", a.stages, b.stages);
}

template <class T>
Path indexed(std::size_t n, const T* a, const T* b) {
  for (std::size_t i = 0; i < n; ++i) {
    if (Path p = diff(a[i], b[i])) {
      return "[" + std::to_string(i) + "]" + *p;
    }
  }
  return std::nullopt;
}

template <class T, std::size_t N>
Path diff(const std::array<T, N>& a, const std::array<T, N>& b) {
  return indexed(N, a.data(), b.data());
}

template <class T>
Path diff(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return std::string(".size()");
  return indexed(a.size(), a.data(), b.data());
}

/// Keeps the first differing field of a sequence of compared fields.
class FirstDiff {
 public:
  template <class T>
  void operator()(const char* field, const T& got, const T& want) {
    if (!first_.empty()) return;
    if (Path p = diff(got, want)) first_ = field + *p;
  }
  const std::string& str() const { return first_; }

 private:
  std::string first_;
};

}  // namespace same_bits_detail

/// Per net `arrival`, `slew`, `from_pin` and `reachable`, then `net_load`,
/// `max_arrival`, `critical_net` and `critical_edge`. Not `annotated`.
inline std::string sta_diff(const StaEngine::Result& got,
                            const StaEngine::Result& want) {
  same_bits_detail::FirstDiff d;
  d("nets", got.nets, want.nets);
  d("net_load", got.net_load, want.net_load);
  d("max_arrival", got.max_arrival, want.max_arrival);
  d("critical_net", got.critical_net, want.critical_net);
  d("critical_edge", got.critical_edge, want.critical_edge);
  return d.str();
}

/// `design`, `note`, then per stage `cell` (by address), `pin`,
/// `in_rising`, `input_slew`, `output_load`, `wire` (node count, then per
/// node `parent`, `edge_res` and `node_cap`, then per sink `node` and
/// `pin`), `sink_node` and `load_cell`.
inline std::string path_diff(const PathDescription& got,
                             const PathDescription& want) {
  const same_bits_detail::Path p = same_bits_detail::diff(got, want);
  return p ? p->substr(1) : std::string();  // drop the leading '.'
}

/// path_diff per path of a report ("paths[2].stages[0].pin"), after the
/// path count ("paths.size()").
inline std::string path_diff(const std::vector<PathDescription>& got,
                             const std::vector<PathDescription>& want) {
  same_bits_detail::FirstDiff d;
  d("paths", got, want);
  return d.str();
}

/// Every statistic: per net-edge moments and counts, quarantine counters,
/// the retained PO and circuit samples and the endpoint statistics. Not
/// the run bookkeeping (`shards`, `runtime_seconds`, `diagnostics`,
/// `blocks_resumed`).
inline std::string netmc_diff(const NetlistMonteCarlo::Result& got,
                              const NetlistMonteCarlo::Result& want) {
  same_bits_detail::FirstDiff d;
  d("nets", got.nets, want.nets);
  d("quarantined", got.quarantined, want.quarantined);
  d("po_nets", got.po_nets, want.po_nets);
  d("po_samples", got.po_samples, want.po_samples);
  d("po_moments", got.po_moments, want.po_moments);
  d("po_quantiles", got.po_quantiles, want.po_quantiles);
  d("circuit_samples", got.circuit_samples, want.circuit_samples);
  d("circuit_moments", got.circuit_moments, want.circuit_moments);
  d("circuit_quantiles", got.circuit_quantiles, want.circuit_quantiles);
  d("worst_po", got.worst_po, want.worst_po);
  d("worst_po_moments", got.worst_po_moments, want.worst_po_moments);
  d("worst_po_quantiles", got.worst_po_quantiles, want.worst_po_quantiles);
  d("total_quarantined", got.total_quarantined, want.total_quarantined);
  d("samples_done", got.samples_done, want.samples_done);
  return d.str();
}

/// Every field but `runtime_seconds`.
inline std::string ssta_diff(const AnalyticSsta::Result& got,
                             const AnalyticSsta::Result& want) {
  same_bits_detail::FirstDiff d;
  d("nets", got.nets, want.nets);
  d("po_nets", got.po_nets, want.po_nets);
  d("po_moments", got.po_moments, want.po_moments);
  d("po_quantiles", got.po_quantiles, want.po_quantiles);
  d("circuit_moments", got.circuit_moments, want.circuit_moments);
  d("circuit_quantiles", got.circuit_quantiles, want.circuit_quantiles);
  d("worst_po", got.worst_po, want.worst_po);
  d("worst_po_moments", got.worst_po_moments, want.worst_po_moments);
  d("worst_po_quantiles", got.worst_po_quantiles, want.worst_po_quantiles);
  d("levels", got.levels, want.levels);
  d("peak_live_locals", got.peak_live_locals, want.peak_live_locals);
  return d.str();
}

}  // namespace nsdc::testfix
