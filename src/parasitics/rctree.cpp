#include "parasitics/rctree.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace nsdc {

RcTree::RcTree() {
  parent_.push_back(-1);
  res_.push_back(0.0);
  cap_.push_back(0.0);
}

int RcTree::add_node(int parent, double r_ohms, double c_farads) {
  if (parent < 0 || parent >= num_nodes()) {
    throw std::out_of_range("RcTree::add_node: bad parent");
  }
  if (!(r_ohms >= 0.0) || !(c_farads >= 0.0)) {
    throw std::invalid_argument("RcTree::add_node: negative R or C");
  }
  parent_.push_back(parent);
  res_.push_back(r_ohms);
  cap_.push_back(c_farads);
  return num_nodes() - 1;
}

void RcTree::add_cap(int node, double c_farads) {
  cap_.at(static_cast<std::size_t>(node)) += c_farads;
}

void RcTree::mark_sink(int node, std::string pin_name) {
  if (node <= 0 || node >= num_nodes()) {
    throw std::out_of_range("RcTree::mark_sink: bad node");
  }
  sinks_.push_back({node, std::move(pin_name)});
}

int RcTree::sink_node(std::string_view pin) const {
  for (const auto& s : sinks_) {
    if (s.pin == pin) return s.node;
  }
  throw std::out_of_range("RcTree: unknown sink pin " + std::string(pin));
}

double RcTree::total_cap() const {
  double c = 0.0;
  for (double x : cap_) c += x;
  return c;
}

double RcTree::total_res() const {
  double r = 0.0;
  for (double x : res_) r += x;
  return r;
}

namespace {

/// Per-thread scratch of the Elmore sweep. It grows to the largest tree the
/// thread has seen and never shrinks, so warm calls allocate nothing, and
/// the tree itself keeps no state (bind calls elmore on one tree from
/// several lanes at once).
struct SweepScratch {
  std::vector<int> path;       ///< sink, parent(sink), ..., child of root
  std::vector<double> sum_up;  ///< per node v: edge resistances from v up
  std::vector<double> shared;  ///< per node k: R_common(sink, k)
  std::vector<double> m1;      ///< per node k: elmore(k) (second_moment)
};

/// The calling thread's scratch, sized for a tree of `nodes` nodes, once
/// `node` is checked to be one of them.
SweepScratch& sweep_scratch(std::size_t nodes, int node) {
  if (node < 0 || static_cast<std::size_t>(node) >= nodes) {
    throw std::out_of_range("RcTree: bad node " + std::to_string(node));
  }
  thread_local SweepScratch s;
  if (s.shared.size() < nodes) {
    s.sum_up.resize(nodes);
    s.shared.resize(nodes);
    s.m1.resize(nodes);
  }
  return s;
}

/// Edge resistances from `v` up to the root, summed bottom-up from 0.0.
double sum_to_root(const std::vector<int>& parent,
                   const std::vector<double>& res, int v) {
  double r = 0.0;
  for (; v > 0; v = parent[static_cast<std::size_t>(v)]) {
    r += res[static_cast<std::size_t>(v)];
  }
  return r;
}

/// Fills s.path with the root path of `sink`, deepest node first.
void trace_path(const std::vector<int>& parent, int sink, SweepScratch& s) {
  s.path.clear();
  for (int v = sink; v > 0; v = parent[static_cast<std::size_t>(v)]) {
    s.path.push_back(v);
  }
}

/// One index-order sweep for the sink whose root path is in s.path, with
/// s.sum_up set on that path. Fills s.shared[k] = R_common(sink, k), the
/// resistance of the edges from LCA(sink, k) up to the root, and returns
/// elmore(sink) = sum_k R_common(sink, k) * C_k. R_common(sink, k) is
/// sum_up[k] for k on the path and R_common(sink, parent(k)) otherwise;
/// parent < child makes the parent's entry final before k is reached.
double sweep(const std::vector<int>& parent, const std::vector<double>& cap,
             SweepScratch& s) {
  std::size_t next = s.path.size();  // s.path[next - 1]: next on-path node
  s.shared[0] = 0.0;
  double m1 = 0.0;
  for (std::size_t k = 1; k < parent.size(); ++k) {
    if (next > 0 && static_cast<std::size_t>(s.path[next - 1]) == k) {
      --next;
      s.shared[k] = s.sum_up[k];
    } else {
      s.shared[k] = s.shared[static_cast<std::size_t>(parent[k])];
    }
    m1 += s.shared[k] * cap[k];
  }
  return m1;
}

}  // namespace

double RcTree::elmore(int node) const {
  SweepScratch& s = sweep_scratch(parent_.size(), node);
  trace_path(parent_, node, s);
  for (int v : s.path) {
    s.sum_up[static_cast<std::size_t>(v)] = sum_to_root(parent_, res_, v);
  }
  return sweep(parent_, cap_, s);
}

double RcTree::second_moment(int node) const {
  // m2(i) = sum_k R_common(i,k) * C_k * m1(k); this is the standard
  // path-tracing recursion for the second impulse-response moment. Every
  // m1(k) is elmore(k)'s own sweep, over one sum_up table for all nodes.
  SweepScratch& s = sweep_scratch(parent_.size(), node);
  for (int v = 1; v < num_nodes(); ++v) {
    s.sum_up[static_cast<std::size_t>(v)] = sum_to_root(parent_, res_, v);
  }
  for (int k = 1; k < num_nodes(); ++k) {
    trace_path(parent_, k, s);
    s.m1[static_cast<std::size_t>(k)] = sweep(parent_, cap_, s);
  }
  trace_path(parent_, node, s);
  sweep(parent_, cap_, s);
  double m2 = 0.0;
  for (std::size_t k = 1; k < parent_.size(); ++k) {
    m2 += s.shared[k] * cap_[k] * s.m1[k];
  }
  return m2;
}

double RcTree::d2m(int node) const {
  const double m1 = elmore(node);
  const double m2 = second_moment(node);
  if (m2 <= 0.0) return m1 * std::numbers::ln2;
  return std::numbers::ln2 * m1 * m1 / std::sqrt(m2);
}

RcTree RcTree::scaled(double r_factor, double c_factor) const {
  RcTree t = *this;
  for (std::size_t i = 0; i < t.res_.size(); ++i) {
    t.res_[i] *= r_factor;
    t.cap_[i] *= c_factor;
  }
  return t;
}

RcTree RcTree::perturbed(Rng& rng, double sigma_local, double r_factor,
                         double c_factor) const {
  RcTree t = *this;
  auto local = [&] {
    const double z = rng.normal();
    return std::max(0.3, 1.0 + sigma_local * (z > 4.0 ? 4.0 : (z < -4.0 ? -4.0 : z)));
  };
  for (std::size_t i = 1; i < t.res_.size(); ++i) {
    t.res_[i] *= r_factor * local();
    t.cap_[i] *= c_factor * local();
  }
  t.cap_[0] *= c_factor;
  return t;
}

std::vector<NodeId> RcTree::build_spice(Circuit& ckt, NodeId root,
                                        double initial_v) const {
  std::vector<NodeId> ids(static_cast<std::size_t>(num_nodes()));
  ids[0] = root;
  for (int n = 1; n < num_nodes(); ++n) {
    ids[static_cast<std::size_t>(n)] = ckt.make_node("rc" + std::to_string(n));
    ckt.set_initial_voltage(ids[static_cast<std::size_t>(n)], initial_v);
  }
  for (int n = 1; n < num_nodes(); ++n) {
    const auto ni = static_cast<std::size_t>(n);
    const auto pi = static_cast<std::size_t>(parent_[ni]);
    // A zero-resistance edge would need node merging; clamp to 0.1 Ohm.
    ckt.add_resistor(ids[pi], ids[ni], std::max(res_[ni], 0.1));
    if (cap_[ni] > 0.0) ckt.add_capacitor(ids[ni], kGround, cap_[ni]);
  }
  if (cap_[0] > 0.0) ckt.add_capacitor(root, kGround, cap_[0]);
  return ids;
}

}  // namespace nsdc
