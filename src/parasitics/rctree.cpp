#include "parasitics/rctree.hpp"

#include <atomic>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace nsdc {

RcTree::RcTree() {
  // Every root-only tree shares this shape and holds no caps, so defaults
  // allocate nothing. The aliasing pointer has no control block: copying or
  // dropping a default tree touches no count, and use_count() reads 0, so
  // own_shape() copies the shape before any write and this one is never
  // written.
  static Shape root{{-1}, {0.0}, {}};
  shape_ = std::shared_ptr<Shape>(std::shared_ptr<Shape>(), &root);
}

RcTree::Shape& RcTree::own_shape() {
  if (shape_.use_count() != 1) {
    shape_ = std::make_shared<Shape>(*shape_);
  } else {
#if !defined(__SANITIZE_THREAD__)  // TSan ignores fences, and GCC warns
    // use_count() is a relaxed read. A count of 1 may come from a copy just
    // dropped on another thread; the fence orders that thread's reads of
    // the shape before this tree's writes.
    std::atomic_thread_fence(std::memory_order_acquire);
#endif
  }
  return *shape_;
}

std::vector<double>& RcTree::own_caps() {
  if (cap_.empty()) cap_.push_back(0.0);
  return cap_;
}

int RcTree::add_node(int parent, double r_ohms, double c_farads) {
  if (parent < 0 || parent >= num_nodes()) {
    throw std::out_of_range("RcTree::add_node: bad parent");
  }
  if (!(r_ohms >= 0.0) || !(c_farads >= 0.0)) {
    throw std::invalid_argument("RcTree::add_node: negative R or C");
  }
  std::vector<double>& cap = own_caps();
  Shape& s = own_shape();
  s.parent.push_back(parent);
  s.res.push_back(r_ohms);
  cap.push_back(c_farads);
  return num_nodes() - 1;
}

void RcTree::add_cap(int node, double c_farads) {
  own_caps().at(static_cast<std::size_t>(node)) += c_farads;
}

void RcTree::mark_sink(int node, std::string pin_name) {
  if (node <= 0 || node >= num_nodes()) {
    throw std::out_of_range("RcTree::mark_sink: bad node");
  }
  own_shape().sinks.push_back({node, std::move(pin_name)});
}

int RcTree::sink_node(std::string_view pin) const {
  for (const auto& s : shape_->sinks) {
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
  for (double x : shape_->res) r += x;
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
  const Shape& sh = *shape_;
  SweepScratch& s = sweep_scratch(sh.parent.size(), node);
  trace_path(sh.parent, node, s);
  for (int v : s.path) {
    s.sum_up[static_cast<std::size_t>(v)] = sum_to_root(sh.parent, sh.res, v);
  }
  return sweep(sh.parent, cap_, s);
}

double RcTree::second_moment(int node) const {
  // m2(i) = sum_k R_common(i,k) * C_k * m1(k); this is the standard
  // path-tracing recursion for the second impulse-response moment. Every
  // m1(k) is elmore(k)'s own sweep, over one sum_up table for all nodes.
  const Shape& sh = *shape_;
  SweepScratch& s = sweep_scratch(sh.parent.size(), node);
  for (int v = 1; v < num_nodes(); ++v) {
    s.sum_up[static_cast<std::size_t>(v)] = sum_to_root(sh.parent, sh.res, v);
  }
  for (int k = 1; k < num_nodes(); ++k) {
    trace_path(sh.parent, k, s);
    s.m1[static_cast<std::size_t>(k)] = sweep(sh.parent, cap_, s);
  }
  trace_path(sh.parent, node, s);
  sweep(sh.parent, cap_, s);
  double m2 = 0.0;
  for (std::size_t k = 1; k < sh.parent.size(); ++k) {
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
  std::vector<double>& cap = t.own_caps();
  std::vector<double>& res = t.own_shape().res;
  for (std::size_t i = 0; i < res.size(); ++i) {
    res[i] *= r_factor;
    cap[i] *= c_factor;
  }
  return t;
}

RcTree RcTree::perturbed(Rng& rng, double sigma_local, double r_factor,
                         double c_factor) const {
  RcTree t = *this;
  std::vector<double>& cap = t.own_caps();
  std::vector<double>& res = t.own_shape().res;
  auto local = [&] {
    const double z = rng.normal();
    return std::max(0.3, 1.0 + sigma_local * (z > 4.0 ? 4.0 : (z < -4.0 ? -4.0 : z)));
  };
  for (std::size_t i = 1; i < res.size(); ++i) {
    res[i] *= r_factor * local();
    cap[i] *= c_factor * local();
  }
  cap[0] *= c_factor;
  return t;
}

std::vector<NodeId> RcTree::build_spice(Circuit& ckt, NodeId root,
                                        double initial_v) const {
  std::vector<NodeId> ids(static_cast<std::size_t>(num_nodes()));
  ids[0] = root;
  for (int n = 1; n < num_nodes(); ++n) {
    ids[static_cast<std::size_t>(n)] = ckt.make_node();
    ckt.set_initial_voltage(ids[static_cast<std::size_t>(n)], initial_v);
  }
  for (int n = 1; n < num_nodes(); ++n) {
    const auto ni = static_cast<std::size_t>(n);
    const auto pi = static_cast<std::size_t>(shape_->parent[ni]);
    // A zero-resistance edge would need node merging; clamp to 0.1 Ohm.
    ckt.add_resistor(ids[pi], ids[ni], std::max(shape_->res[ni], 0.1));
    if (cap_[ni] > 0.0) ckt.add_capacitor(ids[ni], kGround, cap_[ni]);
  }
  if (node_cap(0) > 0.0) ckt.add_capacitor(root, kGround, node_cap(0));
  return ids;
}

}  // namespace nsdc
