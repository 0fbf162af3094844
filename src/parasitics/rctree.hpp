#pragma once
// RC interconnect trees: storage, moment metrics (Elmore m1, second moment,
// D2M), variation scaling, and export into the transistor-level simulator.
//
// Node 0 is always the root (the driver output pin). Every other node has a
// parent and a resistance on the edge to its parent; capacitance is lumped
// at nodes. Sinks (receiver input pins) are marked nodes.
//
// Copies share the topology: parents, edge resistances and sinks sit in one
// reference-counted shape, and each tree owns only its node caps. A copy
// costs a count increment and one vector of doubles; add_cap writes the
// caps alone, and the calls that change the shape give the tree its own
// shape first whenever another tree still reaches it. Default (root-only)
// trees share one process-wide shape that is not reference-counted, so
// copying and destroying them does no atomic work, and they hold no caps:
// an empty cap vector stands for the root's 0.0, so they allocate nothing
// either. Every call that writes caps first materializes that {0.0}, then
// runs the same arithmetic as on any other tree, so no value differs from
// a tree that holds {0.0} (scaled and perturbed multiply the materialized
// root cap, and total_cap() of no caps is +0.0, the bits of 0.0 + 0.0).
// A moved-from tree holds no shape: assign to it or destroy it, nothing
// else.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spice/circuit.hpp"
#include "util/rng.hpp"

namespace nsdc {

class RcTree {
 public:
  RcTree();

  /// Adds a node hanging off `parent` through resistance `r_ohms`, with
  /// `c_farads` lumped at the new node. Returns the new node index. The
  /// parent must already exist, so every node's parent index is below its
  /// own (the order elmore() sweeps in).
  int add_node(int parent, double r_ohms, double c_farads);

  /// Adds extra lumped capacitance at an existing node (e.g. pin caps).
  void add_cap(int node, double c_farads);

  /// Marks a node as a sink pin.
  void mark_sink(int node, std::string pin_name);

  int num_nodes() const {
    return cap_.empty() ? 1 : static_cast<int>(cap_.size());
  }
  int parent(int node) const {
    return shape_->parent.at(static_cast<std::size_t>(node));
  }
  double edge_res(int node) const {
    return shape_->res.at(static_cast<std::size_t>(node));
  }
  double node_cap(int node) const {
    return cap_.empty() && node == 0 ? 0.0
                                     : cap_.at(static_cast<std::size_t>(node));
  }

  struct Sink {
    int node = 0;
    std::string pin;
  };
  const std::vector<Sink>& sinks() const { return shape_->sinks; }
  /// Sink node for a pin name; throws std::out_of_range if absent.
  /// Takes a string_view so interned names (FlatTimingGraph arena) look
  /// up without allocating.
  int sink_node(std::string_view pin) const;

  double total_cap() const;
  double total_res() const;

  /// Elmore delay (first moment of the impulse response) root -> node:
  /// m1 = sum_k R_common(node,k) C_k, where R_common is the resistance of
  /// the edges from LCA(node,k) up to the root. One O(nodes + depth^2)
  /// sweep in index order, relying on parent < child (which add_node
  /// enforces); allocation-free once the calling thread's scratch is warm
  /// and safe to call on one tree from several threads. Throws
  /// std::out_of_range for a bad node.
  double elmore(int node) const;
  /// Second impulse-response moment  m2 = sum_k R_common(i,k) C_k m1(k),
  /// with every m1(k) from elmore's sweep: O(nodes^2) per call.
  double second_moment(int node) const;
  /// D2M delay metric: ln(2) * m1^2 / sqrt(m2).
  double d2m(int node) const;

  /// Copy with all resistances / capacitances scaled (variation corners).
  RcTree scaled(double r_factor, double c_factor) const;
  /// Copy with independent per-element local variation factors.
  RcTree perturbed(Rng& rng, double sigma_local, double r_factor,
                   double c_factor) const;

  /// Instantiates the tree into a circuit. `root` is the existing circuit
  /// node for the driver pin; returns circuit nodes indexed by tree node
  /// (entry 0 == root). All tree nodes start at `initial_v`.
  std::vector<NodeId> build_spice(Circuit& ckt, NodeId root,
                                  double initial_v) const;

 private:
  /// Everything but the caps. A shape two trees can reach is never written.
  struct Shape {
    std::vector<int> parent;
    std::vector<double> res;
    std::vector<Sink> sinks;
  };
  /// The shape, first replaced by a private copy unless this tree holds
  /// its only count (never so for the uncounted default root); the only
  /// way to a writable shape.
  Shape& own_shape();
  /// The caps, first materialized as the root's {0.0} when this tree holds
  /// none; the only way to writable caps.
  std::vector<double>& own_caps();

  std::shared_ptr<Shape> shape_;
  std::vector<double> cap_;  ///< empty: root-only, root cap 0.0
};

}  // namespace nsdc
