#include "spice/circuit.hpp"

#include <cmath>
#include <stdexcept>

namespace nsdc {
namespace {

/// Numerically safe softplus ln(1 + e^x).
double softplus(double x) {
  if (x > 30.0) return x;
  if (x < -30.0) return std::exp(x);
  return std::log1p(std::exp(x));
}

/// Logistic sigmoid.
double sigmoid(double x) {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

}  // namespace

MosEval mos_eval(const MosParams& p, double vd, double vg, double vs) {
  // PMOS by symmetry: reflect voltages about the bulk rail (v' = rail - v),
  // evaluate the NMOS equations, negate the current; derivatives are
  // unchanged (the two sign flips cancel).
  const double sgn = p.nmos ? 1.0 : -1.0;
  const double vd_n = p.nmos ? vd : p.rail - vd;
  const double vg_n = p.nmos ? vg : p.rail - vg;
  const double vs_n = p.nmos ? vs : p.rail - vs;

  const double vt = p.vt_thermal;
  const double vp = (vg_n - p.vth) / p.n_slope;  // pinch-off voltage

  const double xf = (vp - vs_n) / (2.0 * vt);
  const double xr = (vp - vd_n) / (2.0 * vt);
  const double spf = softplus(xf);
  const double spr = softplus(xr);
  const double i_f = spf * spf;  // forward normalized current
  const double i_r = spr * spr;  // reverse normalized current

  // d i_f / d(vp - vs) = spf * sigmoid(xf) / vt, etc.
  const double dif = spf * sigmoid(xf) / vt;
  const double dir = spr * sigmoid(xr) / vt;

  const double is = p.specific_current();
  const double vds = vd_n - vs_n;
  const double m = 1.0 + p.lambda * vds;  // CLM factor (vds >= 0 in operation)

  MosEval e;
  const double core = i_f - i_r;
  e.ids = sgn * is * core * m;
  // Derivatives w.r.t. the *original* node voltages: the sign from the
  // PMOS mirroring cancels (d(sgn*I(sgn*v))/dv = I'(v')).
  e.gm = is * m * (dif - dir) / p.n_slope;
  e.gds = is * (m * dir + p.lambda * core);
  e.gs = is * (-m * dif - p.lambda * core);
  return e;
}

Circuit::Circuit() {
  initial_voltage_.push_back(0.0);  // ground
}

NodeId Circuit::make_node() {
  initial_voltage_.push_back(0.0);
  return static_cast<NodeId>(initial_voltage_.size() - 1);
}

void Circuit::check_node(NodeId n) const {
  if (n < 0 || n >= num_nodes()) {
    throw std::out_of_range("Circuit: invalid node id");
  }
}

void Circuit::add_resistor(NodeId a, NodeId b, double ohms) {
  check_node(a);
  check_node(b);
  if (!(ohms > 0.0)) throw std::invalid_argument("resistor: R must be > 0");
  resistors_.push_back({a, b, ohms});
}

void Circuit::add_capacitor(NodeId a, NodeId b, double farads) {
  check_node(a);
  check_node(b);
  if (!(farads >= 0.0)) throw std::invalid_argument("capacitor: C must be >= 0");
  if (farads == 0.0) return;  // zero cap is a no-op
  capacitors_.push_back({a, b, farads});
}

int Circuit::add_vsource(NodeId pos, NodeId neg, Pwl wave) {
  check_node(pos);
  check_node(neg);
  vsources_.push_back({pos, neg, std::move(wave)});
  return static_cast<int>(vsources_.size()) - 1;
}

void Circuit::add_mosfet(NodeId d, NodeId g, NodeId s, const MosParams& params) {
  check_node(d);
  check_node(g);
  check_node(s);
  mosfets_.push_back({d, g, s, params});
}

void Circuit::set_initial_voltage(NodeId n, double volts) {
  check_node(n);
  initial_voltage_.at(static_cast<std::size_t>(n)) = n == kGround ? 0.0 : volts;
}

double Circuit::initial_voltage(NodeId n) const {
  check_node(n);
  return initial_voltage_.at(static_cast<std::size_t>(n));
}

}  // namespace nsdc
