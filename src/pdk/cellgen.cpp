#include "pdk/cellgen.hpp"

#include <array>
#include <stdexcept>

namespace nsdc {

NodeId CellNetlister::instantiate(Circuit& ckt, const CellType& cell,
                                  std::span<const NodeId> inputs,
                                  NodeId vdd_node, const GlobalCorner& corner,
                                  Rng* local_rng) const {
  if (static_cast<int>(inputs.size()) != cell.num_inputs()) {
    throw std::invalid_argument("CellNetlister: input arity mismatch for " +
                                cell.name());
  }
  const CellTopology& topo = cell.topology();

  const NodeId out = ckt.make_node();
  // Pre-set a plausible initial output level is the caller's business
  // (depends on the input vector); default stays 0.

  NodeId int1 = -1, int2 = -1;
  auto resolve = [&](NetTag tag) -> NodeId {
    switch (tag) {
      case NetTag::kGnd: return kGround;
      case NetTag::kVdd: return vdd_node;
      case NetTag::kOut: return out;
      case NetTag::kInt1:
        if (int1 < 0) int1 = ckt.make_node();
        return int1;
      case NetTag::kInt2:
        if (int2 < 0) int2 = ckt.make_node();
        return int2;
      case NetTag::kIn0: return inputs[0];
      case NetTag::kIn1: return inputs[1];
      case NetTag::kIn2: return inputs[2];
    }
    throw std::logic_error("CellNetlister: bad net tag");
  };

  const double l_eff = tech_.l_min * corner.l_factor;
  for (const auto& fet : topo.fets) {
    const NodeId d = resolve(fet.drain);
    const NodeId g = resolve(fet.gate);
    const NodeId s = resolve(fet.source);

    MosParams p;
    p.nmos = fet.nmos;
    p.w = fet.w_units * static_cast<double>(cell.strength()) *
          (fet.nmos ? tech_.w_min_n : tech_.w_min_p);
    p.l = l_eff;
    p.vt_thermal = tech_.vt_thermal;
    if (fet.nmos) {
      p.vth = tech_.vth_n + corner.dvth_n;
      p.n_slope = tech_.n_slope_n;
      p.kp = tech_.kp_n * corner.mu_n_factor;
      p.lambda = tech_.lambda_n;
    } else {
      p.vth = tech_.vth_p + corner.dvth_p;
      p.n_slope = tech_.n_slope_p;
      p.kp = tech_.kp_p * corner.mu_p_factor;
      p.lambda = tech_.lambda_p;
      p.rail = tech_.vdd;  // PMOS bulk ties to the supply
    }
    if (local_rng) {
      VariationModel vm(tech_);
      p.vth += vm.sample_dvth_local(*local_rng, p.w, p.l);
      p.kp *= vm.sample_mu_factor_local(*local_rng, p.w, p.l);
    }
    ckt.add_mosfet(d, g, s, p);

    // Parasitic capacitances. The MOSFET model itself is capacitance-free,
    // so gate loading and Miller coupling are explicit linear caps.
    const double c_gate = tech_.cox_per_area * p.w * p.l +
                          2.0 * tech_.c_overlap_per_width * p.w;
    ckt.add_capacitor(g, kGround, 0.65 * c_gate);
    ckt.add_capacitor(g, d, 0.35 * c_gate);  // Miller coupling
    const double c_junc = tech_.c_junction_per_width * p.w;
    if (d != vdd_node && d != kGround) ckt.add_capacitor(d, kGround, c_junc);
    if (s != vdd_node && s != kGround) ckt.add_capacitor(s, kGround, c_junc);
  }
  return out;
}

}  // namespace nsdc
