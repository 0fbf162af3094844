#include "sta/statprop.hpp"

#include <cmath>

#include "sta/annotate.hpp"
#include "stats/quantiles.hpp"

namespace nsdc {

ClarkMax clark_max(double mean_a, double var_a, double mean_b, double var_b,
                   double rho) {
  const double theta2 =
      std::max(var_a + var_b - 2.0 * rho * std::sqrt(var_a * var_b), 0.0);
  ClarkMax out;
  if (theta2 < 1e-40) {
    // Degenerate: (anti)perfectly correlated equal-variance inputs.
    out.mean = std::max(mean_a, mean_b);
    out.var = mean_a >= mean_b ? var_a : var_b;
    return out;
  }
  const double theta = std::sqrt(theta2);
  const double alpha = (mean_a - mean_b) / theta;
  const double phi = normal_pdf(alpha);
  const double big_phi = normal_cdf(alpha);
  out.mean = mean_a * big_phi + mean_b * (1.0 - big_phi) + theta * phi;
  const double second =
      (var_a + mean_a * mean_a) * big_phi +
      (var_b + mean_b * mean_b) * (1.0 - big_phi) +
      (mean_a + mean_b) * theta * phi;
  out.var = std::max(second - out.mean * out.mean, 0.0);
  return out;
}

double StatArrival::sigma() const { return std::sqrt(std::max(var, 0.0)); }

double StatArrival::quantile(double n_sigma) const {
  return mean + n_sigma * sigma();
}

StatisticalSta::Result StatisticalSta::run(
    const GateNetlist& netlist, const ParasiticDb& parasitics) const {
  Result res;
  res.nets.assign(netlist.num_nets(), {});
  // char, not bool: distinct vector<bool> elements share bytes, which
  // would be a data race across same-level cells.
  std::vector<char> reachable(netlist.num_nets(), 0);
  std::vector<std::array<double, 2>> slew(
      netlist.num_nets(), {10e-12, 10e-12});

  const auto& lev = netlist.levelization();
  const bool parallel = config_.sta.parallel_for_size(netlist.num_cells());
  const ExecContext exec =
      parallel ? config_.sta.exec : config_.sta.exec.with_threads(1);

  // Annotated loads/trees (same conventions as the mean engine).
  std::vector<RcTree> trees(netlist.num_nets());
  std::vector<double> load(netlist.num_nets(), 0.0);
  exec.parallel_for(netlist.num_nets(), [&](std::size_t n) {
    const Net& net = netlist.net(static_cast<int>(n));
    if (const RcTree* found = parasitics.find(net.name)) {
      RcTree tree = *found;
      for (const auto& sink : net.sinks) {
        const auto& inst = netlist.cell(sink.cell);
        tree.add_cap(tree.sink_node(sink_pin_name(inst, sink.pin)),
                     inst.type->input_cap(tech_, sink.pin));
      }
      load[n] = tree.total_cap();
      trees[n] = std::move(tree);
    } else {
      load[n] = netlist.net_pin_cap(static_cast<int>(n), tech_);
    }
  });

  for (int pi : netlist.primary_inputs()) {
    reachable[static_cast<std::size_t>(pi)] = 1;
  }

  const double rho = config_.stage_correlation;
  auto propagate_cell = [&](int c) {
    const CellInst& inst = netlist.cell(c);
    const auto out = static_cast<std::size_t>(inst.out_net);
    const bool inverting = inst.type->inverting();
    for (int edge = 0; edge < 2; ++edge) {
      const bool out_rising = edge == 0;
      const bool in_rising = inverting ? !out_rising : out_rising;
      const int in_edge = in_rising ? 0 : 1;
      bool have = false;
      StatArrival acc;
      for (std::size_t pin = 0; pin < inst.fanin_nets.size(); ++pin) {
        const auto fan = static_cast<std::size_t>(inst.fanin_nets[pin]);
        if (!reachable[fan]) continue;
        const StatArrival& in_arr =
            res.nets[fan][static_cast<std::size_t>(in_edge)];
        const double slew_in = slew[fan][static_cast<std::size_t>(in_edge)];

        // Cell delay statistics from the calibrated moment surfaces.
        const Moments dm = cell_model_.moments(
            inst.type->name(), static_cast<int>(pin), in_rising, slew_in,
            load[out]);
        // Wire delay statistics on the fanin net.
        double w_mean = 0.0, w_var = 0.0;
        if (trees[fan].num_nodes() > 1) {
          const double elmore = trees[fan].elmore(trees[fan].sink_node(
              sink_pin_name(inst, static_cast<int>(pin))));
          const int drv = netlist.net(static_cast<int>(fan)).driver_cell;
          const std::string drv_name =
              drv >= 0 ? netlist.cell(drv).type->name() : "INVx4";
          const double xw = wire_model_.xw(drv_name, inst.type->name());
          w_mean = elmore;
          w_var = (xw * elmore) * (xw * elmore);
        }

        // Sum arrival + wire + cell with the configured correlation
        // between the incoming arrival and the new stage delay.
        StatArrival cand;
        cand.mean = in_arr.mean + w_mean + dm.mu;
        const double stage_var = dm.sigma * dm.sigma + w_var;
        cand.var = in_arr.var + stage_var +
                   2.0 * rho * std::sqrt(in_arr.var * stage_var);

        if (!have) {
          acc = cand;
          have = true;
        } else {
          const ClarkMax m =
              clark_max(acc.mean, acc.var, cand.mean, cand.var, rho);
          acc.mean = m.mean;
          acc.var = m.var;
        }
      }
      if (!have) continue;
      reachable[out] = 1;
      res.nets[out][static_cast<std::size_t>(edge)] = acc;
      // Mean slew propagation (same tables as the mean engine).
      slew[out][static_cast<std::size_t>(edge)] = cell_model_.mean_out_slew(
          inst.type->name(), 0, in_rising,
          slew[static_cast<std::size_t>(inst.fanin_nets[0])]
              [static_cast<std::size_t>(in_edge)],
          load[out]);
    }
  };
  // Level-by-level with a barrier between levels: same-level cells are
  // independent (each writes only its own output-net slots).
  for (const auto& level : lev.levels) {
    exec.parallel_for(level.size(),
                      [&](std::size_t i) { propagate_cell(level[i]); });
  }

  // Statistical max over all PO arrivals (both edges).
  bool have = false;
  for (int po : netlist.primary_outputs()) {
    const auto p = static_cast<std::size_t>(po);
    if (!reachable[p]) continue;
    for (int edge = 0; edge < 2; ++edge) {
      const StatArrival& a = res.nets[p][static_cast<std::size_t>(edge)];
      if (!have) {
        res.worst = a;
        have = true;
      } else {
        const ClarkMax m =
            clark_max(res.worst.mean, res.worst.var, a.mean, a.var, rho);
        res.worst.mean = m.mean;
        res.worst.var = m.var;
      }
    }
  }
  return res;
}

}  // namespace nsdc
