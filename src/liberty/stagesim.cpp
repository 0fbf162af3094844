#include "liberty/stagesim.hpp"

#include <algorithm>
#include <cmath>

#include "util/log.hpp"

namespace nsdc {

Pwl StageSimulator::trace_to_pwl(const Trace& trace, double t_shift,
                                 double v_epsilon) {
  std::vector<std::pair<double, double>> pts;
  if (trace.t.empty()) return Pwl::constant(0.0);
  pts.emplace_back(trace.t.front() + t_shift, trace.v.front());
  double last_v = trace.v.front();
  for (std::size_t i = 1; i + 1 < trace.t.size(); ++i) {
    if (std::fabs(trace.v[i] - last_v) > v_epsilon) {
      pts.emplace_back(trace.t[i] + t_shift, trace.v[i]);
      last_v = trace.v[i];
    }
  }
  pts.emplace_back(trace.t.back() + t_shift, trace.v.back());
  return Pwl(std::move(pts));
}

std::optional<StageResult> StageSimulator::run(const StageConfig& config,
                                               const GlobalCorner& corner,
                                               Rng* local_rng) const {
  const CellType& driver = *config.driver;
  const double vdd = tech_.vdd;
  const bool out_rising =
      driver.inverting() ? !config.in_rising : config.in_rising;

  // ---- load estimate for the simulation window ----
  double c_total = config.lumped_load;
  if (config.wire) c_total += config.wire->total_cap();
  for (const auto& rcv : config.receivers) {
    c_total += rcv.cell->input_cap(tech_, rcv.pin);
  }
  c_total += 0.5e-15;  // own junction caps, floor
  const double r_drive = driver.drive_resistance_estimate(tech_);
  double est = 3.0 * r_drive * c_total + 20e-12;
  if (config.wire) {
    const int sink0 = config.wire->sinks().empty()
                          ? config.wire->num_nodes() - 1
                          : config.wire->sinks().front().node;
    est += 3.0 * config.wire->elmore(sink0);
  }

  const double t0 = 30e-12;
  const double in_slew = config.input_slew;
  const bool shaped = config.shaping_driver != nullptr &&
                      config.input_wave == nullptr;

  // Effective input transition duration. For a cascaded waveform, measure
  // departure-to-settling rather than the full recorded span — otherwise
  // simulation windows would inflate cumulatively along a path. For a
  // shaped input, estimate from the shaping RC.
  double ramp_time = in_slew / 0.8;
  if (shaped) {
    const double c_pin =
        driver.input_cap(tech_, config.driver_pin) + config.shaping_cap;
    ramp_time = 4.0 * (3.0 * config.shaping_driver->drive_resistance_estimate(
                                 tech_) *
                           c_pin +
                       15e-12);
  }
  double t_depart = 0.0;
  if (config.input_wave) {
    const Trace& w = *config.input_wave;
    t_depart = w.t.front();
    double t_settle = w.t.back();
    const double v0 = w.v.front();
    const double v1 = w.v.back();
    for (std::size_t i = 0; i < w.t.size(); ++i) {
      if (std::fabs(w.v[i] - v0) > 0.02 * vdd) {
        t_depart = w.t[i > 0 ? i - 1 : 0];
        break;
      }
    }
    for (std::size_t i = w.t.size(); i-- > 0;) {
      if (std::fabs(w.v[i] - v1) > 0.02 * vdd) {
        t_settle = w.t[std::min(i + 1, w.t.size() - 1)];
        break;
      }
    }
    ramp_time = std::max(t_settle - t_depart, 1e-12);
  }

  double window = config.time_window > 0.0
                      ? config.time_window
                      : t0 + ramp_time + 12.0 * est;

  for (int attempt = 0; attempt < 3; ++attempt, window *= 3.0) {
    Circuit ckt;
    const NodeId vdd_node = ckt.make_node();
    ckt.add_vsource(vdd_node, kGround, Pwl::constant(vdd));
    ckt.set_initial_voltage(vdd_node, vdd);

    // ---- switching input ----
    const double v_start = config.in_rising ? 0.0 : vdd;
    NodeId in_node = ckt.make_node();
    if (config.input_wave) {
      // Shift the previous-stage waveform so its departure point sits at t0.
      ckt.add_vsource(in_node, kGround,
                      trace_to_pwl(*config.input_wave, t0 - t_depart,
                                   0.01 * vdd));
      ckt.set_initial_voltage(in_node, v_start);
    } else if (shaped) {
      // Ideal ramp -> nominal shaping cell -> (shaping cap) -> pin node.
      // The shaping cell inverts, so the source ramps opposite to the pin.
      const double src_start = config.in_rising ? vdd : 0.0;
      ckt.add_vsource(in_node, kGround,
                      Pwl::ramp(t0, src_start, vdd - src_start, 10e-12));
      ckt.set_initial_voltage(in_node, src_start);
      // The shaping cell sees the sample's die-to-die corner (so the input
      // edge slows down consistently with the rest of the die — the slew
      // coupling a cell experiences inside a path) but no local mismatch
      // (the arc under test owns the local distribution).
      const NodeId src_node = in_node;
      const NodeId shaped_node = netlister_.instantiate(
          ckt, *config.shaping_driver, std::span<const NodeId>(&src_node, 1),
          vdd_node, corner, nullptr);
      ckt.set_initial_voltage(shaped_node, v_start);
      if (config.shaping_cap > 0.0) {
        ckt.add_capacitor(shaped_node, kGround, config.shaping_cap);
      }
      in_node = shaped_node;
    } else {
      ckt.add_vsource(in_node, kGround,
                      Pwl::ramp(t0, v_start, vdd - v_start, in_slew));
      ckt.set_initial_voltage(in_node, v_start);
    }

    // ---- driver cell with side inputs at non-controlling levels ----
    const auto side = side_input_values(driver.func(), config.driver_pin);
    std::vector<NodeId> driver_ins(static_cast<std::size_t>(driver.num_inputs()));
    for (int p = 0; p < driver.num_inputs(); ++p) {
      if (p == config.driver_pin) {
        driver_ins[static_cast<std::size_t>(p)] = in_node;
        continue;
      }
      const NodeId n = ckt.make_node();
      const double v = side[static_cast<std::size_t>(p)] * vdd;
      ckt.add_vsource(n, kGround, Pwl::constant(v));
      ckt.set_initial_voltage(n, v);
      driver_ins[static_cast<std::size_t>(p)] = n;
    }
    const NodeId drv_out =
        netlister_.instantiate(ckt, driver, driver_ins, vdd_node, corner,
                               local_rng);
    const double out_v0 = out_rising ? 0.0 : vdd;
    ckt.set_initial_voltage(drv_out, out_v0);
    if (config.lumped_load > 0.0) {
      ckt.add_capacitor(drv_out, kGround, config.lumped_load);
    }

    // ---- wire + receivers ----
    NodeId measured_sink = drv_out;
    std::vector<NodeId> wire_nodes;
    if (config.wire) {
      wire_nodes = config.wire->build_spice(ckt, drv_out, out_v0);
    }
    for (std::size_t r = 0; r < config.receivers.size(); ++r) {
      const auto& rcv = config.receivers[r];
      NodeId attach = drv_out;
      if (config.wire) {
        const int tree_node = rcv.sink_pin_name.empty()
                                  ? config.wire->sinks().at(r).node
                                  : config.wire->sink_node(rcv.sink_pin_name);
        attach = wire_nodes[static_cast<std::size_t>(tree_node)];
      }
      if (r == 0) measured_sink = attach;

      const auto rside = side_input_values(rcv.cell->func(), rcv.pin);
      std::vector<NodeId> rins(static_cast<std::size_t>(rcv.cell->num_inputs()));
      for (int p = 0; p < rcv.cell->num_inputs(); ++p) {
        if (p == rcv.pin) {
          rins[static_cast<std::size_t>(p)] = attach;
          continue;
        }
        const NodeId n = ckt.make_node();
        const double v = rside[static_cast<std::size_t>(p)] * vdd;
        ckt.add_vsource(n, kGround, Pwl::constant(v));
        ckt.set_initial_voltage(n, v);
        rins[static_cast<std::size_t>(p)] = n;
      }
      const NodeId rcv_out = netlister_.instantiate(ckt, *rcv.cell, rins,
                                                    vdd_node, corner,
                                                    local_rng);
      const bool rcv_out_rising =
          rcv.cell->inverting() ? !out_rising : out_rising;
      ckt.set_initial_voltage(rcv_out, rcv_out_rising ? 0.0 : vdd);
      const double rload = rcv.output_load >= 0.0
                               ? rcv.output_load
                               : 2.0 * rcv.cell->input_cap(tech_, rcv.pin);
      if (rload > 0.0) ckt.add_capacitor(rcv_out, kGround, rload);
    }

    // ---- simulate ----
    // Step-size cap follows the transition timescale, not the window, so
    // resolution survives even when retries enlarge the window; the floor
    // bounds total cost at ~2500 steps.
    const double transition = std::max(ramp_time, 2.0 * est);
    TransientOptions opts;
    opts.tstop = window;
    opts.dt_max = std::max(transition / 150.0, window / 2500.0);
    const TransientResult res = run_transient(ckt, opts);
    if (!res.ok) {
      log_debug() << "stage sim failed (" << driver.name()
                  << "): " << res.error;
      continue;
    }

    const Trace& tr_in = res.traces[static_cast<std::size_t>(in_node)];
    const Trace& tr_out = res.traces[static_cast<std::size_t>(drv_out)];
    const Trace& tr_sink = res.traces[static_cast<std::size_t>(measured_sink)];

    StageResult out;
    out.out_rising = out_rising;
    const auto d_cell =
        measure_delay(tr_in, config.in_rising, tr_out, out_rising, vdd);
    const auto slew_out = measure_slew(tr_out, vdd, out_rising);
    const auto slew_in = measure_slew(tr_in, vdd, config.in_rising);
    if (!d_cell || !slew_out || !slew_in) {
      log_debug() << "stage measurement miss (" << driver.name()
                  << "): d_cell=" << d_cell.has_value()
                  << " slew_out=" << slew_out.has_value()
                  << " slew_in=" << slew_in.has_value()
                  << " window=" << window;
      continue;  // retry larger window
    }
    out.input_slew = *slew_in;
    out.cell_delay = *d_cell;
    out.driver_out_slew = *slew_out;
    if (config.wire) {
      const auto d_total =
          measure_delay(tr_in, config.in_rising, tr_sink, out_rising, vdd);
      const auto slew_sink = measure_slew(tr_sink, vdd, out_rising);
      if (!d_total || !slew_sink) continue;
      out.total_delay = *d_total;
      out.wire_delay = *d_total - *d_cell;
      out.sink_slew = *slew_sink;
    } else {
      out.total_delay = out.cell_delay;
      out.wire_delay = 0.0;
      out.sink_slew = out.driver_out_slew;
    }
    out.sink_trace = tr_sink;
    return out;
  }
  log_debug() << "stage sim gave up after window retries (" << driver.name()
              << ", window " << window / 3.0 << ")";
  return std::nullopt;
}

}  // namespace nsdc
