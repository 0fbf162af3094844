#pragma once
// Reference whole-netlist MC over the frozen StatArcs, one sample at a
// time and on one thread: draw the sample's normals, walk every task as
// scalar code, add every net-edge into its block's accumulator, write the
// endpoint samples, then merge the blocks in index order and compute the
// endpoint statistics serially. NetlistMonteCarlo::run pushes samples
// through each task in batches and computes the endpoint statistics in
// parallel; it promises the same bits as this loop, so the NetMcReference
// suite memcmps the two.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sta/netmc.hpp"
#include "sta/statarcs.hpp"
#include "stats/moments.hpp"
#include "stats/quantiles.hpp"
#include "util/faultinject.hpp"
#include "util/rng.hpp"

namespace nsdc::testfix {

/// Seven sigma-level quantiles over the finite entries of `v` (all zero
/// when none is finite).
inline std::array<double, 7> reference_finite_quantiles(
    const std::vector<double>& v) {
  std::vector<double> finite;
  for (const double x : v) {
    if (std::isfinite(x)) finite.push_back(x);
  }
  if (finite.empty()) return {};
  return sigma_quantiles_smoothed(finite);
}

/// The fields of NetlistMonteCarlo::Result that run() fills from `sys`,
/// computed one sample at a time for blocks [block_begin, block_end).
/// Endpoint statistics are filled only when the range covers every block,
/// as in run(). Samples the fault plan marks `netmc.sample@s=nan` are
/// poisoned.
inline NetlistMonteCarlo::Result reference_netmc(
    const StatArcs& sys, std::size_t n_nets, std::size_t n_cells,
    const StatModelOptions& options, std::uint64_t seed,
    std::size_t n_samples, std::size_t block_begin = 0,
    std::size_t block_end = static_cast<std::size_t>(-1)) {
  NetlistMonteCarlo::Result out;
  out.nets.assign(n_nets, {});
  out.quarantined.assign(n_nets, {0, 0});
  if (n_samples == 0) return out;
  const std::size_t n_pos = sys.po_nets.size();
  out.po_nets = sys.po_nets;
  out.po_samples.assign(n_pos, std::vector<double>(n_samples, 0.0));
  out.circuit_samples.assign(n_samples, 0.0);

  const std::size_t n_blocks =
      std::min(NetlistMonteCarlo::kAccumBlocks, n_samples);
  const std::size_t per_block = (n_samples + n_blocks - 1) / n_blocks;
  const std::size_t b_lo = std::min(block_begin, n_blocks);
  const std::size_t b_hi = std::max(b_lo, std::min(block_end, n_blocks));
  std::vector<std::array<MomentAccumulator, 2>> block_acc(n_blocks * n_nets);

  const double rho = std::clamp(options.die_to_die_share, 0.0, 1.0);
  const double w_g = std::sqrt(rho);
  const double w_l = std::sqrt(1.0 - rho);
  const Rng base(seed);
  constexpr double kQuietNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> arr(2 * n_nets, 0.0);
  std::vector<double> z_cell(n_cells, 0.0);
  std::vector<double> z_wire(n_nets, 0.0);
  for (std::size_t b = b_lo; b < b_hi; ++b) {
    auto* acc = &block_acc[b * n_nets];
    const std::size_t s_begin = std::min(n_samples, b * per_block);
    const std::size_t s_end = std::min(n_samples, s_begin + per_block);
    out.samples_done += s_end - s_begin;
    for (std::size_t s = s_begin; s < s_end; ++s) {
      const bool poison = fault_at("netmc.sample", s) == FaultAction::kNan;
      Rng rng = base.fork("s" + std::to_string(s));
      const double zg_cell = rng.normal();
      const double zg_wire = rng.normal();
      for (std::size_t c = 0; c < n_cells; ++c) z_cell[c] = rng.normal();
      for (std::size_t n = 0; n < n_nets; ++n) z_wire[n] = rng.normal();

      for (const StatTask& t : sys.tasks) {
        const double zc = w_g * zg_cell + w_l * z_cell[t.cell];
        double best = -1.0;
        const StatArc* arc = &sys.arcs[t.first_arc];
        for (std::uint32_t i = 0; i < t.num_arcs; ++i, ++arc) {
          const double cell_d = cell_stage_delay(*arc, zc);
          double wire_d = arc->elmore;
          if (arc->wire_z >= 0) {
            const double zw =
                w_g * zg_wire +
                w_l * z_wire[static_cast<std::size_t>(arc->wire_z)];
            wire_d = wire_stage_delay(arc->elmore, arc->xw, zw);
          }
          const double cand = arr[arc->src_slot] + wire_d + cell_d;
          if (cand > best) best = cand;
        }
        arr[t.out_slot] = best;
      }

      for (std::size_t n = 0; n < n_nets; ++n) {
        if (!sys.reachable[n]) continue;
        for (std::size_t e = 0; e < 2; ++e) {
          const double x = poison ? kQuietNan : arr[2 * n + e];
          if (std::isfinite(x)) {
            acc[n][e].add(x);
          } else {
            ++out.quarantined[n][e];
          }
        }
      }
      double circuit = 0.0;
      bool circuit_finite = !poison;
      for (std::size_t p = 0; p < n_pos; ++p) {
        const auto po = static_cast<std::size_t>(sys.po_nets[p]);
        const double worst =
            poison ? kQuietNan : std::max(arr[2 * po], arr[2 * po + 1]);
        out.po_samples[p][s] = worst;
        if (!std::isfinite(worst)) {
          circuit_finite = false;
        } else if (worst > circuit) {
          circuit = worst;
        }
      }
      out.circuit_samples[s] = circuit_finite ? circuit : kQuietNan;
    }
  }

  std::vector<std::array<MomentAccumulator, 2>> merged(n_nets);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    for (std::size_t n = 0; n < n_nets; ++n) {
      merged[n][0].merge(block_acc[b * n_nets + n][0]);
      merged[n][1].merge(block_acc[b * n_nets + n][1]);
    }
  }
  for (std::size_t n = 0; n < n_nets; ++n) {
    for (std::size_t e = 0; e < 2; ++e) {
      out.nets[n][e].count = merged[n][e].count();
      if (merged[n][e].count() > 0) {
        out.nets[n][e].moments = merged[n][e].moments();
      }
      out.total_quarantined += out.quarantined[n][e];
    }
  }
  if (b_lo != 0 || b_hi != n_blocks) return out;

  out.po_moments.resize(n_pos);
  out.po_quantiles.resize(n_pos);
  double worst_mean = -1.0;
  for (std::size_t p = 0; p < n_pos; ++p) {
    out.po_moments[p] = compute_moments(out.po_samples[p]);
    out.po_quantiles[p] = reference_finite_quantiles(out.po_samples[p]);
    if (out.po_moments[p].mu > worst_mean) {
      worst_mean = out.po_moments[p].mu;
      out.worst_po = out.po_nets[p];
      out.worst_po_moments = out.po_moments[p];
      out.worst_po_quantiles = out.po_quantiles[p];
    }
  }
  out.circuit_moments = compute_moments(out.circuit_samples);
  out.circuit_quantiles = reference_finite_quantiles(out.circuit_samples);
  return out;
}

}  // namespace nsdc::testfix
