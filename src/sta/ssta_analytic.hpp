#pragma once
// Analytic four-moment block-based SSTA — the deterministic counterpart of
// NetlistMonteCarlo. One levelized traversal over the frozen StatArc
// records both engines read (sta/statarcs) propagates per-net arrival
// moments [mu, sigma, gamma, kappa] instead of sampling them: series
// cell+wire stages combine by moment-space convolution under the same
// die-to-die correlation split as the sampler, and reconvergent fanins
// combine with a skewness-aware statistical max (Clark's Gaussian max,
// applied CONDITIONALLY on the two global normals and integrated over
// them, which keeps the shared skewed die-to-die component exact through
// the fold; degenerate inputs fall back to the exact
// Gaussian/deterministic forms).
//
// Arrival representation. Each net-edge arrival is carried as
//     A = mu + sum_k gc_k He_k(Gc) + sum_k gw_k He_k(Gw)
//           + sum_i sum_k u_{i,k} B_{i,k} + L(l2, l3, l4)
// where Gc/Gw are the two global (die-to-die) standard normals of the
// sampler, He_k are probabilists' Hermite polynomials (k = 1..3), and
// B_{i,k} is the orthonormalized span of the order-k terms a stage through
// instance/net i contributes that involve its LOCAL normal z_i: the pure
// He_k(z_i) term plus the He_j(G) * He_m(z_i) cross terms of total degree
// k. Because every stage of a domain mixes with the same fixed weights
// (z = w_g G + w_l z_i), those terms enter with fixed ratios, so one
// scalar u_{i,k} = sqrt(V_k) * a_k per (index, order) captures them all:
// distinct-index terms are orthogonal (every factor He_m(z_i), m >= 1,
// has zero mean), so variances and covariances are plain dot products
// over the u vectors. L is an independent residual carrying what the
// clamps push beyond cubic order, plus the local/cross third and fourth
// cumulants treated as additive. Means and variances are exact under this
// decomposition (per-stage Hermite projections come from Gauss-Hermite
// quadrature of the exact sampled stage delay, clamp and all);
// third/fourth cumulants are exact per stage and approximate across
// stages. Shared-path and shared-draw correlations — the reason Clark's
// textbook max misses on reconvergent fanin, and why two arcs of one gate
// sharing a single cell draw are nearly comonotone — are captured exactly
// through cubic order via the u vectors and the accumulated global
// coefficients.
//
// Determinism contract: levelized propagation with a barrier between
// levels, each (cell, edge) task writing only its own output slot, and all
// quadratures/fold orders fixed by the netlist — results are byte-identical
// at any thread count, like the mean engine. With variation_scale = 0 every
// stage collapses to its nominal delay and the propagated arrivals equal
// the mean engine's (and a 1-sample MC's) to the last bit.
//
// Scheduling: each level is one ExecContext::parallel_for_claimed job on
// every configured lane, at any design size (StaConfig::min_parallel_cells
// gates only the nominal pre-pass), whose lanes claim the (cell, edge)
// tasks one at a time, since task cost follows cone span. The barrier's per-PO worst-edge folds are claimed the
// same way. The circuit max is a strictly ordered fold over PO ids, so it
// is never split: the POs a barrier releases fold as item 0 of the next
// level's job while the other lanes run that level's tasks, and the last
// barrier folds inline.
//
// Memory: a local vector spans its fanin cone's topological index range,
// so holding every arrival to the end would cost O(cells^2). A net's
// arrivals are released at the barrier of the last level that reads them,
// a PO net that no later level reads hands its rise arrival to its worst
// edge instead of copying it, and each PO's worst edge folds into the
// circuit max as soon as every lower PO id has, so only the arrivals
// crossing a level cut stay live (Result::peak_live_locals). Every fold
// takes the same inputs in the same order either way.

#include <array>
#include <cstddef>
#include <vector>

#include "core/nsigma_cell.hpp"
#include "core/nsigma_wire.hpp"
#include "netlist/netlist.hpp"
#include "parasitics/spef.hpp"
#include "sta/engine.hpp"
#include "sta/statarcs.hpp"
#include "stats/moments.hpp"

namespace nsdc {

namespace ssta {

/// One independent delay stage (a cell arc or a wire segment), reduced to
/// what the arrival algebra needs: the mean, the first three Hermite
/// coefficients c_k of the delay as a function of the stage's mixed
/// standard score z (d(z) ~ mean + sum c_k He_k(z)), and the total central
/// cumulants of d(z) for z ~ N(0,1).
struct Stage {
  double mean = 0.0;
  std::array<double, 3> herm{};
  double k2 = 0.0;
  double k3 = 0.0;
  double k4 = 0.0;
  /// Hermite coefficients (orders 1..3, already normalized by k!) of the
  /// stage's conditional LOCAL variance as a function of its global
  /// normal: Var[d | G] = const + sum_k cvar_k He_k(G). A skewed stage
  /// steepens where its global score is high, so its local spread rides
  /// the globals — the statistical max must see that co-movement or it
  /// understates the winner's variance (see Arrival::stat_max).
  std::array<double, 3> cvar{};
};

/// Stage model of a cell arc: cell_stage_delay(arc, z), the function the
/// MC sampler draws through, integrated by Gauss-Hermite quadrature.
/// sigma == 0 short-circuits to the exact nominal delay. (w_g, w_l) are
/// the global/local mixing weights of z = w_g G + w_l z_i, used only for
/// the conditional-variance modulation; the default (0, 1) leaves it off.
Stage cell_stage(const StatArc& arc, double w_g = 0.0, double w_l = 1.0);

/// Stage model of a wire segment: wire_stage_delay(elmore, xw, z), again
/// the sampler's function. xw == 0 short-circuits to Elmore.
Stage wire_stage(double elmore, double xw, double w_g = 0.0,
                 double w_l = 1.0);

/// Which global (die-to-die) normal a stage couples to.
enum class Domain { kCell, kWire };

/// Cumulants k2/k3/k4 of the cubic Hermite polynomial
/// a1*He_1(Z) + a2*He_2(Z) + a3*He_3(Z), Z ~ N(0,1).
struct PolyCumulants {
  double k2 = 0.0;
  double k3 = 0.0;
  double k4 = 0.0;
};
PolyCumulants hermite_poly_cumulants(const std::array<double, 3>& a);

struct Arrival;

/// A lazily-staged arrival: `*base` plus the deltas of up to two series
/// stages (one cell arc, one wire segment), kept unmaterialized so the
/// statistical max can fold a candidate without copying the base's
/// O(fanin-cone) local vector — the engine's dominant memory traffic.
/// Scalar fields accumulate exactly what Arrival::add_stage would have
/// added; `patches` records the per-order local-slot additions.
struct StagedArrival {
  explicit StagedArrival(const Arrival& b) : base(&b) {}

  const Arrival* base;
  double dmu = 0.0;
  std::array<double, 3> dgc{}, dgw{}, dvc{}, dvw{};
  double dl2 = 0.0, dl3 = 0.0, dl4 = 0.0;
  struct Patch {
    std::size_t index = 0;
    std::array<double, 3> du{};
  };
  std::array<Patch, 2> patches{};
  std::size_t n_patches = 0;

  /// Mirrors Arrival::add_stage, accumulating into the deltas.
  void add_stage(const Stage& s, Domain domain, double w_g, double w_l,
                 std::size_t local_index);

  /// The equivalent owning Arrival (used on the fold's rare exact-winner
  /// exits; the hot path never materializes).
  Arrival materialize() const;
};

/// A propagated arrival in the decomposition documented at the top of this
/// header. `local` may be empty, meaning all-zero sensitivities.
struct Arrival {
  double mu = 0.0;
  std::array<double, 3> gc{};  ///< global-cell Hermite coefficients
  std::array<double, 3> gw{};  ///< global-wire Hermite coefficients
  /// Per-local-index orthonormalized sensitivities (see file comment):
  /// slots 0..2 hold u_{i,k}, k = 1..3, of the stage through that
  /// instance/net; slots 3..4 hold the rise/fall fold-residual amplitudes
  /// the engine re-keys onto the produced net (the variance a statistical
  /// max generates beyond its blended representation, which reconvergent
  /// branches sharing the fold must see as COMMON variance, not noise).
  /// cov(A, B) restricted to index i is the dot product of the two
  /// entries.
  std::vector<std::array<double, 5>> local;
  double l2 = 0.0;             ///< residual variance
  double l3 = 0.0;             ///< residual third cumulant
  double l4 = 0.0;             ///< residual fourth cumulant
  /// Hermite modulation (orders 1..3, normalized by k!) of the conditional
  /// local variance around its constant part, per global domain:
  /// Var[local | Gc, Gw] = (sum u^2 + l2) + sum_k vc_k He_k(Gc)
  ///                                      + sum_k vw_k He_k(Gw).
  /// Additive across independent stages (conditional variances of
  /// independent sums add), projected through folds like the mean surface.
  std::array<double, 3> vc{};
  std::array<double, 3> vw{};

  /// Grows `local` to `n` zero entries (no-op when already that large).
  void ensure_locals(std::size_t n);

  /// Adds an independent-drawn stage in series: the stage's Hermite
  /// coefficients split w_g^k * a_k into the stage's global domain and
  /// sqrt(V_k(w_g, w_l)) * a_k into local slot `local_index`; the part of
  /// the stage's cumulants the cubic decomposition cannot carry (clamp
  /// residue beyond degree three) goes to the residual. `local` must
  /// already span `local_index`.
  void add_stage(const Stage& s, Domain domain, double w_g, double w_l,
                 std::size_t local_index);

  /// Total variance (exact under the decomposition).
  double variance() const;

  /// Four-moment summary: exact mu/sigma, gamma/kappa from the accumulated
  /// global polynomials plus the residual cumulants.
  Moments moments() const;

  /// Covariance through the tracked components (globals + locals); the
  /// residuals are independent by construction.
  static double covariance(const Arrival& a, const Arrival& b);

  /// Skewness-aware statistical max, conditional on the globals: given
  /// (Gc, Gw) both conditional means are the tracked Hermite polynomials
  /// (exact — all shared die-to-die skewness included) and the conditional
  /// remainders form a correlated Gaussian pair whose max has closed-form
  /// moments; a 2D tensor Gauss-Hermite rule integrates the analytic
  /// result over the globals. Output global coefficients are the exact
  /// Hermite projections of E[max | Gc, Gw]; locals blend Clark-style with
  /// the win probability. Degenerate cases are exact: both inputs
  /// deterministic -> the larger mean (first on ties, matching the MC
  /// sampler's strict-greater fold); (anti)perfectly correlated inputs ->
  /// the stochastically dominant input.
  static Arrival stat_max(const Arrival& a, const Arrival& b);

  /// In-place form of stat_max: folds `b` into `acc` (reuses acc's local
  /// storage and fuses the O(fanin-cone) passes instead of allocating a
  /// result arrival per fold). stat_max is a thin wrapper over this.
  static void stat_max_into(Arrival& acc, const Arrival& b);

  /// View form — the engine's hot loop: folds base+stage-deltas into `acc`
  /// reading the base's local vector in place, with O(1) patch fix-ups for
  /// the candidate's own stage slots. Never copies or materializes the
  /// candidate except on the rare exact-winner exits. `b.base` must not
  /// alias `acc`.
  static void stat_max_into(Arrival& acc, const StagedArrival& b);
};

}  // namespace ssta

/// Model knobs of the analytic engine: the statistical engines' one set.
using AnalyticSstaOptions = StatModelOptions;

/// Analytic block-based SSTA engine over GateNetlist + ParasiticDb.
class AnalyticSsta {
 public:
  AnalyticSsta(const NSigmaCellModel& cell_model,
               const NSigmaWireModel& wire_model, const TechParams& tech)
      : cell_model_(cell_model), wire_model_(wire_model), tech_(tech) {
    warm_quadratures();
  }

  AnalyticSsta(const NSigmaCellModel& cell_model,
               const NSigmaWireModel& wire_model, const TechParams& tech,
               AnalyticSstaOptions options)
      : cell_model_(cell_model),
        wire_model_(wire_model),
        tech_(tech),
        options_(options) {
    warm_quadratures();
  }

  /// Arrival summary of one net edge (0 = rise at the net).
  struct EdgeStats {
    Moments moments;
    bool reachable = false;
  };

  struct Result {
    /// Per net, per edge: propagated arrival moments.
    std::vector<std::array<EdgeStats, 2>> nets;
    /// Reachable primary-output net ids, ascending; po_* index-parallel.
    std::vector<int> po_nets;
    std::vector<Moments> po_moments;  ///< worst-edge (rise/fall stat-max)
    /// Cornish-Fisher -3s..+3s quantiles of the worst-edge arrival.
    std::vector<std::array<double, 7>> po_quantiles;
    /// Statistical max over every PO's worst edge — the circuit delay.
    Moments circuit_moments;
    std::array<double, 7> circuit_quantiles{};
    int worst_po = -1;  ///< net id of the PO with the largest mean arrival
    Moments worst_po_moments;
    std::array<double, 7> worst_po_quantiles{};
    std::size_t levels = 0;  ///< levelized barriers traversed
    /// Most `local` entries (40 bytes each) held at any level barrier or
    /// at the end of any level's job: net-edge arrivals that a later level
    /// or PO fold still reads, plus PO worst-edge arrivals waiting for the
    /// circuit fold, each counted until the level job that folds it ends.
    /// Depends on the netlist alone, not on the thread count.
    std::size_t peak_live_locals = 0;
    double runtime_seconds = 0.0;
  };

  Result run(const GateNetlist& netlist, const ParasiticDb& parasitics) const;

 private:
  /// Builds the process-global Gauss-Hermite tables the engine integrates
  /// with (they are lazily cached; building them here keeps one-time table
  /// construction out of Result::runtime_seconds, which measures the
  /// propagation itself).
  static void warm_quadratures();

  const NSigmaCellModel& cell_model_;
  const NSigmaWireModel& wire_model_;
  TechParams tech_;
  AnalyticSstaOptions options_{};
};

}  // namespace nsdc
