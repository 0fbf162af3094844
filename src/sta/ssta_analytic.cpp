#include "sta/ssta_analytic.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "stats/quantiles.hpp"
#include "util/faultinject.hpp"

namespace nsdc {

namespace ssta {

namespace {

// Quadrature orders. Stages integrate a clamped cubic of the score — 24
// nodes put the quadrature error far below the model error. Polynomial
// cumulants need exactness to degree 12 (n >= 7); 16 leaves margin. The max
// fold quadratures ONLY the two global normals: conditional on (Gc, Gw)
// the max has closed-form moments (see stat_max), so the 2D tensor
// integrand is analytic in the globals — the fold is the engine's hot
// loop, so the grid size is the wall-time knob. The grid is asymmetric:
// the cell-global axis carries the strongly skewed Cornish-Fisher surfaces
// and needs the full order, while the wire-global axis sees only the mild
// linear-with-floor wire stages, whose surface an 8-node rule already
// integrates past the model error. The conditional-variance surface of a
// stage is smoother still (a variance, not a clamped delay), so its outer
// projection gets by with 12 nodes over the global against the full
// kStageQuad inner rule over the local.
constexpr int kStageQuad = 24;
constexpr int kPolyQuad = 16;
constexpr int kMaxQuadC = 16;
constexpr int kMaxQuadW = 6;
constexpr int kCvarQuad = 12;

constexpr std::array<double, 3> kHermNorm{1.0, 2.0, 6.0};  // k! for k=1..3

inline double he1(double x) { return x; }
inline double he2(double x) { return x * x - 1.0; }
inline double he3(double x) { return x * (x * x - 3.0); }

/// Mean, Hermite projections, and central cumulants of d(z), z ~ N(0,1),
/// by Gauss-Hermite quadrature (two-pass central moments). With nonzero
/// mixing weights, also projects the conditional local variance
/// Var[d | G] of z = w_g G + w_l z_i onto He_1..He_3(G) (one inner
/// quadrature per outer node, centered at the stage mean).
Stage stage_from_function(const auto& d, double w_g = 0.0, double w_l = 1.0) {
  const GaussHermite& q = GaussHermite::order(kStageQuad);
  const std::size_t n = q.nodes.size();
  std::array<double, kStageQuad> vals{};
  Stage s;
  for (std::size_t i = 0; i < n; ++i) {
    vals[i] = d(q.nodes[i]);
    s.mean += q.weights[i] * vals[i];
  }
  double c1 = 0.0, c2 = 0.0, c3 = 0.0;
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = q.nodes[i];
    const double w = q.weights[i];
    const double v = vals[i];
    c1 += w * v * he1(x);
    c2 += w * v * he2(x);
    c3 += w * v * he3(x);
    const double dd = v - s.mean;
    const double dd2 = dd * dd;
    m2 += w * dd2;
    m3 += w * dd2 * dd;
    m4 += w * dd2 * dd2;
  }
  s.herm = {c1, c2 / 2.0, c3 / 6.0};
  s.k2 = m2;
  s.k3 = m3;
  s.k4 = m4 - 3.0 * m2 * m2;
  if (w_g > 0.0 && w_l > 0.0) {
    const GaussHermite& qo = GaussHermite::order(kCvarQuad);
    for (std::size_t i = 0; i < qo.nodes.size(); ++i) {
      const double g = qo.nodes[i];
      double cm = 0.0, cv = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const double dv = d(w_g * g + w_l * q.nodes[j]) - s.mean;
        cm += q.weights[j] * dv;
        cv += q.weights[j] * dv * dv;
      }
      cv -= cm * cm;
      const double w = qo.weights[i];
      s.cvar[0] += w * cv * he1(g);
      s.cvar[1] += w * cv * he2(g) / 2.0;
      s.cvar[2] += w * cv * he3(g) / 6.0;
    }
  }
  return s;
}

/// Third/fourth cumulant contribution of the conditional-variance
/// modulation within one global domain: for A = M(G) + L with
/// Var[L | G] = v0 + V(G), M and V the tracked Hermite surfaces, the
/// co-movement of mean and spread contributes
///   k3 += 3 Cov(M, V),   k4 += 6 Cov(M^2, V) + 3 Var(V)
/// beyond the polynomial and residual cumulants (E[L|G] = 0 kills every
/// other cross term, and V's own spread fattens the fourth moment). k2 is
/// untouched: E[V] = 0 by construction.
PolyCumulants modulation_cumulants(const std::array<double, 3>& g,
                                   const std::array<double, 3>& v) {
  PolyCumulants out;
  if (v[0] == 0.0 && v[1] == 0.0 && v[2] == 0.0) return out;
  double gv = 0.0, vv = 0.0;
  for (std::size_t k = 0; k < 3; ++k) {
    gv += kHermNorm[k] * g[k] * v[k];
    vv += kHermNorm[k] * v[k] * v[k];
  }
  out.k3 = 3.0 * gv;
  // Cov(M^2, V) = E[M^2 V] (E[V] = 0), a degree-9 polynomial expectation
  // the quadrature integrates exactly.
  const GaussHermite& q = GaussHermite::order(kPolyQuad);
  double m2v = 0.0;
  for (std::size_t i = 0; i < q.nodes.size(); ++i) {
    const double x = q.nodes[i];
    const double mm = g[0] * he1(x) + g[1] * he2(x) + g[2] * he3(x);
    const double vx = v[0] * he1(x) + v[1] * he2(x) + v[2] * he3(x);
    m2v += q.weights[i] * mm * mm * vx;
  }
  out.k4 = 6.0 * m2v + 3.0 * vv;
  return out;
}

constexpr double kInvSqrt2Pi = 0.39894228040143267794;
constexpr double kInvSqrt2 = 0.70710678118654752440;
// The fourth moment of a conditional Gaussian max needs one-sided moments
// to degree 4.
constexpr int kMaxDeg = 4;

/// One-sided Gaussian moments  I_k = int_c^inf u^k phi(u) du  (upper) and
/// their complements over (-inf, c] (lower), k = 0..kMaxDeg, via the
/// truncated-normal recurrence  I_k = c^{k-1} phi(c) + (k-1) I_{k-2}.
struct PartialMoments {
  std::array<double, kMaxDeg + 1> upper{};
  std::array<double, kMaxDeg + 1> lower{};

  explicit PartialMoments(double c) {
    const double phi = std::exp(-0.5 * c * c) * kInvSqrt2Pi;
    upper[0] = 0.5 * std::erfc(c * kInvSqrt2);
    upper[1] = phi;
    double cpow = c;  // c^{k-1}
    for (int k = 2; k <= kMaxDeg; ++k) {
      upper[static_cast<std::size_t>(k)] =
          cpow * phi +
          static_cast<double>(k - 1) * upper[static_cast<std::size_t>(k - 2)];
      cpow *= c;
    }
    // Full moments E[u^k] = (k-1)!! for even k, 0 for odd.
    std::array<double, kMaxDeg + 1> full{};
    full[0] = 1.0;
    for (int k = 2; k <= kMaxDeg; ++k) {
      full[static_cast<std::size_t>(k)] =
          static_cast<double>(k - 1) * full[static_cast<std::size_t>(k - 2)];
    }
    for (int k = 0; k <= kMaxDeg; ++k) {
      lower[static_cast<std::size_t>(k)] = full[static_cast<std::size_t>(k)] -
                                           upper[static_cast<std::size_t>(k)];
    }
  }
};

/// Raw moments E[max(A, B)^m], m = 1..4, and P(A >= B) for a correlated
/// near-Gaussian pair, in closed form: conditioning on the standardized
/// difference z = (A - B - (a - b)) / theta makes each input's conditional
/// law Gaussian with a mean AFFINE in z, so E[X^m 1{X wins}] is a degree-m
/// polynomial in z against phi over a half-line — one-sided partial
/// moments finish it exactly. No quadrature, no kink: the max's
/// non-smoothness is carried entirely by the half-line split.
struct PairMaxRaw {
  double e1 = 0.0, e2 = 0.0, e3 = 0.0, e4 = 0.0;
  double pa = 0.0;  ///< P(A >= B)
};

PairMaxRaw gaussian_pair_max(double a, double sa, double b, double sb,
                             double r) {
  PairMaxRaw out;
  const double th2 = sa * sa + sb * sb - 2.0 * r * sa * sb;
  if (th2 <= 0.0) {
    // Degenerate difference: the winner is fixed — A on ties, matching the
    // sampler's strict-greater fold.
    const bool awin = a >= b;
    const double m = awin ? a : b;
    const double v = awin ? sa * sa : sb * sb;
    out.pa = awin ? 1.0 : 0.0;
    out.e1 = m;
    out.e2 = m * m + v;
    out.e3 = m * (m * m + 3.0 * v);
    out.e4 = m * m * (m * m + 6.0 * v) + 3.0 * v * v;
    return out;
  }
  const double th = std::sqrt(th2);
  const double c = (b - a) / th;  // A wins  <=>  z >= c
  // Far-decided node: the loser's half-line carries < 1e-15 of the mass,
  // so the winner's plain Gaussian moments are exact to double precision —
  // and the erfc/exp pair this skips is the fold grid's dominant cost.
  if (c <= -8.0 || c >= 8.0) {
    const bool awin = c <= 0.0;
    const double m = awin ? a : b;
    const double v = awin ? sa * sa : sb * sb;
    out.pa = awin ? 1.0 : 0.0;
    out.e1 = m;
    out.e2 = m * m + v;
    out.e3 = m * (m * m + 3.0 * v);
    out.e4 = m * m * (m * m + 6.0 * v) + 3.0 * v * v;
    return out;
  }
  const PartialMoments pm(c);
  out.pa = pm.upper[0];
  // X | z ~ N(m0 + m1 z, v) with m1 = cov(X, D)/theta; accumulate the
  // winner's raw moments over its half-line (I = one-sided moments of z).
  const auto accum = [&out](double m0, double m1, double v,
                            const std::array<double, kMaxDeg + 1>& I) {
    const double m0_2 = m0 * m0, m1_2 = m1 * m1;
    out.e1 += m0 * I[0] + m1 * I[1];
    out.e2 += (m0_2 + v) * I[0] + 2.0 * m0 * m1 * I[1] + m1_2 * I[2];
    out.e3 += m0 * (m0_2 + 3.0 * v) * I[0] + 3.0 * m1 * (m0_2 + v) * I[1] +
              3.0 * m0 * m1_2 * I[2] + m1 * m1_2 * I[3];
    out.e4 += (m0_2 * (m0_2 + 6.0 * v) + 3.0 * v * v) * I[0] +
              4.0 * m0 * m1 * (m0_2 + 3.0 * v) * I[1] +
              6.0 * m1_2 * (m0_2 + v) * I[2] + 4.0 * m0 * m1 * m1_2 * I[3] +
              m1_2 * m1_2 * I[4];
  };
  const double ca = sa * sa - r * sa * sb;  // cov(A, D)
  const double cb = sb * sb - r * sa * sb;  // cov(B, -D) sign folded below
  accum(a, ca / th, std::max(sa * sa - ca * ca / th2, 0.0), pm.upper);
  accum(b, -cb / th, std::max(sb * sb - cb * cb / th2, 0.0), pm.lower);
  return out;
}

/// A series stage split into the arrival decomposition's terms — the
/// shared math of Arrival::add_stage and StagedArrival::add_stage.
struct StageSplit {
  std::array<double, 3> ga{};  ///< pure-global Hermite coefficients
  std::array<double, 3> u{};   ///< orthonormalized local scalars
  double dl2 = 0.0, dl3 = 0.0, dl4 = 0.0;
};

StageSplit split_stage(const Stage& s, double w_g, double w_l) {
  StageSplit sp;
  double wk = 1.0;
  for (std::size_t k = 0; k < 3; ++k) {
    wk *= w_g;
    sp.ga[k] = wk * s.herm[k];
  }
  // Everything at order k that touches the stage's local normal — the pure
  // He_k(z_i) term and the He_j(G)He_m(z_i) cross terms — enters with
  // ratios fixed by (w_g, w_l), so one orthonormalized scalar per order
  // carries its full variance V_k * a_k^2:
  //   V_1 = w_l^2
  //   V_2 = 2 w_l^4 + 4 w_g^2 w_l^2            (2 w_g^4 stays global)
  //   V_3 = 6 w_l^6 + 18 w_g^2 w_l^4 + 18 w_g^4 w_l^2
  // Together with the pure-global k! w_g^{2k} a_k^2 these sum to the exact
  // k! a_k^2, so for an unclamped cubic stage the l2 residual vanishes.
  const double wg2 = w_g * w_g;
  const double wl2 = w_l * w_l;
  const std::array<double, 3> vk{
      w_l, std::sqrt(wl2 * (2.0 * wl2 + 4.0 * wg2)),
      std::sqrt(wl2 * (6.0 * wl2 * wl2 + 18.0 * wg2 * wl2 + 18.0 * wg2 * wg2))};
  double tracked_k2 = 0.0;
  for (std::size_t k = 0; k < 3; ++k) {
    sp.u[k] = vk[k] * s.herm[k];
    tracked_k2 += sp.u[k] * sp.u[k] + kHermNorm[k] * sp.ga[k] * sp.ga[k];
  }
  // Residual: whatever part of the stage's cumulants the tracked cubic
  // decomposition does not carry (clamp residue beyond degree three, and
  // the additive local third/fourth cumulants). It carries only what
  // neither the polynomial NOR the modulation surface represents — the
  // accumulated gc/vc (gw/vw) pairs regenerate the modeled part in
  // moments(), including the REAL cross-stage co-skewness (stage A's mean
  // rides the same global that fattens stage B's spread) that per-stage
  // cumulant addition misses.
  const PolyCumulants pg = hermite_poly_cumulants(sp.ga);
  const PolyCumulants pm = modulation_cumulants(sp.ga, s.cvar);
  sp.dl2 = std::max(s.k2 - tracked_k2, 0.0);
  sp.dl3 = s.k3 - pg.k3 - pm.k3;
  sp.dl4 = s.k4 - pg.k4 - pm.k4;
  return sp;
}

}  // namespace

Stage cell_stage(const StatArc& arc, double w_g, double w_l) {
  if (arc.sigma == 0.0) {
    // Exact nominal path: matches the sampler's mu + 0*x with its clamp.
    Stage s;
    s.mean = arc.mu < 0.0 ? 0.0 : arc.mu;
    return s;
  }
  return stage_from_function(
      [&](double z) { return cell_stage_delay(arc, z); }, w_g, w_l);
}

Stage wire_stage(double elmore, double xw, double w_g, double w_l) {
  if (xw == 0.0) {
    Stage s;
    s.mean = elmore;
    return s;
  }
  return stage_from_function(
      [&](double z) { return wire_stage_delay(elmore, xw, z); }, w_g, w_l);
}

PolyCumulants hermite_poly_cumulants(const std::array<double, 3>& a) {
  PolyCumulants out;
  if (a[0] == 0.0 && a[1] == 0.0 && a[2] == 0.0) return out;
  const GaussHermite& q = GaussHermite::order(kPolyQuad);
  const std::size_t n = q.nodes.size();
  std::array<double, kPolyQuad> vals{};
  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = q.nodes[i];
    vals[i] = a[0] * he1(x) + a[1] * he2(x) + a[2] * he3(x);
    mean += q.weights[i] * vals[i];
  }
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dd = vals[i] - mean;
    const double dd2 = dd * dd;
    m2 += q.weights[i] * dd2;
    m3 += q.weights[i] * dd2 * dd;
    m4 += q.weights[i] * dd2 * dd2;
  }
  out.k2 = m2;
  out.k3 = m3;
  out.k4 = m4 - 3.0 * m2 * m2;
  return out;
}

void Arrival::ensure_locals(std::size_t n) {
  if (local.size() < n) local.resize(n, std::array<double, 5>{});
}

void Arrival::add_stage(const Stage& s, Domain domain, double w_g, double w_l,
                        std::size_t local_index) {
  const StageSplit sp = split_stage(s, w_g, w_l);
  mu += s.mean;
  std::array<double, 3>& g = domain == Domain::kCell ? gc : gw;
  for (std::size_t k = 0; k < 3; ++k) {
    g[k] += sp.ga[k];
    local[local_index][k] += sp.u[k];
  }
  l2 += sp.dl2;
  l3 += sp.dl3;
  l4 += sp.dl4;
  // Conditional variances of independent stages add, so the modulation
  // coefficients add too — in the stage's own global domain.
  std::array<double, 3>& v = domain == Domain::kCell ? vc : vw;
  for (std::size_t k = 0; k < 3; ++k) v[k] += s.cvar[k];
}

void StagedArrival::add_stage(const Stage& s, Domain domain, double w_g,
                              double w_l, std::size_t local_index) {
  const StageSplit sp = split_stage(s, w_g, w_l);
  dmu += s.mean;
  std::array<double, 3>& dg = domain == Domain::kCell ? dgc : dgw;
  std::array<double, 3>& dv = domain == Domain::kCell ? dvc : dvw;
  for (std::size_t k = 0; k < 3; ++k) {
    dg[k] += sp.ga[k];
    dv[k] += s.cvar[k];
  }
  dl2 += sp.dl2;
  dl3 += sp.dl3;
  dl4 += sp.dl4;
  for (std::size_t i = 0; i < n_patches; ++i) {
    if (patches[i].index == local_index) {
      for (std::size_t k = 0; k < 3; ++k) patches[i].du[k] += sp.u[k];
      return;
    }
  }
  Patch& pch = patches[n_patches++];
  pch.index = local_index;
  pch.du = sp.u;
}

Arrival StagedArrival::materialize() const {
  Arrival r = *base;
  r.mu += dmu;
  for (std::size_t k = 0; k < 3; ++k) {
    r.gc[k] += dgc[k];
    r.gw[k] += dgw[k];
    r.vc[k] += dvc[k];
    r.vw[k] += dvw[k];
  }
  r.l2 += dl2;
  r.l3 += dl3;
  r.l4 += dl4;
  for (std::size_t i = 0; i < n_patches; ++i) {
    r.ensure_locals(patches[i].index + 1);
    for (std::size_t k = 0; k < 3; ++k) {
      r.local[patches[i].index][k] += patches[i].du[k];
    }
  }
  return r;
}

double Arrival::variance() const {
  double v = l2;
  for (std::size_t k = 0; k < 3; ++k) {
    v += kHermNorm[k] * (gc[k] * gc[k] + gw[k] * gw[k]);
  }
  for (const auto& u : local) {
    for (double x : u) v += x * x;
  }
  return v;
}

Moments Arrival::moments() const {
  Moments m;
  m.mu = mu;
  const double k2 = variance();
  if (!(k2 > 0.0)) return m;  // sigma/gamma/kappa stay 0
  const PolyCumulants pc = hermite_poly_cumulants(gc);
  const PolyCumulants pw = hermite_poly_cumulants(gw);
  const PolyCumulants mc = modulation_cumulants(gc, vc);
  const PolyCumulants mw = modulation_cumulants(gw, vw);
  const double k3 = pc.k3 + pw.k3 + mc.k3 + mw.k3 + l3;
  const double k4 = pc.k4 + pw.k4 + mc.k4 + mw.k4 + l4;
  m.sigma = std::sqrt(k2);
  m.gamma = k3 / (k2 * m.sigma);
  m.kappa = k4 / (k2 * k2);
  return m;
}

double Arrival::covariance(const Arrival& a, const Arrival& b) {
  double cov = 0.0;
  for (std::size_t k = 0; k < 3; ++k) {
    cov += kHermNorm[k] * (a.gc[k] * b.gc[k] + a.gw[k] * b.gw[k]);
  }
  const std::size_t n = std::min(a.local.size(), b.local.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < 5; ++k) cov += a.local[i][k] * b.local[i][k];
  }
  return cov;
}

Arrival Arrival::stat_max(const Arrival& a, const Arrival& b) {
  Arrival r = a;
  stat_max_into(r, b);
  return r;
}

void Arrival::stat_max_into(Arrival& acc, const Arrival& b) {
  stat_max_into(acc, StagedArrival(b));
}

void Arrival::stat_max_into(Arrival& acc, const StagedArrival& bv) {
  const Arrival& a = acc;
  const Arrival& bb = *bv.base;
  // The candidate's effective scalars: base plus staged deltas. The local
  // vector stays unmaterialized — reads below go through bb.local plus the
  // O(1) patches.
  const double bmu = bb.mu + bv.dmu;
  std::array<double, 3> bgc, bgw, bvcm, bvwm;
  for (std::size_t k = 0; k < 3; ++k) {
    bgc[k] = bb.gc[k] + bv.dgc[k];
    bgw[k] = bb.gw[k] + bv.dgw[k];
    bvcm[k] = bb.vc[k] + bv.dvc[k];
    bvwm[k] = bb.vw[k] + bv.dvw[k];
  }
  const double b_l2 = bb.l2 + bv.dl2;
  const double b_l3 = bb.l3 + bv.dl3;
  const double b_l4 = bb.l4 + bv.dl4;
  // One fused read pass over the local vectors: per-side local variance
  // and the shared-index covariance (globals are added in closed form
  // below). Every other O(cone) quantity derives from these. Patches
  // contribute (old + du)^2 - old^2 to the candidate's variance and
  // a[i] . du to the shared covariance.
  double sla2 = 0.0, slb2 = 0.0, covl_loc = 0.0;
  const std::size_t na = a.local.size();
  const std::size_t nbb = bb.local.size();
  {
    const std::size_t ns = std::min(na, nbb);
    for (std::size_t i = 0; i < ns; ++i) {
      for (std::size_t k = 0; k < 5; ++k) {
        const double xa = a.local[i][k];
        const double xb = bb.local[i][k];
        sla2 += xa * xa;
        slb2 += xb * xb;
        covl_loc += xa * xb;
      }
    }
    for (std::size_t i = ns; i < na; ++i) {
      for (double x : a.local[i]) sla2 += x * x;
    }
    for (std::size_t i = ns; i < nbb; ++i) {
      for (double x : bb.local[i]) slb2 += x * x;
    }
    for (std::size_t ip = 0; ip < bv.n_patches; ++ip) {
      const StagedArrival::Patch& pch = bv.patches[ip];
      for (std::size_t k = 0; k < 3; ++k) {
        const double du = pch.du[k];
        const double old = pch.index < nbb ? bb.local[pch.index][k] : 0.0;
        slb2 += du * (2.0 * old + du);
        if (pch.index < na) covl_loc += a.local[pch.index][k] * du;
      }
    }
  }
  double gvar_a = 0.0, gvar_b = 0.0, gcov = 0.0;
  for (std::size_t k = 0; k < 3; ++k) {
    gvar_a += kHermNorm[k] * (a.gc[k] * a.gc[k] + a.gw[k] * a.gw[k]);
    gvar_b += kHermNorm[k] * (bgc[k] * bgc[k] + bgw[k] * bgw[k]);
    gcov += kHermNorm[k] * (a.gc[k] * bgc[k] + a.gw[k] * bgw[k]);
  }
  const double vla = a.l2 + sla2;
  const double vlb = b_l2 + slb2;
  const double var_a = gvar_a + vla;
  const double var_b = gvar_b + vlb;
  // Both deterministic: exact max, first input winning ties — the same
  // fold the MC sampler's strict-greater comparison produces.
  if (var_a == 0.0 && var_b == 0.0) {
    if (bmu > a.mu) acc = bv.materialize();
    return;
  }
  const double cov = gcov + covl_loc;
  const double theta2 = var_a + var_b - 2.0 * cov;
  // (Anti)perfectly correlated or identical inputs: one input dominates
  // everywhere, so the max IS that input.
  if (theta2 <= 1e-12 * std::max(var_a, var_b)) {
    if (bmu > a.mu) acc = bv.materialize();
    return;
  }
  const double theta = std::sqrt(theta2);
  const double alpha = (a.mu - bmu) / theta;
  // Far-dominant mean: the loser contributes below double precision.
  if (alpha >= 8.0) return;
  if (alpha <= -8.0) {
    acc = bv.materialize();
    return;
  }

  // Conditional-on-globals fold. Both arrivals carry their dependence on
  // the two global normals EXPLICITLY as Hermite polynomials, and that
  // shared, heavily skewed component is exactly what a copula over total
  // moments cannot couple (its co-skewness drifts the mean a few percent
  // of sigma PER FOLD on deep reconvergent fanin). So condition on
  // (Gc, Gw): the conditional means are the tracked polynomials (exact,
  // shared skewness and all), while the conditional remainders — sums of
  // many independent local/residual terms whose variances and correlation
  // are G-independent by construction of the orthonormalized u basis — are
  // treated as a correlated GAUSSIAN pair, whose max has closed-form
  // moments (CLT makes this tight at depth; at shallow levels the bulk of
  // the skew sits in the globals and is still exact). The outer 2D tensor
  // Gauss-Hermite integrand is then analytic in (Gc, Gw) wherever the
  // conditional difference spread is nonzero — no kink anywhere, because
  // the kink is resolved in closed form inside each node.
  const double sla = std::sqrt(std::max(vla, 0.0));
  const double slb = std::sqrt(std::max(vlb, 0.0));
  double rl = 0.0;
  if (sla > 0.0 && slb > 0.0) {
    rl = std::clamp(covl_loc / (sla * slb), -1.0, 1.0);
  }
  const GaussHermite& qx = GaussHermite::order(kMaxQuadC);
  const GaussHermite& qy = GaussHermite::order(kMaxQuadW);
  const std::size_t nx = qx.nodes.size();
  const std::size_t ny = qy.nodes.size();
  std::array<std::array<double, 3>, kMaxQuadC> hex{};
  std::array<std::array<double, 3>, kMaxQuadW> hey{};
  for (std::size_t i = 0; i < nx; ++i) {
    const double x = qx.nodes[i];
    hex[i] = {he1(x), he2(x), he3(x)};
  }
  for (std::size_t i = 0; i < ny; ++i) {
    const double y = qy.nodes[i];
    hey[i] = {he1(y), he2(y), he3(y)};
  }
  // Anchor raw moments near the result so the raw->central conversion
  // stays well conditioned.
  const double anchor = std::max(a.mu, bmu);
  double p = 0.0;  // win probability of A
  double e1 = 0.0, e2 = 0.0, e3 = 0.0, e4 = 0.0;
  std::array<double, 3> pgc{}, pgw{};
  std::array<double, 3> pvc{}, pvw{};
  for (std::size_t jx = 0; jx < nx; ++jx) {
    double pax = a.mu - anchor, pbx = bmu - anchor;
    double vax = vla, vbx = vlb;
    for (std::size_t k = 0; k < 3; ++k) {
      pax += a.gc[k] * hex[jx][k];
      pbx += bgc[k] * hex[jx][k];
      vax += a.vc[k] * hex[jx][k];
      vbx += bvcm[k] * hex[jx][k];
    }
    const double wx = qx.weights[jx];
    for (std::size_t jy = 0; jy < ny; ++jy) {
      double mac = pax, mbc = pbx;
      double va = vax, vb = vbx;
      for (std::size_t k = 0; k < 3; ++k) {
        mac += a.gw[k] * hey[jy][k];
        mbc += bgw[k] * hey[jy][k];
        va += a.vw[k] * hey[jy][k];
        vb += bvwm[k] * hey[jy][k];
      }
      // Skewed stages spread wider where their globals push them high:
      // the conditional local spreads ride the vc/vw Hermite surfaces
      // (clamped — the modulation is a truncated expansion). The local
      // correlation is kept at its G-independent value; only the scale
      // breathes.
      const double sa = std::sqrt(std::max(va, 0.0));
      const double sb = std::sqrt(std::max(vb, 0.0));
      const PairMaxRaw pr = gaussian_pair_max(mac, sa, mbc, sb, rl);
      const double w = wx * qy.weights[jy];
      p += w * pr.pa;
      e1 += w * pr.e1;
      e2 += w * pr.e2;
      e3 += w * pr.e3;
      e4 += w * pr.e4;
      const double cv = pr.e2 - pr.e1 * pr.e1;  // conditional variance
      for (std::size_t k = 0; k < 3; ++k) {
        pgc[k] += w * pr.e1 * hex[jx][k];
        pgw[k] += w * pr.e1 * hey[jy][k];
        pvc[k] += w * cv * hex[jx][k];
        pvw[k] += w * cv * hey[jy][k];
      }
    }
  }
  const double mean = anchor + e1;
  const double m2 = e2 - e1 * e1;
  const double m3 = e3 - e1 * (3.0 * e2 - 2.0 * e1 * e1);
  const double m4 = e4 - e1 * (4.0 * e3 - e1 * (6.0 * e2 - 3.0 * e1 * e1));
  const double k2m = std::max(m2, 0.0);
  const double k3m = m3;
  const double k4m = m4 - 3.0 * m2 * m2;

  // Write the result into acc. Scalars the in-place blend still needs are
  // saved first; the locals blend is element-wise, so reusing acc's
  // storage is safe.
  const double a_l3 = a.l3, a_l4 = a.l4;
  const double pb = 1.0 - p;
  acc.mu = mean;
  // Output global coefficients come from the exact Hermite projection of
  // the conditional mean surface E[max | Gc, Gw] — not a win-probability
  // blend — so the shared global component stays exact THROUGH the fold,
  // and downstream folds see its skewness again. Locals still blend
  // Clark-style by win probability.
  double tracked = 0.0;  // variance of the blended representation
  for (std::size_t k = 0; k < 3; ++k) {
    acc.gc[k] = pgc[k] / kHermNorm[k];
    acc.gw[k] = pgw[k] / kHermNorm[k];
    // The fold's conditional variance is itself a surface over the
    // globals; project its modulation the same way so the NEXT fold sees
    // how this one's spread rides the die-to-die draws.
    acc.vc[k] = pvc[k] / kHermNorm[k];
    acc.vw[k] = pvw[k] / kHermNorm[k];
    tracked += kHermNorm[k] * (acc.gc[k] * acc.gc[k] + acc.gw[k] * acc.gw[k]);
  }
  {
    std::size_t nb_eff = nbb;
    for (std::size_t ip = 0; ip < bv.n_patches; ++ip) {
      nb_eff = std::max(nb_eff, bv.patches[ip].index + 1);
    }
    if (std::max(na, nb_eff) > na) {
      acc.local.resize(std::max(na, nb_eff), std::array<double, 5>{});
    }
    const std::size_t ns = std::min(na, nbb);
    for (std::size_t i = 0; i < ns; ++i) {
      for (std::size_t k = 0; k < 5; ++k) {
        const double x = p * acc.local[i][k] + pb * bb.local[i][k];
        acc.local[i][k] = x;
        tracked += x * x;
      }
    }
    for (std::size_t i = ns; i < na; ++i) {
      for (double& x : acc.local[i]) {
        x *= p;
        tracked += x * x;
      }
    }
    for (std::size_t i = ns; i < nbb; ++i) {
      for (std::size_t k = 0; k < 5; ++k) {
        const double x = pb * bb.local[i][k];
        acc.local[i][k] = x;
        tracked += x * x;
      }
    }
    // Patch fix-ups: the bulk blend above saw the base's value at the
    // patched slot, so the staged delta enters as + pb * du (slots beyond
    // every vector start from the zero fill).
    for (std::size_t ip = 0; ip < bv.n_patches; ++ip) {
      const StagedArrival::Patch& pch = bv.patches[ip];
      for (std::size_t k = 0; k < 3; ++k) {
        const double x_old = acc.local[pch.index][k];
        const double x = x_old + pb * pch.du[k];
        acc.local[pch.index][k] = x;
        tracked += x * x - x_old * x_old;
      }
    }
  }
  acc.l2 = std::max(k2m - tracked, 0.0);
  // The integrated k3m/k4m carry the mean-surface (global) cumulants and
  // the Gaussian mixing geometry, but the conditional local parts entered
  // as Gaussians — their own residual cumulants would vanish here (even in
  // the limit where one input dominates outright). Blend them through by
  // win probability instead: exact at p in {0, 1}, interpolating between.
  const PolyCumulants pc = hermite_poly_cumulants(acc.gc);
  const PolyCumulants pw = hermite_poly_cumulants(acc.gw);
  const PolyCumulants mc = modulation_cumulants(acc.gc, acc.vc);
  const PolyCumulants mw = modulation_cumulants(acc.gw, acc.vw);
  acc.l3 = k3m - pc.k3 - pw.k3 - mc.k3 - mw.k3 + p * a_l3 + pb * b_l3;
  acc.l4 = k4m - pc.k4 - pw.k4 - mc.k4 - mw.k4 + p * a_l4 + pb * b_l4;
}

}  // namespace ssta

namespace {

std::array<double, 7> cf_sigma_quantiles(const Moments& m) {
  std::array<double, 7> q{};
  for (std::size_t i = 0; i < kSigmaLevels.size(); ++i) {
    q[i] = cornish_fisher_quantile(m, static_cast<double>(kSigmaLevels[i]));
  }
  return q;
}

}  // namespace

void AnalyticSsta::warm_quadratures() {
  GaussHermite::order(ssta::kStageQuad);
  GaussHermite::order(ssta::kPolyQuad);
  GaussHermite::order(ssta::kMaxQuadC);
  GaussHermite::order(ssta::kMaxQuadW);
}

AnalyticSsta::Result AnalyticSsta::run(const GateNetlist& netlist,
                                       const ParasiticDb& parasitics) const {
  const auto t0 = std::chrono::steady_clock::now();
  Result out;
  const std::size_t n_nets = netlist.num_nets();
  const std::size_t n_cells = netlist.num_cells();
  out.nets.assign(n_nets, {});

  const StatArcs sys = freeze_stat_arcs(netlist, parasitics, cell_model_,
                                        wire_model_, tech_, options_);
  const double rho = std::clamp(options_.die_to_die_share, 0.0, 1.0);
  const double w_g = std::sqrt(rho);
  const double w_l = std::sqrt(1.0 - rho);

  // Local-index assignment: undriven (primary-input) nets first, then one
  // index pair per reachable cell in LEVELIZED order — the cell's own draw,
  // then its output net (wire draw + fold-residual slots). Topological
  // numbering keeps every index in a fanin cone below the cone root's own
  // pair, so a local vector's length tracks the cone's topological span
  // instead of jumping to a netlist-wide offset the moment a fold residual
  // or wire draw is keyed.
  //
  // Per net, as barrier indices (barrier 0 precedes level 0, barrier b > 0
  // follows level b - 1): the barrier after the level whose tasks write its
  // arrivals (0 when none do), and the one after the last level that reads
  // them (its own barrier when nothing does).
  std::vector<std::size_t> net_pos(n_nets, 0);
  std::size_t n_locals = 0;
  for (std::size_t nn = 0; nn < n_nets; ++nn) {
    if (netlist.net(static_cast<int>(nn)).driver_cell < 0) {
      net_pos[nn] = n_locals++;
    }
  }
  std::vector<std::size_t> cell_pos(n_cells, 0);
  std::vector<std::size_t> written_at(n_nets, 0);
  std::vector<std::size_t> last_read_at(n_nets, 0);
  const std::size_t n_levels = sys.level_end.size();
  for (std::size_t l = 0, ti = 0; l < n_levels; ++l) {
    for (; ti < sys.level_end[l]; ++ti) {
      const StatTask& t = sys.tasks[ti];
      // Every reachable cell has a rise task followed by a fall task over
      // the same pins; its rise task assigns the cell's indices.
      if ((t.out_slot & 1) == 0) {
        const std::size_t outn = t.out_slot / 2;
        cell_pos[t.cell] = n_locals++;
        net_pos[outn] = n_locals++;
        written_at[outn] = l + 1;
        last_read_at[outn] = l + 1;
      }
      for (std::uint32_t k = 0; k < t.num_arcs; ++k) {
        last_read_at[sys.arcs[t.first_arc + k].src_slot / 2] = l + 1;
      }
    }
  }

  // Endpoints: reachable primary outputs, ascending.
  const std::vector<int>& po_nets = sys.po_nets;
  out.po_nets = po_nets;
  const std::size_t n_pos = po_nets.size();
  out.po_moments.resize(n_pos);
  out.po_quantiles.resize(n_pos);

  // A PO's worst edge folds at the barrier where its net is written, and a
  // net's arrivals are released at the barrier of its last reader, so the
  // live set spans the cut across one level instead of the whole graph.
  const std::size_t n_barriers = n_levels + 1;
  std::vector<std::vector<std::size_t>> po_at(n_barriers);
  std::vector<std::vector<std::size_t>> release_at(n_barriers);
  for (std::size_t p = 0; p < n_pos; ++p) {
    po_at[written_at[static_cast<std::size_t>(po_nets[p])]].push_back(p);
  }
  for (std::size_t n = 0; n < n_nets; ++n) {
    release_at[last_read_at[n]].push_back(n);
  }

  // Levelized propagation with a barrier between levels: each task writes
  // only its own output slot and reads only lower-level slots, so the
  // result is byte-identical at any thread count. The levels run on every
  // configured lane whatever the design's size: a task costs tens to
  // hundreds of microseconds, so StaConfig::min_parallel_cells (sized for
  // the nominal pass's ~2 us cells) gates only freeze_stat_arcs' nominal
  // pre-pass, and a one-task level already runs inline on the caller.
  const ExecContext& exec = options_.sta.exec;
  CancellationToken* token = exec.cancel;
  std::vector<ssta::Arrival> arr(2 * n_nets);
  // Finished PO worst edges wait here until every lower PO has been folded
  // into `circuit`, so the circuit max folds in ascending PO order.
  std::vector<ssta::Arrival> po_worst(n_pos);
  ssta::Arrival circuit;
  std::size_t live = 0;  // local entries held by arr and po_worst
  // POs [fold_begin, fold_end) wait for the circuit fold; they hold
  // fold_live local entries, counted in `live` until the fold ends.
  std::size_t fold_begin = 0;
  std::size_t fold_end = 0;
  std::size_t fold_live = 0;
  const auto fold_circuit = [&] {
    for (; fold_begin < fold_end; ++fold_begin) {
      ssta::Arrival& worst = po_worst[fold_begin];
      if (fold_begin == 0) {
        circuit = std::move(worst);
      } else {
        ssta::Arrival::stat_max_into(circuit, worst);
      }
      worst = ssta::Arrival{};
    }
  };
  const auto barrier = [&](std::size_t b) {
    const std::vector<std::size_t>& finished = po_at[b];
    const auto net_of = [&](std::size_t p) {
      return static_cast<std::size_t>(po_nets[p]);
    };
    // A PO net that no later level reads hands its rise arrival over to
    // the worst edge instead of copying it; those entries leave `arr`.
    for (const std::size_t p : finished) {
      const std::size_t po = net_of(p);
      if (last_read_at[po] == b) live -= arr[2 * po].local.size();
    }
    exec.parallel_for_claimed(finished.size(), [&](std::size_t i) {
      const std::size_t p = finished[i];
      const std::size_t po = net_of(p);
      ssta::Arrival& worst = po_worst[p];
      if (last_read_at[po] == b) {
        worst = std::exchange(arr[2 * po], ssta::Arrival{});
      } else {
        worst = arr[2 * po];
      }
      ssta::Arrival::stat_max_into(worst, arr[2 * po + 1]);
      out.po_moments[p] = worst.moments();
      out.po_quantiles[p] = cf_sigma_quantiles(out.po_moments[p]);
    });
    for (const std::size_t p : finished) live += po_worst[p].local.size();
    for (; fold_end < n_pos && written_at[net_of(fold_end)] <= b;
         ++fold_end) {
      fold_live += po_worst[fold_end].local.size();
    }
    // The circuit max is a strictly ordered fold, so it cannot be split;
    // it runs beside the next level's tasks, or here after the last level.
    if (b == n_levels) {
      fold_circuit();
      live -= std::exchange(fold_live, 0);
    }
    out.peak_live_locals = std::max(out.peak_live_locals, live);
    for (const std::size_t n : release_at[b]) {
      const std::size_t slot = 2 * n;
      live -= arr[slot].local.size() + arr[slot + 1].local.size();
      arr[slot] = ssta::Arrival{};
      arr[slot + 1] = ssta::Arrival{};
    }
  };

  barrier(0);
  std::size_t task_begin = 0;
  for (std::size_t li = 0; li < n_levels; ++li) {
    fault_fire("ssta.level", li, token);
    exec.check_cancel();
    const std::size_t task_end = sys.level_end[li];
    // Item 0 folds the POs the last barrier released into the circuit max
    // while the other lanes claim this level's tasks.
    const std::size_t folds = fold_begin < fold_end ? 1 : 0;
    const std::size_t items = folds + task_end - task_begin;
    exec.parallel_for_claimed(items, [&](std::size_t i) {
      if (i < folds) {
        fold_circuit();
        return;
      }
      const StatTask& t = sys.tasks[task_begin + i - folds];
      const StatArc* arcs = &sys.arcs[t.first_arc];
      const std::size_t cell_local = cell_pos[t.cell];
      const std::size_t rekey = net_pos[t.out_slot / 2];
      // Final local span of this task's output: the re-key slot sits past
      // every index the arcs can touch, so reserving it once up front means
      // no fold ever reallocates the accumulator.
      std::size_t cap = rekey + 1;
      for (std::uint32_t k = 0; k < t.num_arcs; ++k) {
        cap = std::max(cap, arr[arcs[k].src_slot].local.size());
      }
      ssta::Arrival best;
      for (std::uint32_t k = 0; k < t.num_arcs; ++k) {
        const StatArc& a = arcs[k];
        // Each arc belongs to exactly one task, so its stage models are
        // integrated once, here.
        const ssta::Stage cell = ssta::cell_stage(a, w_g, w_l);
        const bool has_wire = a.wire_z >= 0;
        const std::size_t wire_local =
            has_wire ? net_pos[static_cast<std::size_t>(a.wire_z)] : 0;
        const ssta::Stage wire =
            has_wire ? ssta::wire_stage(a.elmore, a.xw, w_g, w_l)
                     : ssta::Stage{};
        if (k == 0) {
          // The accumulator owns its storage: one copy per task, landing
          // directly in the pre-reserved buffer. Span only the indices
          // this arc touches — local vectors stay as short as the fanin
          // cone needs, and every fold pass scales with the cone instead
          // of the whole netlist.
          best.local.reserve(cap);
          best = arr[a.src_slot];
          best.ensure_locals(std::max(cell_local, wire_local) + 1);
          if (has_wire) {
            best.add_stage(wire, ssta::Domain::kWire, w_g, w_l, wire_local);
          }
          best.add_stage(cell, ssta::Domain::kCell, w_g, w_l, cell_local);
        } else {
          // Later arcs fold as unmaterialized views — the fanin arrival's
          // local vector is read in place, never copied.
          ssta::StagedArrival cand(arr[a.src_slot]);
          if (has_wire) {
            cand.add_stage(wire, ssta::Domain::kWire, w_g, w_l, wire_local);
          }
          cand.add_stage(cell, ssta::Domain::kCell, w_g, w_l, cell_local);
          ssta::Arrival::stat_max_into(best, cand);
        }
      }
      // Re-key the accumulated residual variance onto this (net, edge)'s
      // own local slot: branches reconverging downstream after sharing
      // this fold then see it as common variance instead of independent
      // noise, which would otherwise inflate their max.
      best.ensure_locals(rekey + 1);
      best.local[rekey][3 + (t.out_slot & 1)] = std::sqrt(best.l2);
      best.l2 = 0.0;
      out.nets[t.out_slot / 2][t.out_slot & 1] = {best.moments(), true};
      arr[t.out_slot] = std::move(best);
    });
    for (std::size_t i = task_begin; i < task_end; ++i) {
      live += arr[sys.tasks[i].out_slot].local.size();
    }
    // The folded POs were held while this level's outputs were written.
    out.peak_live_locals = std::max(out.peak_live_locals, live);
    live -= std::exchange(fold_live, 0);
    barrier(li + 1);
    task_begin = task_end;
  }
  out.levels = n_levels;

  // Undriven (primary-input) nets keep the zero default arrival.
  const Moments pi_moments = ssta::Arrival{}.moments();
  for (std::size_t n = 0; n < n_nets; ++n) {
    if (!sys.reachable[n]) continue;
    for (auto& es : out.nets[n]) {
      if (!es.reachable) es = {pi_moments, true};
    }
  }

  double worst_mean = -1.0;
  for (std::size_t p = 0; p < n_pos; ++p) {
    if (out.po_moments[p].mu > worst_mean) {
      worst_mean = out.po_moments[p].mu;
      out.worst_po = po_nets[p];
      out.worst_po_moments = out.po_moments[p];
      out.worst_po_quantiles = out.po_quantiles[p];
    }
  }
  if (n_pos > 0) {
    out.circuit_moments = circuit.moments();
    out.circuit_quantiles = cf_sigma_quantiles(out.circuit_moments);
  }

  out.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace nsdc
