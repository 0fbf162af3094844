// Cross-engine consistency gate ("analysis.verify-engines"). Runs the
// nominal StaEngine, the analytic four-moment SSTA, and the netlist
// Monte-Carlo on the same frozen inputs and asserts that every produced
// arrival — nominal per-net per-edge, statistical MEANS per-net per-edge,
// worst-edge PO summaries, and the circuit maximum — lies inside the
// certified static intervals. A mean lies inside a z_max certificate with
// enormous margin (per-stage interval width >= 2*z_max*sigma versus a
// sub-sigma Clark inflation of the mean), so a violation signals a real
// modeling inconsistency between an engine and the interval algebra — or
// an injected fault, which is how the gate is proven live.
//
// Any engine failure (std::exception) becomes an error diagnostic so the
// report stays renderable; typed nsdc::Errors (cancellation, injected
// throws, I/O) re-throw so tool exit codes keep their contract.

#include <algorithm>
#include <cmath>
#include <string>

#include "analysis/analysis.hpp"
#include "core/mcconfig.hpp"
#include "sta/netmc.hpp"
#include "sta/ssta_analytic.hpp"
#include "util/errors.hpp"
#include "util/units.hpp"

namespace nsdc {

using analysis::Interval;

namespace {

std::string fmt_ps(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", to_ps(seconds));
  return buf;
}

/// One containment check. Updates the slack book-keeping and, on a miss,
/// appends an error diagnostic naming the engine, the quantity, and the
/// overshoot.
class Checker {
 public:
  Checker(VerifyFacts& facts, double tolerance)
      : facts_(facts), tolerance_(tolerance) {}

  void check(const std::string& engine, const std::string& quantity,
             const std::string& object, double value, const Interval& iv) {
    if (!std::isfinite(value)) {
      ++facts_.checks;
      ++facts_.violations;
      facts_.diagnostics.push_back(
          {Severity::kError, "analysis.verify-engines", object,
           engine + " " + quantity + " is non-finite", "", 0});
      return;
    }
    const double slack_lo = value - iv.lo;
    const double slack_hi = iv.hi - value;
    if (facts_.checks == 0) {
      facts_.min_slack_lo = slack_lo;
      facts_.min_slack_hi = slack_hi;
    } else {
      facts_.min_slack_lo = std::min(facts_.min_slack_lo, slack_lo);
      facts_.min_slack_hi = std::min(facts_.min_slack_hi, slack_hi);
    }
    ++facts_.checks;
    if (slack_lo < -tolerance_ || slack_hi < -tolerance_) {
      ++facts_.violations;
      facts_.diagnostics.push_back(
          {Severity::kError, "analysis.verify-engines", object,
           engine + " " + quantity + " " + fmt_ps(value) +
               " ps escapes the certified interval [" + fmt_ps(iv.lo) +
               ", " + fmt_ps(iv.hi) + "] ps",
           "an engine and the interval algebra disagree (or a fault was "
           "injected)",
           0});
    }
  }

 private:
  VerifyFacts& facts_;
  double tolerance_;
};

}  // namespace

VerifyFacts verify_engines(const AnalysisInput& input,
                           const AnalysisOptions& options,
                           const IntervalResult& intervals) {
  VerifyFacts facts;
  if (input.netlist == nullptr || input.parasitics == nullptr ||
      input.cell_model == nullptr || input.wire_model == nullptr ||
      input.tech == nullptr) {
    return facts;  // ran stays false; the pass reports the skip
  }
  const GateNetlist& nl = *input.netlist;
  Checker checker(facts, options.verify_tolerance);
  const auto net_obj = [&](int n) { return "net:" + nl.net(n).name; };
  const char* const edge_name[2] = {"rise", "fall"};

  StaConfig sta_cfg;
  sta_cfg.exec = options.exec;

  try {
    // Nominal mean engine: per-net per-edge arrivals are exact table reads,
    // so they must sit inside the mean-table side of the per-arc hulls.
    const StaEngine sta(*input.cell_model, *input.tech, sta_cfg);
    const StaEngine::Result nominal = sta.run(nl, *input.parasitics);
    for (std::size_t n = 0; n < nominal.nets.size(); ++n) {
      if (!nominal.nets[n].reachable) continue;
      const NetBounds& nb = intervals.nets[n];
      for (std::size_t e = 0; e < 2; ++e) {
        checker.check("StaEngine",
                      std::string("nominal ") + edge_name[e] + " arrival",
                      net_obj(static_cast<int>(n)),
                      nominal.nets[n].arrival[e], nb.arrival[e]);
      }
    }
    checker.check("StaEngine", "max PO arrival", "design:" + nl.name(),
                  nominal.max_arrival, intervals.max_arrival);
  } catch (const Error&) {
    throw;
  } catch (const std::exception& e) {
    facts.diagnostics.push_back(
        {Severity::kError, "analysis.verify-engines", "design:" + nl.name(),
         std::string("StaEngine failed: ") + e.what(), "", 0});
  }

  // Both statistical engines model the one system these options define.
  StatModelOptions model_opts;
  model_opts.die_to_die_share = options.die_to_die_share;
  model_opts.variation_scale = options.variation_scale;
  model_opts.moment_shaping = options.moment_shaping;
  model_opts.sta = sta_cfg;

  try {
    const AnalyticSsta ssta(*input.cell_model, *input.wire_model,
                            *input.tech, model_opts);
    const AnalyticSsta::Result res = ssta.run(nl, *input.parasitics);
    for (std::size_t n = 0; n < res.nets.size(); ++n) {
      const NetBounds& nb = intervals.nets[n];
      for (std::size_t e = 0; e < 2; ++e) {
        if (!res.nets[n][e].reachable) continue;
        checker.check("AnalyticSsta",
                      std::string("mean ") + edge_name[e] + " arrival",
                      net_obj(static_cast<int>(n)),
                      res.nets[n][e].moments.mu, nb.arrival[e]);
      }
    }
    for (std::size_t i = 0; i < res.po_nets.size(); ++i) {
      // Worst-edge PO mean versus the interval max of the rise/fall
      // bounds (sound for the statistical max: it is bracketed by the
      // scalar max's range over the box).
      const NetBounds& nb =
          intervals.nets[static_cast<std::size_t>(res.po_nets[i])];
      checker.check("AnalyticSsta", "worst-edge PO mean",
                    net_obj(res.po_nets[i]), res.po_moments[i].mu,
                    analysis::iv_max(nb.arrival[0], nb.arrival[1]));
    }
    checker.check("AnalyticSsta", "circuit mean", "design:" + nl.name(),
                  res.circuit_moments.mu, intervals.max_arrival);
  } catch (const Error&) {
    throw;
  } catch (const std::exception& e) {
    facts.diagnostics.push_back(
        {Severity::kError, "analysis.verify-engines", "design:" + nl.name(),
         std::string("AnalyticSsta failed: ") + e.what(), "", 0});
  }

  try {
    const NetlistMonteCarlo mc(*input.cell_model, *input.wire_model,
                               *input.tech, NetMcOptions{model_opts});
    McConfig mc_cfg;
    mc_cfg.samples = options.verify_samples;
    mc_cfg.seed = options.verify_seed;
    mc_cfg.exec = options.exec;
    const NetlistMonteCarlo::Result res = mc.run(nl, *input.parasitics, mc_cfg);
    for (std::size_t n = 0; n < res.nets.size(); ++n) {
      const NetBounds& nb = intervals.nets[n];
      for (std::size_t e = 0; e < 2; ++e) {
        if (res.nets[n][e].count == 0) continue;
        checker.check("NetlistMonteCarlo",
                      std::string("mean ") + edge_name[e] + " arrival",
                      net_obj(static_cast<int>(n)),
                      res.nets[n][e].moments.mu, nb.arrival[e]);
      }
    }
    for (std::size_t i = 0; i < res.po_nets.size(); ++i) {
      const NetBounds& nb =
          intervals.nets[static_cast<std::size_t>(res.po_nets[i])];
      checker.check("NetlistMonteCarlo", "worst-edge PO mean",
                    net_obj(res.po_nets[i]), res.po_moments[i].mu,
                    analysis::iv_max(nb.arrival[0], nb.arrival[1]));
    }
    checker.check("NetlistMonteCarlo", "circuit mean", "design:" + nl.name(),
                  res.circuit_moments.mu, intervals.max_arrival);
  } catch (const Error&) {
    throw;
  } catch (const std::exception& e) {
    facts.diagnostics.push_back(
        {Severity::kError, "analysis.verify-engines", "design:" + nl.name(),
         std::string("NetlistMonteCarlo failed: ") + e.what(), "", 0});
  }

  facts.ran = true;
  facts.diagnostics.push_back(
      {Severity::kInfo, "analysis.verify-engines", "design:" + nl.name(),
       std::to_string(facts.checks) + " containment check(s), " +
           std::to_string(facts.violations) + " violation(s); min slack " +
           fmt_ps(facts.min_slack_lo) + " / " + fmt_ps(facts.min_slack_hi) +
           " ps to the lower / upper bounds",
       "", 0});
  return facts;
}

}  // namespace nsdc
