#pragma once
// Exact hex-float goldens of a statistical-engine result (AnalyticSsta or
// NetlistMonteCarlo): one text line per net-edge and endpoint field, every
// double printed with %a, so a golden fails on any bit that moves. Files
// are rewritten instead of compared when NSDC_REGEN_GOLDEN is set.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "stats/moments.hpp"

namespace nsdc::testfix {

/// Lines "net <name> <edge> <tag> mu sigma gamma kappa" for every net-edge,
/// "po"/"po_q" for every PO, then the circuit and the worst PO. `edge_tag`
/// renders the per-edge field that tells an unreached edge apart (the
/// SSTA's reachable flag, the MC's sample count).
template <class Result, class EdgeTag>
std::vector<std::string> hex_lines(const GateNetlist& nl, const Result& r,
                                   EdgeTag edge_tag) {
  std::vector<std::string> lines;
  char buf[256];
  auto moments = [&](const std::string& tag, const Moments& m) {
    std::snprintf(buf, sizeof(buf), "%s %a %a %a %a", tag.c_str(), m.mu,
                  m.sigma, m.gamma, m.kappa);
    lines.emplace_back(buf);
  };
  auto quantiles = [&](const std::string& tag,
                       const std::array<double, 7>& q) {
    std::string line = tag;
    for (const double v : q) {
      std::snprintf(buf, sizeof(buf), " %a", v);
      line += buf;
    }
    lines.push_back(line);
  };
  for (std::size_t n = 0; n < r.nets.size(); ++n) {
    for (std::size_t e = 0; e < 2; ++e) {
      const auto& es = r.nets[n][e];
      moments("net " + nl.net(static_cast<int>(n)).name + " " +
                  std::to_string(e) + " " + edge_tag(es),
              es.moments);
    }
  }
  for (std::size_t p = 0; p < r.po_nets.size(); ++p) {
    const std::string& name = nl.net(r.po_nets[p]).name;
    moments("po " + name, r.po_moments[p]);
    quantiles("po_q " + name, r.po_quantiles[p]);
  }
  moments("circuit", r.circuit_moments);
  quantiles("circuit_q", r.circuit_quantiles);
  lines.push_back("worst_po " + nl.net(r.worst_po).name);
  moments("worst_po", r.worst_po_moments);
  quantiles("worst_po_q", r.worst_po_quantiles);
  return lines;
}

/// With NSDC_REGEN_GOLDEN set, writes `lines` to `path` and returns true
/// (the caller skips); otherwise returns false.
inline bool regen_golden_lines(const std::string& path,
                               const std::vector<std::string>& lines) {
  if (std::getenv("NSDC_REGEN_GOLDEN") == nullptr) return false;
  std::ofstream out(path);
  EXPECT_TRUE(out.good()) << "cannot write golden file: " << path;
  for (const std::string& line : lines) out << line << "\n";
  return true;
}

/// The lines of the golden file at `path`; a missing file fails the test
/// and reads as no lines.
inline std::vector<std::string> read_golden_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

}  // namespace nsdc::testfix
