#pragma once
// Golden reference: transistor-level stage-cascaded path Monte Carlo — the
// stand-in for the paper's "SPICE MC simulation" columns.
//
// Each sample draws one die-to-die corner plus per-transistor / per-wire
// local variation, then simulates the path stage by stage, handing the
// actual output waveform of stage i to stage i+1 (the standard fast-SPICE
// decomposition for unidirectional static CMOS). Per-stage cell and wire
// delays are recorded so Fig. 11's per-wire comparison falls out directly.

#include <array>
#include <cstdint>
#include <vector>

#include "core/mcconfig.hpp"
#include "core/path.hpp"
#include "pdk/tech.hpp"
#include "stats/moments.hpp"
#include "util/exec.hpp"

namespace nsdc {

struct PathMcResult {
  std::vector<double> samples;  ///< total path delays (s)
  Moments moments;
  std::array<double, 7> quantiles{};  ///< empirical sigma levels -3..+3
  /// Per-stage empirical quantiles over the MC population.
  std::vector<std::array<double, 7>> stage_cell_quantiles;
  std::vector<std::array<double, 7>> stage_wire_quantiles;
  std::vector<double> stage_wire_elmore;  ///< nominal Elmore per stage
  int failures = 0;
  /// Samples whose total delay came out non-finite (numeric blow-up or an
  /// injected "pathmc.sample" NaN fault): counted here and excluded from
  /// moments/quantiles so the reported statistics stay finite.
  std::uint64_t quarantined = 0;
  double runtime_seconds = 0.0;
};

class PathMonteCarlo {
 public:
  explicit PathMonteCarlo(const TechParams& tech) : tech_(tech) {}

  PathMcResult run(const PathDescription& path,
                   const McConfig& config) const;

 private:
  TechParams tech_;
};

}  // namespace nsdc
