#pragma once
// NSigmaTimer: the end-to-end flow of paper Fig. 1 — characterized library
// in, netlist + parasitics in, statistical critical-path quantiles out.

#include <array>
#include <string>

#include "core/nsigma_cell.hpp"
#include "core/nsigma_wire.hpp"
#include "core/pathdelay.hpp"
#include "netlist/netlist.hpp"
#include "parasitics/spef.hpp"
#include "sta/engine.hpp"

namespace nsdc {

class NSigmaTimer {
 public:
  /// Fits both statistical models from a characterized library.
  NSigmaTimer(const CharLib& charlib, const CellLibrary& cells,
              const TechParams& tech, bool scaled_cross = true)
      : cell_model_(NSigmaCellModel::fit(charlib, scaled_cross)),
        wire_model_(NSigmaWireModel::fit(charlib, cells)),
        tech_(tech) {}

  const NSigmaCellModel& cell_model() const { return cell_model_; }
  const NSigmaWireModel& wire_model() const { return wire_model_; }
  const TechParams& tech() const { return tech_; }

  struct Analysis {
    PathDescription critical_path;
    std::array<double, 7> quantiles{};  ///< path delay, -3s..+3s
    double mean_arrival = 0.0;          ///< mean-STA worst arrival
    double runtime_seconds = 0.0;       ///< model evaluation wall clock
  };

  /// Runs mean STA (a default StaConfig: the process-global pool), extracts
  /// the critical path, and evaluates the N-sigma path quantiles (Eq. 10).
  Analysis analyze(const GateNetlist& netlist,
                   const ParasiticDb& parasitics) const;

  struct PathReport {
    PathDescription path;
    std::array<double, 7> quantiles{};
  };

  /// The worst `max_paths` endpoint paths with their N-sigma quantiles,
  /// sorted by decreasing mean arrival (entry 0 == the critical path).
  std::vector<PathReport> analyze_paths(const GateNetlist& netlist,
                                        const ParasiticDb& parasitics,
                                        std::size_t max_paths) const;

 private:
  NSigmaCellModel cell_model_;
  NSigmaWireModel wire_model_;
  TechParams tech_;
};

}  // namespace nsdc
