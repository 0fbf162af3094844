#include "sta/timer.hpp"

#include <chrono>

#include "core/pathdelay.hpp"

namespace nsdc {

NSigmaTimer::Analysis NSigmaTimer::analyze(const GateNetlist& netlist,
                                           const ParasiticDb& parasitics) const {
  const auto t0 = std::chrono::steady_clock::now();
  StaEngine engine(cell_model_, tech_);
  const StaEngine::Result sta = engine.run(netlist, parasitics);

  Analysis out;
  out.mean_arrival = sta.max_arrival;
  out.critical_path = engine.extract_critical_path(netlist, sta);

  PathDelayCalculator calc(cell_model_, wire_model_);
  out.quantiles = calc.path_quantiles(out.critical_path);
  out.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

std::vector<NSigmaTimer::PathReport> NSigmaTimer::analyze_paths(
    const GateNetlist& netlist, const ParasiticDb& parasitics,
    std::size_t max_paths) const {
  StaEngine engine(cell_model_, tech_);
  const StaEngine::Result sta = engine.run(netlist, parasitics);
  PathDelayCalculator calc(cell_model_, wire_model_);
  std::vector<PathReport> out;
  for (auto& path : engine.extract_worst_paths(netlist, sta, max_paths)) {
    PathReport r;
    r.quantiles = calc.path_quantiles(path);
    r.path = std::move(path);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace nsdc
