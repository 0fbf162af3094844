#include "core/pathdelay.hpp"

#include <algorithm>

namespace nsdc {

std::vector<PathDelayCalculator::StageQuantiles> PathDelayCalculator::breakdown(
    const PathDescription& path) const {
  std::vector<StageQuantiles> out;
  out.reserve(path.stages.size());
  for (const auto& stage : path.stages) {
    StageQuantiles sq;
    sq.cell = cell_model_.quantiles(stage.cell->name(), stage.pin,
                                    stage.in_rising, stage.input_slew,
                                    stage.output_load);
    if (stage.has_wire()) {
      sq.elmore = stage.wire.elmore(stage.sink_node);
      const std::string load =
          stage.load_cell.empty() ? "INVx4" : stage.load_cell;
      sq.xw = wire_model_.xw(stage.cell->name(), load);
      sq.wire = wire_model_.quantiles(sq.elmore, sq.xw);
      // Guard: a huge X_w must not drive the -3s wire delay negative.
      for (double& q : sq.wire) q = std::max(q, kWireDelayFloor * sq.elmore);
    }
    out.push_back(sq);
  }
  return out;
}

std::array<double, 7> PathDelayCalculator::path_quantiles(
    const PathDescription& path) const {
  std::array<double, 7> total{};
  for (const auto& sq : breakdown(path)) {
    for (std::size_t i = 0; i < 7; ++i) total[i] += sq.cell[i] + sq.wire[i];
  }
  return total;
}

double PathDelayCalculator::path_quantile_at(const PathDescription& path,
                                             double n_sigma) const {
  double total = 0.0;
  for (const auto& stage : path.stages) {
    total += cell_model_.quantile_at(stage.cell->name(), stage.pin,
                                     stage.in_rising, stage.input_slew,
                                     stage.output_load, n_sigma);
    if (stage.has_wire()) {
      const double elmore = stage.wire.elmore(stage.sink_node);
      const std::string load =
          stage.load_cell.empty() ? "INVx4" : stage.load_cell;
      total += wire_model_.quantile_at(
          elmore, wire_model_.xw(stage.cell->name(), load), n_sigma);
    }
  }
  return total;
}

}  // namespace nsdc
