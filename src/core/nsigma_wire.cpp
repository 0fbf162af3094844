#include "core/nsigma_wire.hpp"

#include <algorithm>
#include <stdexcept>

#include "stats/regression.hpp"

namespace nsdc {
namespace {

/// "NAND2x4" -> "NAND2" (function family).
std::string family_of(const std::string& cell) {
  const auto pos = cell.rfind('x');
  return pos == std::string::npos ? cell : cell.substr(0, pos);
}

}  // namespace

NSigmaWireModel NSigmaWireModel::fit(const CharLib& lib,
                                     const CellLibrary& cells) {
  NSigmaWireModel model;

  // Cell variabilities V_c from the characterized reference condition.
  for (const auto& cell : cells.cells()) {
    try {
      model.variability_[cell.name()] = lib.cell_variability(cell.name());
    } catch (const std::out_of_range&) {
      // Cell not characterized; variability resolved on demand via family.
    }
  }
  const auto fo4 = model.variability_.find("INVx4");
  if (fo4 == model.variability_.end()) {
    throw std::runtime_error("NSigmaWireModel::fit: INVx4 not characterized");
  }
  model.fo4_variability_ = fo4->second;

  const auto& obs = lib.wire_observations();
  if (obs.empty()) {
    throw std::runtime_error("NSigmaWireModel::fit: no wire observations");
  }

  // Column layout: intercept, one X_FI per driver FAMILY, one X_FO per
  // load FAMILY (see header: the per-cell form is not identifiable).
  std::vector<std::string> drivers, loads;
  auto col_of = [](std::vector<std::string>& list, const std::string& name) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i] == name) return i;
    }
    list.push_back(name);
    return list.size() - 1;
  };
  for (const auto& o : obs) {
    col_of(drivers, family_of(o.driver_cell));
    col_of(loads, family_of(o.load_cell));
  }
  const std::size_t n_cols = 1 + drivers.size() + loads.size();

  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  rows.reserve(obs.size());
  for (const auto& o : obs) {
    std::vector<double> row(n_cols, 0.0);
    row[0] = 1.0;
    row[1 + col_of(drivers, family_of(o.driver_cell))] =
        model.variability_.at(o.driver_cell);
    row[1 + drivers.size() + col_of(loads, family_of(o.load_cell))] =
        model.variability_.at(o.load_cell);
    rows.push_back(std::move(row));
    y.push_back(o.variability());
  }
  const FitResult fit = least_squares(rows, y, 1e-10);
  model.x_intrinsic_ = fit.beta[0];
  for (std::size_t i = 0; i < drivers.size(); ++i) {
    model.x_drive_[drivers[i]] = fit.beta[1 + i];
  }
  for (std::size_t i = 0; i < loads.size(); ++i) {
    model.x_load_[loads[i]] = fit.beta[1 + drivers.size() + i];
  }

  // Global fallbacks = mean fitted coefficients.
  double sum_d = 0.0, sum_l = 0.0;
  for (const auto& [k, v] : model.x_drive_) {
    (void)k;
    sum_d += v;
  }
  for (const auto& [k, v] : model.x_load_) {
    (void)k;
    sum_l += v;
  }
  model.fallback_x_drive_ = sum_d / static_cast<double>(model.x_drive_.size());
  model.fallback_x_load_ = sum_l / static_cast<double>(model.x_load_.size());

  // Fit report (Fig. 9): measured vs predicted X_w per observation.
  for (const auto& o : obs) {
    ObservationReport r;
    r.driver_cell = o.driver_cell;
    r.load_cell = o.load_cell;
    r.tree_id = o.tree_id;
    r.measured_xw = o.variability();
    r.predicted_xw = model.xw(o.driver_cell, o.load_cell);
    model.report_.push_back(std::move(r));
  }
  return model;
}

double NSigmaWireModel::family_estimate(
    const std::map<std::string, double>& table, const std::string& cell,
    double fallback) const {
  const auto it = table.find(family_of(cell));
  return it != table.end() ? it->second : fallback;
}

double NSigmaWireModel::x_drive(const std::string& cell) const {
  return family_estimate(x_drive_, cell, fallback_x_drive_);
}

double NSigmaWireModel::x_load(const std::string& cell) const {
  return family_estimate(x_load_, cell, fallback_x_load_);
}

double NSigmaWireModel::cell_variability(const std::string& cell) const {
  const auto it = variability_.find(cell);
  if (it != variability_.end()) return it->second;
  // Eq. 5 fallback: scale the FO4 variability by stack and strength.
  return fo4_variability_;
}

double NSigmaWireModel::xw(const std::string& driver_cell,
                           const std::string& load_cell) const {
  const double x = x_intrinsic_ +
                   x_drive(driver_cell) * cell_variability(driver_cell) +
                   x_load(load_cell) * cell_variability(load_cell);
  return std::max(x, 0.01);
}

double NSigmaWireModel::quantile(double elmore, double xw_value,
                                 int level_index) const {
  if (level_index < 0 || level_index > 6) {
    throw std::out_of_range("NSigmaWireModel::quantile: bad level");
  }
  const int n = level_index - 3;
  return (1.0 + n * xw_value) * elmore;
}

double NSigmaWireModel::quantile_at(double elmore, double xw_value,
                                    double n_sigma) const {
  return wire_stage_delay(elmore, xw_value, std::clamp(n_sigma, -6.0, 6.0));
}

std::array<double, 7> NSigmaWireModel::quantiles(double elmore,
                                                 double xw_value) const {
  std::array<double, 7> out{};
  for (int i = 0; i < 7; ++i) {
    out[static_cast<std::size_t>(i)] = quantile(elmore, xw_value, i);
  }
  return out;
}

}  // namespace nsdc
