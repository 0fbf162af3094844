#pragma once
// Extracted timing path representation shared by the N-sigma calculator
// (core/pathdelay) and the golden transistor-level path Monte-Carlo
// (baselines/mc_reference): one stage per cell, each with its switching
// pin, direction, propagated mean input slew, output loading and the
// annotated fanout RC tree.

#include <string>
#include <vector>

#include "parasitics/rctree.hpp"
#include "pdk/cells.hpp"

namespace nsdc {

struct PathStage {
  const CellType* cell = nullptr;
  int pin = 0;            ///< switching input pin
  bool in_rising = true;  ///< direction at that pin
  double input_slew = 10e-12;  ///< mean slew at the pin (s)
  double output_load = 0.0;    ///< total cap at the cell output (F)
  /// Fanout RC tree, annotated with sink pin caps. A single-node tree
  /// means a wireless (direct) connection. A copy of the annotated net's
  /// tree: it shares that tree's topology and owns only its node caps, so
  /// a stage costs one cap vector (DESIGN §12).
  RcTree wire;
  int sink_node = -1;  ///< tree node where the path continues (-1 => none)
  /// Next stage's cell name; empty on the last stage (an FO4 INVx4
  /// terminates the path by convention).
  std::string load_cell;

  bool has_wire() const { return wire.num_nodes() > 1 && sink_node > 0; }
};

struct PathDescription {
  std::string design;
  std::string note;
  std::vector<PathStage> stages;

  std::size_t num_stages() const { return stages.size(); }
};

}  // namespace nsdc
