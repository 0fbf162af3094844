#pragma once
// Benchmark set-up: the SPICE-characterised 24-cell library loaded from the
// checked-in charlib cache, the seeded workload designs, and the guard that
// refuses a design the STA engines cannot annotate or time.

#include <cstdint>
#include <memory>
#include <string>

#include "core/nsigma_cell.hpp"
#include "core/nsigma_wire.hpp"
#include "liberty/charlib.hpp"
#include "netlist/netlist.hpp"
#include "parasitics/spef.hpp"
#include "pdk/cells.hpp"
#include "pdk/tech.hpp"

namespace perfbench {

/// Characterised library and the fitted cell/wire models. Designs hold
/// CellType pointers into `cells`, so a Library is never moved once built.
struct Library {
  nsdc::TechParams tech;
  nsdc::CellLibrary cells;
  nsdc::CharLib charlib;
  nsdc::NSigmaCellModel cell_model;
  nsdc::NSigmaWireModel wire_model;
};

/// Derives an independent seed for one input of a workload from --seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ULL + salt;
}

/// Loads `nsdc_charlib_cache.txt` from the working directory (the root of
/// the checkout) and fits both models. Throws when the cache is missing.
std::unique_ptr<Library> load_library();

struct Design {
  std::string generator;  ///< how it was made, named in guard failures
  nsdc::GateNetlist netlist{"empty"};
  nsdc::ParasiticDb parasitics;
  /// Worst paths the workload's timing report asks for. A path on the
  /// deep design has ~20k stages, each holding a copy of its RC tree.
  std::size_t report_paths = 64;
};

/// Generates, finalizes (buffering + sizing) and annotates the design of
/// `workload` for `seed`, then runs guard_design on it.
std::unique_ptr<Design> build_design(const std::string& workload,
                                     std::uint64_t seed, const Library& lib);

/// Throws std::runtime_error naming the generator when the design has
/// duplicate net or instance names, a sink pin missing from its RC tree,
/// or a cell type the fitted cell model does not cover (which would send
/// an arc down the throwing string-lookup path).
void guard_design(const Design& design, const Library& lib);

}  // namespace perfbench
