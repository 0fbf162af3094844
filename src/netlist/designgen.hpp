#pragma once
// Benchmark-design generation.
//
// The paper evaluates on Design-Compiler-mapped ISCAS85 netlists and the
// functional units of the PULPino RISC-V core. Neither mapped form is
// redistributable, so this module provides (a) seeded random mapped
// netlists matched to the per-benchmark cell/net counts reported in the
// paper's Table III, and (b) real structural generators for the arithmetic
// units (ripple-carry adder/subtractor, array multiplier, non-restoring
// array divider) built from the library's NAND2/INV cells the way
// technology mapping would produce them. See DESIGN.md for the
// substitution argument.

#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace nsdc {

struct RandomNetlistSpec {
  std::string name = "random";
  int target_cells = 500;
  int num_primary_inputs = 32;
  int target_depth = 25;
  std::uint64_t seed = 1;
};

/// Seeded random mapped DAG with locality-weighted fanin selection and a
/// realistic function/strength mix.
GateNetlist generate_random_mapped(const RandomNetlistSpec& spec,
                                   const CellLibrary& lib);

/// Statistics of the designs in the paper's Table III.
struct BenchmarkStats {
  std::string name;
  int nets = 0;
  int cells = 0;
  int depth = 0;
};

/// All twelve Table-III designs (ISCAS85 + PULPino units) with the paper's
/// published cell/net counts.
const std::vector<BenchmarkStats>& table3_benchmarks();

/// An ISCAS85-like synthetic netlist matched to the published statistics
/// of `name` (e.g. "C432"). Throws std::out_of_range for unknown names.
GateNetlist generate_iscas_like(const std::string& name,
                                const CellLibrary& lib,
                                std::uint64_t seed = 7);

/// Structural arithmetic units ("functional units of PULPino").
GateNetlist generate_ripple_adder(int bits, const CellLibrary& lib,
                                  const std::string& name = "ADD");
GateNetlist generate_subtractor(int bits, const CellLibrary& lib,
                                const std::string& name = "SUB");
GateNetlist generate_array_multiplier(int bits, const CellLibrary& lib,
                                      const std::string& name = "MUL");
GateNetlist generate_array_divider(int bits, const CellLibrary& lib,
                                   const std::string& name = "DIV");

// --- 100k-1M-cell scale generators (FlatTimingGraph workloads) ----------
// Built from the same NAND2/INV-derived helpers as the arithmetic units
// above, so the synthetic two-cell charlib covers every arc.

/// `tiles` independent `bits`-bit array multipliers sharing one pair of
/// operand buses — a tiled MAC array. ~2.3k cells per 16-bit tile; wide
/// and moderately deep.
GateNetlist generate_tiled_multiplier_array(int bits, int tiles,
                                            const CellLibrary& lib,
                                            const std::string& name = "TMUL");

/// `inputs` x `outputs` AND-OR crossbar: every output ORs all inputs
/// gated by a rotated select pattern. ~5 * inputs cells per output; very
/// wide, shallow (depth ~ 2 log2 inputs).
GateNetlist generate_wide_crossbar(int inputs, int outputs,
                                   const CellLibrary& lib,
                                   const std::string& name = "XBAR");

/// `stages` chained non-restoring `bits`-bit array dividers, each stage
/// dividing the previous stage's remainder — an extremely deep carry
/// chain (~bits^2 levels per stage).
GateNetlist generate_divider_chain(int bits, int stages,
                                   const CellLibrary& lib,
                                   const std::string& name = "DIVCHAIN");

/// Summary statistics of a generated design (the `design_stats` line).
struct DesignStats {
  std::size_t cells = 0;
  std::size_t nets = 0;
  int max_level = 0;       ///< deepest topological level (-1 when no cells)
  double avg_fanout = 0.0; ///< sinks per net
};

DesignStats design_stats(const GateNetlist& netlist);

/// One-line machine-grepable form:
/// "design_stats name=<n> cells=<c> nets=<n> max_level=<l> avg_fanout=<f>".
std::string design_stats_line(const GateNetlist& netlist);

/// Inserts BUF cells on nets whose fanout exceeds `max_fanout`, splitting
/// the sink set — the post-synthesis buffering pass real flows run.
/// Repeats until every net meets the cap, building buffer trees; buffer
/// nets are named <net>_buf<g>, or <net>_buf<pass>_<g> when a later pass
/// re-splits a net. Returns the number of buffers inserted.
int insert_buffers(GateNetlist& netlist, const CellLibrary& lib,
                   int max_fanout = 8);

/// Load-aware drive-strength assignment, like a synthesizer's sizing step:
/// each cell gets the smallest strength keeping load-per-strength under
/// `max_load_per_strength`. Iterates until fixed point (pin caps change
/// with sink sizes). Returns the number of resize operations.
int size_cells(GateNetlist& netlist, const CellLibrary& lib,
               const TechParams& tech,
               double max_load_per_strength = 2.5e-15);

/// Convenience: buffer + size, the standard post-processing for every
/// generated benchmark.
void finalize_design(GateNetlist& netlist, const CellLibrary& lib,
                     const TechParams& tech);

}  // namespace nsdc
