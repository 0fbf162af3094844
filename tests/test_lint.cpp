// Lint-engine tests: every built-in rule fires exactly once (with the right
// severity) on a hand-crafted defective design, clean designs produce zero
// errors, reports are bit-identical across thread counts, and the hardened
// parsers emit recoverable diagnostics with line numbers.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "netlist/benchio.hpp"
#include "netlist/designgen.hpp"
#include "netlist/verilogio.hpp"
#include "sta/annotate.hpp"
#include "synthetic_charlib.hpp"

namespace nsdc {
namespace {

std::string repo_path(const std::string& rel) {
  return std::string(NSDC_SOURCE_DIR) + "/" + rel;
}

int count_rule(const LintReport& report, const std::string& rule) {
  int n = 0;
  for (const auto& d : report.diagnostics()) {
    if (d.rule == rule) ++n;
  }
  return n;
}

Severity rule_severity(const LintReport& report, const std::string& rule) {
  for (const auto& d : report.diagnostics()) {
    if (d.rule == rule) return d.severity;
  }
  ADD_FAILURE() << "rule " << rule << " did not fire";
  return Severity::kInfo;
}

/// Synthetic charlib covering EVERY standard-library cell (the shared
/// testfix::make_charlib covers only 7 cells, which would trip
/// lib.uncharacterized-cell on generated designs).
CharLib full_charlib(const CellLibrary& cells) {
  CharLib lib;
  lib.set_tech(TechParams::nominal28());
  for (const CellType& ct : cells.cells()) {
    for (bool rising : {true, false}) {
      testfix::SyntheticArcSpec spec;
      spec.cell = ct.name();
      spec.in_rising = rising;
      spec.mu0 = 40e-12;
      spec.sigma0 = 10e-12 / std::sqrt(static_cast<double>(ct.strength()));
      lib.add_arc(testfix::make_arc(spec));
    }
  }
  return lib;
}

/// make_arc with custom slew/load axes (same synthetic moment surfaces).
ArcCharData make_arc_axes(const testfix::SyntheticArcSpec& spec,
                          std::vector<double> slews,
                          std::vector<double> loads) {
  ArcCharData arc;
  arc.cell = spec.cell;
  arc.pin = 0;
  arc.in_rising = spec.in_rising;
  arc.slews = std::move(slews);
  arc.loads = std::move(loads);
  for (double s : arc.slews) {
    for (double c : arc.loads) {
      ConditionStats cs;
      cs.moments = testfix::synthetic_moments(spec, s, c, arc.slews.front(),
                                              arc.loads.front());
      cs.quantiles = testfix::synthetic_quantiles(cs.moments);
      cs.mean_delay = cs.moments.mu;
      cs.mean_out_slew = 0.8 * s + 20e-12 + 2e3 * c;
      arc.grid.push_back(std::move(cs));
    }
  }
  return arc;
}

/// a -> INVx1(u0) -> n0 -> INVx1(u1) -> y. `mark_po` controls OUTPUT(y).
GateNetlist inv_chain(const CellLibrary& lib, bool mark_po = true) {
  GateNetlist nl("chain");
  const int a = nl.add_primary_input("a");
  const int c0 = nl.add_cell("u0", lib.by_name("INVx1"), {a}, "n0");
  const int c1 =
      nl.add_cell("u1", lib.by_name("INVx1"), {nl.cell(c0).out_net}, "y");
  if (mark_po) nl.mark_primary_output(nl.cell(c1).out_net);
  return nl;
}

// ------------------------------------------------------------ clean designs

TEST(LintClean, C17WithParasiticsAndCharlibHasZeroErrors) {
  const CellLibrary cells = CellLibrary::standard();
  const TechParams tech = TechParams::nominal28();
  const GateNetlist nl = load_bench(repo_path("data/c17.bench"), cells);
  const ParasiticDb spef = generate_parasitics(nl, tech);
  const CharLib charlib = full_charlib(cells);
  const NSigmaCellModel model = NSigmaCellModel::fit(charlib);

  LintInput in;
  in.netlist = &nl;
  in.parasitics = &spef;
  in.charlib = &charlib;
  in.cell_model = &model;
  in.tech = &tech;
  const LintReport report = run_lint(in);
  EXPECT_EQ(report.count(Severity::kError), 0) << report.to_text();
  EXPECT_EQ(report.checks_run(), LintRegistry::global().checks().size());
}

TEST(LintClean, GeneratedDesignHasZeroErrors) {
  const CellLibrary cells = CellLibrary::standard();
  const TechParams tech = TechParams::nominal28();
  RandomNetlistSpec spec;
  spec.name = "lintgen";
  spec.target_cells = 150;
  spec.num_primary_inputs = 10;
  GateNetlist nl = generate_random_mapped(spec, cells);
  finalize_design(nl, cells, tech);
  const ParasiticDb spef = generate_parasitics(nl, tech);
  const CharLib charlib = full_charlib(cells);
  const NSigmaCellModel model = NSigmaCellModel::fit(charlib);

  LintInput in;
  in.netlist = &nl;
  in.parasitics = &spef;
  in.charlib = &charlib;
  in.cell_model = &model;
  in.tech = &tech;
  const LintReport report = run_lint(in);
  EXPECT_EQ(report.count(Severity::kError), 0) << report.to_text();
  // finalize_design buffers every net down to the 8-sink basis.
  EXPECT_EQ(count_rule(report, "net.fanout-basis"), 0);
}

// -------------------------------------------------------- structural rules

TEST(LintStructural, UnconnectedPinFiresOnce) {
  const CellLibrary cells = CellLibrary::standard();
  GateNetlist nl = inv_chain(cells);
  nl.rewire_fanin(1, 0, -1);
  LintInput in;
  in.netlist = &nl;
  const LintReport report = run_lint(in);
  EXPECT_EQ(count_rule(report, "net.unconnected-pin"), 1);
  EXPECT_EQ(rule_severity(report, "net.unconnected-pin"), Severity::kError);
  // n0 now drives nothing: the dangling-output rule flags it too.
  EXPECT_EQ(count_rule(report, "net.dangling-output"), 1);
}

TEST(LintStructural, CombLoopFiresOnce) {
  const CellLibrary cells = CellLibrary::standard();
  GateNetlist nl = inv_chain(cells);
  nl.rewire_fanin(0, 0, nl.cell(1).out_net);  // u0 <- y: u0/u1 cycle
  LintInput in;
  in.netlist = &nl;
  const LintReport report = run_lint(in);
  EXPECT_EQ(count_rule(report, "net.comb-loop"), 1);
  EXPECT_EQ(rule_severity(report, "net.comb-loop"), Severity::kError);
  const Diagnostic* loop = nullptr;
  for (const auto& d : report.diagnostics()) {
    if (d.rule == "net.comb-loop") loop = &d;
  }
  ASSERT_NE(loop, nullptr);
  EXPECT_NE(loop->message.find("u0"), std::string::npos);
  EXPECT_NE(loop->message.find("u1"), std::string::npos);
}

TEST(LintStructural, MultiDriverAndDriverMismatchAndUndriven) {
  const CellLibrary cells = CellLibrary::standard();
  GateNetlist nl = inv_chain(cells);
  // Rebind u1's output onto n0: n0 gains a second driver, y (a PO) loses
  // its only driver, and both declared-driver links go stale.
  nl.set_cell_out_net_raw(1, nl.cell(0).out_net);
  LintInput in;
  in.netlist = &nl;
  const LintReport report = run_lint(in);
  EXPECT_EQ(count_rule(report, "net.multi-driver"), 1);
  EXPECT_EQ(rule_severity(report, "net.multi-driver"), Severity::kError);
  EXPECT_EQ(count_rule(report, "net.undriven"), 1);
  EXPECT_EQ(rule_severity(report, "net.undriven"), Severity::kError);
  EXPECT_EQ(count_rule(report, "net.driver-mismatch"), 2);
}

TEST(LintStructural, DeadNetIsInfoOnly) {
  const CellLibrary cells = CellLibrary::standard();
  GateNetlist nl = inv_chain(cells, /*mark_po=*/false);
  nl.set_cell_out_net_raw(1, nl.cell(0).out_net);
  LintInput in;
  in.netlist = &nl;
  const LintReport report = run_lint(in);
  // y now has no driver, no sinks, and no PO marker: dead, info severity.
  EXPECT_EQ(count_rule(report, "net.undriven"), 1);
  EXPECT_EQ(rule_severity(report, "net.undriven"), Severity::kInfo);
}

TEST(LintStructural, DanglingOutputFiresOnce) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = inv_chain(cells, /*mark_po=*/false);
  LintInput in;
  in.netlist = &nl;
  const LintReport report = run_lint(in);
  EXPECT_EQ(count_rule(report, "net.dangling-output"), 1);
  EXPECT_EQ(rule_severity(report, "net.dangling-output"), Severity::kWarn);
  EXPECT_EQ(report.count(Severity::kError), 0);
}

TEST(LintStructural, FanoutBasisFiresOnce) {
  const CellLibrary cells = CellLibrary::standard();
  GateNetlist nl("fan");
  const int a = nl.add_primary_input("a");
  for (int i = 0; i < 9; ++i) {
    const int c = nl.add_cell("u" + std::to_string(i),
                              cells.by_name("INVx1"), {a},
                              "n" + std::to_string(i));
    nl.mark_primary_output(nl.cell(c).out_net);
  }
  LintInput in;
  in.netlist = &nl;
  const LintReport report = run_lint(in);
  EXPECT_EQ(count_rule(report, "net.fanout-basis"), 1);
  EXPECT_EQ(rule_severity(report, "net.fanout-basis"), Severity::kWarn);
}

// --------------------------------------------------------- parasitic rules

TEST(LintParasitic, ZeroResistanceAndNoCapacitance) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = inv_chain(cells);
  ParasiticDb db;
  RcTree tree;  // u1's receiver hangs on a zero-R, zero-C edge
  tree.add_node(0, 0.0, 0.0);
  tree.mark_sink(1, "u1:0");
  db.add("n0", tree);
  LintInput in;
  in.netlist = &nl;
  in.parasitics = &db;
  const LintReport report = run_lint(in);
  // Two warnings on net n0: the zero-R edge and the cap-free tree.
  EXPECT_EQ(count_rule(report, "spef.nonpositive-rc"), 2);
  EXPECT_EQ(rule_severity(report, "spef.nonpositive-rc"), Severity::kWarn);
}

TEST(LintParasitic, DuplicateSinkPinFiresOnce) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = inv_chain(cells);
  ParasiticDb db;
  RcTree tree;
  tree.add_node(0, 100.0, 1e-15);
  tree.mark_sink(1, "u1:0");
  tree.mark_sink(1, "u1:0");
  db.add("n0", tree);
  LintInput in;
  in.netlist = &nl;
  in.parasitics = &db;
  const LintReport report = run_lint(in);
  EXPECT_EQ(count_rule(report, "spef.disconnected-node"), 1);
  EXPECT_EQ(rule_severity(report, "spef.disconnected-node"),
            Severity::kError);
}

TEST(LintParasitic, NetMismatchMissingReceiverIsError) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = inv_chain(cells);
  ParasiticDb db;
  RcTree tree;
  tree.add_node(0, 100.0, 1e-15);
  tree.mark_sink(1, "bogus:0");  // u1:0 missing, bogus:0 stale
  db.add("n0", tree);
  LintInput in;
  in.netlist = &nl;
  in.parasitics = &db;
  const LintReport report = run_lint(in);
  int errors = 0, warns = 0;
  for (const auto& d : report.diagnostics()) {
    if (d.rule != "spef.net-mismatch") continue;
    (d.severity == Severity::kError ? errors : warns) += 1;
  }
  EXPECT_EQ(errors, 1);  // receiver pin u1:0 absent from the tree
  EXPECT_GE(warns, 1);   // stale sink + un-annotated y net
}

TEST(LintParasitic, UnknownParasiticNetWarns) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = inv_chain(cells);
  const TechParams tech = TechParams::nominal28();
  ParasiticDb db = generate_parasitics(nl, tech);
  RcTree ghost;
  ghost.add_node(0, 50.0, 1e-15);
  db.add("phantom_net", ghost);
  LintInput in;
  in.netlist = &nl;
  in.parasitics = &db;
  const LintReport report = run_lint(in);
  int phantom = 0;
  for (const auto& d : report.diagnostics()) {
    if (d.rule == "spef.net-mismatch" &&
        d.object == "net:phantom_net") {
      ++phantom;
      EXPECT_EQ(d.severity, Severity::kWarn);
    }
  }
  EXPECT_EQ(phantom, 1);
}

// ------------------------------------------------------------ domain rules

TEST(LintDomain, UncharacterizedCellFiresOncePerType) {
  const CellLibrary cells = CellLibrary::standard();
  GateNetlist nl("mix");
  const int a = nl.add_primary_input("a");
  const int b = nl.add_primary_input("b");
  nl.add_cell("u0", cells.by_name("INVx1"), {a}, "n0");
  const int c1 = nl.add_cell("u1", cells.by_name("NAND2x1"),
                             {nl.find_net("n0"), b}, "y");
  nl.mark_primary_output(nl.cell(c1).out_net);

  CharLib lib;  // characterizes INVx1 only
  lib.set_tech(TechParams::nominal28());
  for (bool rising : {true, false}) {
    testfix::SyntheticArcSpec spec;
    spec.in_rising = rising;
    lib.add_arc(testfix::make_arc(spec));
  }
  LintInput in;
  in.netlist = &nl;
  in.charlib = &lib;
  const LintReport report = run_lint(in);
  EXPECT_EQ(count_rule(report, "lib.uncharacterized-cell"), 1);
  EXPECT_EQ(rule_severity(report, "lib.uncharacterized-cell"),
            Severity::kError);
}

TEST(LintDomain, NonMonotoneQuantilesFireOncePerArc) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = inv_chain(cells);
  CharLib lib;
  lib.set_tech(TechParams::nominal28());
  for (bool rising : {true, false}) {
    testfix::SyntheticArcSpec spec;
    spec.in_rising = rising;
    ArcCharData arc = testfix::make_arc(spec);
    if (rising) {  // corrupt one grid condition of the rising arc
      std::swap(arc.grid[3].quantiles[2], arc.grid[3].quantiles[4]);
    }
    lib.add_arc(std::move(arc));
  }
  LintInput in;
  in.netlist = &nl;
  in.charlib = &lib;
  const LintReport report = run_lint(in);
  EXPECT_EQ(count_rule(report, "lib.nonmonotone-quantiles"), 1);
  EXPECT_EQ(rule_severity(report, "lib.nonmonotone-quantiles"),
            Severity::kWarn);
}

TEST(LintDomain, CalibDivergenceFiresWhenSurfaceCannotFit) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = inv_chain(cells);
  CharLib lib;
  lib.set_tech(TechParams::nominal28());
  for (bool rising : {true, false}) {
    testfix::SyntheticArcSpec spec;
    spec.in_rising = rising;
    ArcCharData arc = testfix::make_arc(spec);
    if (rising) {  // a wild outlier the Eq. 3 cubic cannot reproduce
      arc.grid[7].moments.gamma += 80.0;
    }
    lib.add_arc(std::move(arc));
  }
  LintInput in;
  in.netlist = &nl;
  in.charlib = &lib;
  const LintReport report = run_lint(in);
  EXPECT_EQ(count_rule(report, "lib.calib-divergence"), 1);
  EXPECT_EQ(rule_severity(report, "lib.calib-divergence"), Severity::kWarn);
}

TEST(LintDomain, LoadOutsideGridWarns) {
  const CellLibrary cells = CellLibrary::standard();
  const TechParams tech = TechParams::nominal28();
  const GateNetlist nl = inv_chain(cells);
  ParasiticDb db = generate_parasitics(nl, tech);
  RcTree heavy;  // 50 fF on n0 vs a grid topping out at 12 fF
  heavy.add_node(0, 100.0, 50e-15);
  heavy.mark_sink(1, "u1:0");
  db.add("n0", heavy);
  const CharLib charlib = full_charlib(cells);
  const NSigmaCellModel model = NSigmaCellModel::fit(charlib);
  LintInput in;
  in.netlist = &nl;
  in.parasitics = &db;
  in.charlib = &charlib;
  in.cell_model = &model;
  in.tech = &tech;
  const LintReport report = run_lint(in);
  EXPECT_EQ(count_rule(report, "sta.load-domain"), 1);
  EXPECT_EQ(rule_severity(report, "sta.load-domain"), Severity::kWarn);
}

TEST(LintDomain, PropagatedSlewOutsideGridWarns) {
  const CellLibrary cells = CellLibrary::standard();
  const TechParams tech = TechParams::nominal28();
  const GateNetlist nl = inv_chain(cells);
  const ParasiticDb db = generate_parasitics(nl, tech);
  // Slew axis ends at 20 ps; the INVx1 output slew (~30 ps) exceeds it, so
  // u1's input is out of the characterized domain while u0 (driven by the
  // 10 ps primary-input edge) stays inside.
  CharLib lib;
  lib.set_tech(TechParams::nominal28());
  for (bool rising : {true, false}) {
    testfix::SyntheticArcSpec spec;
    spec.in_rising = rising;
    lib.add_arc(make_arc_axes(spec, {10e-12, 20e-12},
                              {0.4e-15, 1.6e-15, 4e-15, 7.2e-15, 12e-15}));
  }
  const NSigmaCellModel model = NSigmaCellModel::fit(lib);
  LintInput in;
  in.netlist = &nl;
  in.parasitics = &db;
  in.charlib = &lib;
  in.cell_model = &model;
  in.tech = &tech;
  const LintReport report = run_lint(in);
  ASSERT_EQ(count_rule(report, "sta.slew-domain"), 1) << report.to_text();
  EXPECT_EQ(rule_severity(report, "sta.slew-domain"), Severity::kWarn);
  for (const auto& d : report.diagnostics()) {
    if (d.rule == "sta.slew-domain") EXPECT_EQ(d.object, "cell:u1");
  }
}

// ----------------------------------------------- engine / report mechanics

TEST(LintEngine, ReportsAreByteIdenticalAcrossThreadCounts) {
  const CellLibrary cells = CellLibrary::standard();
  const TechParams tech = TechParams::nominal28();
  GateNetlist nl = inv_chain(cells);
  nl.set_cell_out_net_raw(1, nl.cell(0).out_net);  // seed a defect cluster
  ParasiticDb db;
  RcTree tree;
  tree.add_node(0, 0.0, 0.0);
  tree.mark_sink(1, "u1:0");
  db.add("n0", tree);
  const CharLib charlib = full_charlib(cells);
  const NSigmaCellModel model = NSigmaCellModel::fit(charlib);

  auto run_with = [&](unsigned threads) {
    LintInput in;
    in.netlist = &nl;
    in.parasitics = &db;
    in.charlib = &charlib;
    in.cell_model = &model;
    in.tech = &tech;
    LintOptions opt;
    opt.exec.threads = threads;
    return run_lint(in, opt);
  };
  const LintReport serial = run_with(1);
  const LintReport parallel = run_with(4);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  EXPECT_EQ(serial.to_text(), parallel.to_text());
  EXPECT_GT(serial.count(Severity::kError), 0);
}

TEST(LintEngine, DisabledRulesAreSkipped) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = inv_chain(cells, /*mark_po=*/false);
  LintInput in;
  in.netlist = &nl;
  LintOptions opt;
  opt.disabled_rules = {"net.dangling-output"};
  const LintReport report = run_lint(in, opt);
  EXPECT_EQ(count_rule(report, "net.dangling-output"), 0);
  EXPECT_EQ(report.checks_run(),
            LintRegistry::global().checks().size() - 1);
}

TEST(LintEngine, ExitCodeTracksMaxSeverity) {
  const CellLibrary cells = CellLibrary::standard();
  {
    const GateNetlist nl = inv_chain(cells);
    LintInput in;
    in.netlist = &nl;
    EXPECT_EQ(run_lint(in).exit_code(), 0);
  }
  {
    const GateNetlist nl = inv_chain(cells, /*mark_po=*/false);
    LintInput in;
    in.netlist = &nl;
    EXPECT_EQ(run_lint(in).exit_code(), 1);  // dangling-output warn
  }
  {
    GateNetlist nl = inv_chain(cells);
    nl.rewire_fanin(1, 0, -1);
    LintInput in;
    in.netlist = &nl;
    EXPECT_EQ(run_lint(in).exit_code(), 2);  // unconnected-pin error
  }
}

TEST(LintEngine, RegistryRejectsDuplicateIds) {
  LintRegistry reg;
  LintRule rule;
  rule.id = "custom.rule";
  rule.layer = "structural";
  rule.check = [](const LintInput&, const LintPrep&, const LintOptions&,
                  std::vector<Diagnostic>&) {};
  reg.add(rule);
  EXPECT_NE(reg.find("custom.rule"), nullptr);
  EXPECT_THROW(reg.add(rule), std::invalid_argument);
  EXPECT_EQ(reg.find("no.such.rule"), nullptr);
}

TEST(LintEngine, ThrowingRuleBecomesInternalDiagnostic) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = inv_chain(cells);
  LintRegistry reg;
  LintRule rule;
  rule.id = "custom.throws";
  rule.layer = "structural";
  rule.check = [](const LintInput&, const LintPrep&, const LintOptions&,
                  std::vector<Diagnostic>&) {
    throw std::runtime_error("boom");
  };
  reg.add(rule);
  LintInput in;
  in.netlist = &nl;
  const LintReport report = run_lint(in, {}, reg);
  ASSERT_EQ(count_rule(report, "lint.internal"), 1);
  EXPECT_NE(report.diagnostics()[0].message.find("boom"), std::string::npos);
}

TEST(LintEngine, MergeKeepsCanonicalOrder) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = inv_chain(cells, /*mark_po=*/false);
  LintInput in;
  in.netlist = &nl;
  LintReport report = run_lint(in);  // one warning
  report.merge({{Severity::kError, "parse.bench", "line:3", "bad line", "",
                 3}});
  ASSERT_GE(report.diagnostics().size(), 2u);
  // Errors sort before warnings regardless of merge order.
  EXPECT_EQ(report.diagnostics()[0].rule, "parse.bench");
  EXPECT_EQ(report.exit_code(), 2);
}

// ------------------------------------------------------- hardened parsers

TEST(ParserDiag, BenchRecoversWithLineNumbers) {
  const CellLibrary cells = CellLibrary::standard();
  std::vector<Diagnostic> diags;
  const GateNetlist nl = parse_bench(
      "INPUT(a)\ny = NOT(ghost)\nz = FROB(a)\nOUTPUT(y)\n", cells, "t",
      &diags);
  ASSERT_EQ(diags.size(), 2u);
  for (const auto& d : diags) {
    EXPECT_EQ(d.rule, "parse.bench");
    EXPECT_EQ(d.severity, Severity::kError);
  }
  EXPECT_EQ(diags[0].line, 2);  // undefined signal 'ghost'
  EXPECT_EQ(diags[1].line, 3);  // unknown function FROB
  // The netlist is still structurally valid and analyzable.
  EXPECT_GT(nl.num_cells(), 0u);
  LintInput in;
  in.netlist = &nl;
  EXPECT_NO_THROW(run_lint(in));
}

TEST(ParserDiag, BenchStillThrowsWithoutSink) {
  const CellLibrary cells = CellLibrary::standard();
  EXPECT_THROW(parse_bench("y = NOT(ghost)\nOUTPUT(y)\n", cells, "t"),
               std::runtime_error);
}

TEST(ParserDiag, VerilogUnknownCellHasLineNumber) {
  const CellLibrary cells = CellLibrary::standard();
  std::vector<Diagnostic> diags;
  const GateNetlist nl = parse_verilog(
      "module t(a, y);\ninput a;\noutput y;\n"
      "BOGUS u1 (.A0(a), .Z(y));\nendmodule\n",
      cells, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "parse.verilog");
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_NE(diags[0].message.find("BOGUS"), std::string::npos);
  EXPECT_EQ(nl.num_cells(), 0u);  // instance dropped, output stubbed
}

TEST(ParserDiag, VerilogSkipsMalformedStatement) {
  const CellLibrary cells = CellLibrary::standard();
  std::vector<Diagnostic> diags;
  const GateNetlist nl = parse_verilog(
      "module t(a, y);\ninput a;\noutput y;\n"
      "INVx1 u0 (.A0(a) garbage;\n"
      "INVx1 u1 (.A0(a), .Z(y));\nendmodule\n",
      cells, &diags);
  ASSERT_GE(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_EQ(nl.num_cells(), 1u);  // u1 survives the recovery
}

TEST(ParserDiag, SpefClampsNegativeResistance) {
  std::vector<Diagnostic> diags;
  const ParasiticDb db = ParasiticDb::from_spef(
      "*SPEF nsdc-lite 1\n*D_NET n1 1e-15\n*NODES 2\n1 0 -5 1e-15\n"
      "*SINKS\nu1:0 1\n*END\n",
      &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "parse.spef");
  EXPECT_EQ(diags[0].severity, Severity::kWarn);
  EXPECT_EQ(diags[0].line, 4);
  ASSERT_TRUE(db.contains("n1"));
  EXPECT_EQ(db.net("n1").edge_res(1), 0.0);  // clamped
}

TEST(ParserDiag, SpefRecoversFromMissingEnd) {
  std::vector<Diagnostic> diags;
  const ParasiticDb db = ParasiticDb::from_spef(
      "*SPEF nsdc-lite 1\n*D_NET n1 0\n*NODES 2\n1 0 10 1e-15\n", &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_TRUE(db.contains("n1"));  // net kept despite the missing *END
}

}  // namespace
}  // namespace nsdc
