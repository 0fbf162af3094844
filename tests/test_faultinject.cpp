// Robustness-layer test matrix: the fault-plan grammar, cooperative
// cancellation (explicit / deadline / sample budget), NaN quarantine,
// netlist-MC checkpointing, and the kill/resume equivalence contract —
// a run interrupted by an injected fault and resumed from its checkpoint
// must be byte-identical to an uninterrupted run, at any thread count.
#include "util/faultinject.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "baselines/mc_reference.hpp"
#include "crafted_netlists.hpp"
#include "net/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "netlist/designgen.hpp"
#include "netlist/flatgraph.hpp"
#include "same_bits.hpp"
#include "sta/annotate.hpp"
#include "sta/engine.hpp"
#include "sta/netmc.hpp"
#include "sta/ssta_analytic.hpp"
#include "synthetic_charlib.hpp"
#include "util/cancel.hpp"
#include "util/errors.hpp"
#include "util/exec.hpp"

namespace nsdc {
namespace {

// ---------------------------------------------------------------------------
// Fault-plan grammar.

TEST(FaultPlan, ParsesFullGrammar) {
  const FaultPlan plan = FaultPlan::parse(
      "netmc.block@3=throw; netmc.sample@100=nan;"
      "checkpoint.write@2=truncate:17;pathmc.sample@5=cancel");
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.at("netmc.block", 3), FaultAction::kThrow);
  EXPECT_EQ(plan.at("netmc.block", 4), FaultAction::kNone);
  EXPECT_EQ(plan.at("netmc.sample", 100), FaultAction::kNan);
  EXPECT_EQ(plan.at("pathmc.sample", 5), FaultAction::kCancel);
  std::uint64_t arg = 0;
  EXPECT_EQ(plan.at("checkpoint.write", 2, &arg), FaultAction::kTruncate);
  EXPECT_EQ(arg, 17u);
}

TEST(FaultPlan, EmptyStringIsInactive) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ;  ").empty());
}

TEST(FaultPlan, MalformedSpecsThrowParseError) {
  EXPECT_THROW(FaultPlan::parse("netmc.block=throw"), ParseError);  // no @
  EXPECT_THROW(FaultPlan::parse("netmc.block@x=throw"), ParseError);
  EXPECT_THROW(FaultPlan::parse("netmc.block@1=explode"), ParseError);
  EXPECT_THROW(FaultPlan::parse("netmc.block@1"), ParseError);  // no action
  EXPECT_THROW(FaultPlan::parse("netmc.block@1=truncate"), ParseError);
  EXPECT_THROW(FaultPlan::parse("@1=throw"), ParseError);  // empty site
}

TEST(FaultPlan, GlobalInstallAndClear) {
  EXPECT_FALSE(fault_plan_active());
  install_fault_plan(FaultPlan::parse("netmc.block@1=throw"));
  EXPECT_TRUE(fault_plan_active());
  EXPECT_EQ(fault_at("netmc.block", 1), FaultAction::kThrow);
  EXPECT_EQ(fault_at("netmc.block", 2), FaultAction::kNone);
  clear_fault_plan();
  EXPECT_FALSE(fault_plan_active());
  EXPECT_EQ(fault_at("netmc.block", 1), FaultAction::kNone);
}

TEST(FaultPlan, FireExecutesThrowAndCancel) {
  install_fault_plan(FaultPlan::parse("a@1=throw;b@2=cancel"));
  EXPECT_THROW(fault_fire("a", 1), FaultInjectedError);
  CancellationToken token;
  EXPECT_THROW(fault_fire("b", 2, &token), CancelledError);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kFault);
  // Without a token the cancel action still surfaces as CancelledError.
  EXPECT_THROW(fault_fire("b", 2), CancelledError);
  clear_fault_plan();
}

// ---------------------------------------------------------------------------
// Cancellation token semantics.

TEST(CancellationToken, LatchesFirstReason) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.throw_if_cancelled());
  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kRequested);
  token.request_cancel(CancelReason::kFault);  // first reason wins
  EXPECT_EQ(token.reason(), CancelReason::kRequested);
  EXPECT_THROW(token.throw_if_cancelled(), CancelledError);
}

TEST(CancellationToken, ExpiredDeadlineCancels) {
  CancellationToken token;
  token.set_timeout(0.0);  // non-positive = already expired
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
}

TEST(CancellationToken, FutureDeadlineDoesNotCancel) {
  CancellationToken token;
  token.set_timeout(3600.0);
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationToken, BudgetExhaustsAfterNCharges) {
  CancellationToken token;
  token.set_sample_budget(3);
  EXPECT_TRUE(token.charge());
  EXPECT_TRUE(token.charge());
  EXPECT_TRUE(token.charge());
  EXPECT_FALSE(token.charge());
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kBudget);
}

TEST(CancellationToken, NoBudgetMeansUnlimitedCharges) {
  CancellationToken token;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(token.charge());
  EXPECT_FALSE(token.cancelled());
}

// ---------------------------------------------------------------------------
// Whole-netlist MC: quarantine, checkpoint, kill/resume equivalence.

class FaultNetMcTest : public ::testing::Test {
 protected:
  FaultNetMcTest()
      : charlib(testfix::make_charlib()),
        cells(CellLibrary::standard()),
        model(NSigmaCellModel::fit(charlib)),
        wire_model(NSigmaWireModel::fit(charlib, cells)),
        tech(TechParams::nominal28()),
        netlist(generate_array_multiplier(5, cells)),
        parasitics(generate_parasitics(netlist, tech)) {}

  ~FaultNetMcTest() override { clear_fault_plan(); }

  NetlistMonteCarlo::Result run_at(unsigned threads, int samples,
                                   NetMcOptions options = {},
                                   CancellationToken* token = nullptr) const {
    const NetlistMonteCarlo mc(model, wire_model, tech, options);
    McConfig cfg;
    cfg.samples = samples;
    cfg.seed = 4242;
    cfg.threads = threads;
    cfg.exec.cancel = token;
    return mc.run(netlist, parasitics, cfg);
  }

  std::string temp_path(const std::string& name) const {
    return ::testing::TempDir() + "nsdc_" + name;
  }

  CharLib charlib;
  CellLibrary cells;
  NSigmaCellModel model;
  NSigmaWireModel wire_model;
  TechParams tech;
  GateNetlist netlist;
  ParasiticDb parasitics;
};

TEST_F(FaultNetMcTest, NanPoisonQuarantinesWithoutBreakingMoments) {
  install_fault_plan(FaultPlan::parse("netmc.sample@7=nan;netmc.sample@13=nan"));
  const auto faulted = run_at(1, 64);
  clear_fault_plan();
  const auto clean = run_at(1, 64);

  // Two poisoned samples: every reachable net quarantines both edges.
  EXPECT_GT(faulted.total_quarantined, 0u);
  bool saw_quarantine_diag = false;
  for (const auto& d : faulted.diagnostics) {
    if (d.rule == "netmc.quarantine") saw_quarantine_diag = true;
  }
  EXPECT_TRUE(saw_quarantine_diag);
  EXPECT_EQ(clean.total_quarantined, 0u);

  for (std::size_t n = 0; n < faulted.nets.size(); ++n) {
    for (std::size_t e = 0; e < 2; ++e) {
      const auto& st = faulted.nets[n][e];
      if (st.count == 0) continue;
      // Quarantined samples never reach the streamed moments...
      EXPECT_TRUE(std::isfinite(st.moments.mu)) << n;
      EXPECT_TRUE(std::isfinite(st.moments.sigma)) << n;
      // ...and the clean run has exactly 2 more accumulated samples.
      EXPECT_EQ(st.count + 2, clean.nets[n][e].count) << n;
    }
  }
  // Reported endpoint statistics stay finite too.
  EXPECT_TRUE(std::isfinite(faulted.circuit_moments.mu));
  for (double q : faulted.circuit_quantiles) EXPECT_TRUE(std::isfinite(q));
}

TEST_F(FaultNetMcTest, ThrowAtBlockSurfacesFaultInjectedError) {
  install_fault_plan(FaultPlan::parse("netmc.block@2=throw"));
  EXPECT_THROW(run_at(1, 64), FaultInjectedError);
}

// The analytic SSTA engine exposes the same robustness surface as the MC
// engines: `ssta.level` fires once per levelized wave, so a plan can kill
// or cancel the propagation mid-netlist and the error must surface — no
// partial result, no hang.
TEST_F(FaultNetMcTest, SstaLevelThrowSurfacesFaultInjectedError) {
  const AnalyticSsta ssta(model, wire_model, tech);
  install_fault_plan(FaultPlan::parse("ssta.level@1=throw"));
  EXPECT_THROW(ssta.run(netlist, parasitics), FaultInjectedError);
  clear_fault_plan();
  // With the plan cleared the same engine instance completes normally.
  const auto res = ssta.run(netlist, parasitics);
  EXPECT_TRUE(std::isfinite(res.worst_po_moments.mu));
}

TEST_F(FaultNetMcTest, SstaLevelCancelThrowsCancelledError) {
  CancellationToken token;
  AnalyticSstaOptions opt;
  opt.sta.exec.cancel = &token;
  const AnalyticSsta ssta(model, wire_model, tech, opt);
  install_fault_plan(FaultPlan::parse("ssta.level@2=cancel"));
  EXPECT_THROW(ssta.run(netlist, parasitics), CancelledError);
  EXPECT_TRUE(token.cancelled());
}

// The circuit max folds the POs a barrier releases as item 0 of the next
// level's job, beside that level's tasks. On the crafted endpoint netlist
// the cursor releases PO c, a primary input, at barrier 0 and PO d2 at
// barrier 3, so the jobs of levels 0 and 3 carry a fold item. A throw or
// cancel there must drop the pending fold and leave the pool fit for a
// clean run.
class FaultSstaFoldTest : public ::testing::Test {
 protected:
  FaultSstaFoldTest()
      : cells(CellLibrary::standard()),
        model(NSigmaCellModel::fit(testfix::make_full_charlib())),
        wire_model(NSigmaWireModel::fit(testfix::make_charlib(), cells)),
        tech(TechParams::nominal28()),
        netlist(testfix::crafted_endpoint_netlist(cells)),
        parasitics(generate_parasitics(netlist, tech)),
        pool(3) {}

  ~FaultSstaFoldTest() override { clear_fault_plan(); }

  AnalyticSsta::Result run(CancellationToken* token = nullptr) {
    AnalyticSstaOptions opt;
    opt.sta.exec.pool = &pool;
    opt.sta.exec.threads = 4;
    opt.sta.exec.grain = 1;
    opt.sta.exec.cancel = token;
    opt.sta.min_parallel_cells = 1;
    return AnalyticSsta(model, wire_model, tech, opt).run(netlist, parasitics);
  }

  CellLibrary cells;
  NSigmaCellModel model;
  NSigmaWireModel wire_model;
  TechParams tech;
  GateNetlist netlist;
  ParasiticDb parasitics;
  ThreadPool pool;
};

TEST_F(FaultSstaFoldTest, SstaLevelThrowAtFoldLevelThenCleanRunSameBits) {
  const AnalyticSsta::Result ref = run();
  ASSERT_GE(ref.levels, 4u);
  for (const unsigned level : {0u, 3u}) {
    install_fault_plan(FaultPlan::parse("ssta.level@" +
                                        std::to_string(level) + "=throw"));
    EXPECT_THROW(run(), FaultInjectedError) << level;
    clear_fault_plan();
    EXPECT_EQ(testfix::ssta_diff(run(), ref), "") << level;
  }
}

TEST_F(FaultSstaFoldTest, SstaLevelCancelAtFoldLevelThenCleanRunSameBits) {
  const AnalyticSsta::Result ref = run();
  for (const unsigned level : {0u, 3u}) {
    CancellationToken token;
    install_fault_plan(FaultPlan::parse("ssta.level@" +
                                        std::to_string(level) + "=cancel"));
    EXPECT_THROW(run(&token), CancelledError) << level;
    EXPECT_TRUE(token.cancelled()) << level;
    clear_fault_plan();
    EXPECT_EQ(testfix::ssta_diff(run(), ref), "") << level;
  }
}

// `flatgraph.compile` fires once per topological level while the SoA graph
// is packed — before any engine touches the result, so an injected fault
// aborts the whole flat-path run cleanly.
TEST_F(FaultNetMcTest, FlatgraphCompileThrowSurfacesFaultInjectedError) {
  install_fault_plan(FaultPlan::parse("flatgraph.compile@1=throw"));
  EXPECT_THROW(FlatTimingGraph::compile(netlist), FaultInjectedError);
  // The engine's flat dispatch hits the same site (liveness end to end).
  const StaEngine engine(model, tech);
  EXPECT_THROW(engine.run(netlist, parasitics), FaultInjectedError);
  clear_fault_plan();
  const FlatTimingGraph graph = FlatTimingGraph::compile(netlist);
  EXPECT_EQ(graph.num_cells(), netlist.num_cells());
}

TEST_F(FaultNetMcTest, FlatgraphCompileCancelThrowsCancelledError) {
  install_fault_plan(FaultPlan::parse("flatgraph.compile@2=cancel"));
  CancellationToken token;
  ExecContext exec;
  exec.cancel = &token;
  EXPECT_THROW(FlatTimingGraph::compile(netlist, exec), CancelledError);
  EXPECT_TRUE(token.cancelled());
  // Null token: the cancel action still surfaces as CancelledError.
  EXPECT_THROW(FlatTimingGraph::compile(netlist), CancelledError);
}

// ---------------------------------------------------------------------------
// sta.level: StaEngine::run's per-level site, on a deep design (~10 cells
// per level). The default grain runs each level inline on the caller and
// grain 1 spreads it over the pool. The site fires before its level
// dispatches, so the fault leaves from the level loop itself at either
// grain; what grain 1 adds is that the levels before it ran on the pool.
// A fault must stop the pass there and leave the pool able to run a clean,
// byte-identical pass. The per-block token poll of each dispatch path is
// tested in ParallelForAutotuned (test_threading.cpp).

class FaultStaTest : public ::testing::Test {
 protected:
  FaultStaTest()
      : charlib(testfix::make_full_charlib()),
        cells(CellLibrary::standard()),
        model(NSigmaCellModel::fit(charlib)),
        tech(TechParams::nominal28()),
        netlist(deep_design(cells)),
        parasitics(generate_parasitics(netlist, tech)),
        pool(3) {}

  ~FaultStaTest() override { clear_fault_plan(); }

  static GateNetlist deep_design(const CellLibrary& lib) {
    RandomNetlistSpec spec;
    spec.target_cells = 3000;
    spec.target_depth = 300;
    spec.seed = 5;
    return generate_random_mapped(spec, lib);
  }

  /// 4 lanes on the fixture's pool, parallel path forced on.
  StaEngine::Result run(std::size_t grain,
                        CancellationToken* token = nullptr) {
    StaConfig cfg;
    cfg.exec.pool = &pool;
    cfg.exec.threads = 4;
    cfg.exec.grain = grain;
    cfg.exec.cancel = token;
    cfg.min_parallel_cells = 1;
    return StaEngine(model, tech, cfg).run(netlist, parasitics);
  }

  CharLib charlib;
  CellLibrary cells;
  NSigmaCellModel model;
  TechParams tech;
  GateNetlist netlist;
  ParasiticDb parasitics;
  ThreadPool pool;
};

TEST_F(FaultStaTest, LevelCancelStopsThePassAtEitherGrain) {
  ASSERT_GE(FlatTimingGraph::compile(netlist).num_levels(), 150u);
  install_fault_plan(FaultPlan::parse("sta.level@100=cancel"));
  for (const std::size_t grain : {std::size_t{0}, std::size_t{1}}) {
    CancellationToken token;
    EXPECT_THROW(run(grain, &token), CancelledError) << "grain " << grain;
    EXPECT_TRUE(token.cancelled()) << "grain " << grain;
    EXPECT_EQ(token.reason(), CancelReason::kFault) << "grain " << grain;
  }
}

TEST_F(FaultStaTest, LevelThrowSurfacesFaultInjectedError) {
  install_fault_plan(FaultPlan::parse("sta.level@100=throw"));
  EXPECT_THROW(run(0), FaultInjectedError);
  EXPECT_THROW(run(1), FaultInjectedError);
}

TEST_F(FaultStaTest, CleanRunAfterFaultIsByteIdentical) {
  const StaEngine::Result ref = run(0);
  for (const std::size_t grain : {std::size_t{0}, std::size_t{1}}) {
    const std::string what = "grain " + std::to_string(grain);
    install_fault_plan(FaultPlan::parse("sta.level@100=cancel"));
    CancellationToken token;
    EXPECT_THROW(run(grain, &token), CancelledError) << what;
    install_fault_plan(FaultPlan::parse("sta.level@50=throw"));
    EXPECT_THROW(run(grain), FaultInjectedError) << what;
    clear_fault_plan();
    EXPECT_EQ(testfix::sta_diff(run(grain), ref), "") << what;
  }
}

TEST_F(FaultNetMcTest, DeadlineExpiryThrowsCancelledError) {
  CancellationToken token;
  token.set_timeout(0.0);
  try {
    run_at(1, 64, {}, &token);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
}

TEST_F(FaultNetMcTest, BudgetExpiryThrowsCancelledError) {
  CancellationToken token;
  token.set_sample_budget(10);
  EXPECT_THROW(run_at(1, 64, {}, &token), CancelledError);
}

TEST_F(FaultNetMcTest, CancelledCheckpointedRunKeepsPartialStats) {
  const std::string path = temp_path("cancel_partial.ck");
  NetMcOptions opt;
  opt.checkpoint_path = path;
  install_fault_plan(FaultPlan::parse("netmc.block@20=cancel"));
  CancellationToken token;
  EXPECT_THROW(run_at(1, 64, opt, &token), CancelledError);
  EXPECT_EQ(token.reason(), CancelReason::kFault);
  clear_fault_plan();

  // The checkpoint holds every block completed before the cancel; the
  // partial statistics are retrievable and finite.
  std::vector<Diagnostic> diags;
  const auto data = load_mc_checkpoint(path, nullptr, &diags);
  ASSERT_TRUE(data.has_value());
  ASSERT_FALSE(data->blocks.empty());
  EXPECT_LT(data->blocks.size(), data->header.blocks);
  const auto part = NetlistMonteCarlo::partial_result(*data);
  EXPECT_GT(part.samples_done, 0u);
  EXPECT_LT(part.samples_done, 64u);
  EXPECT_GE(part.worst_po, 0);
  EXPECT_TRUE(std::isfinite(part.worst_po_moments.mu));
  EXPECT_GT(part.worst_po_moments.mu, 0.0);
  std::remove(path.c_str());
}

TEST_F(FaultNetMcTest, KillResumeByteIdenticalAtAnyThreadCount) {
  const auto uninterrupted = run_at(1, 96);
  for (const unsigned threads : {1u, 4u}) {
    const std::string path =
        temp_path("kill_resume_" + std::to_string(threads) + ".ck");
    NetMcOptions opt;
    opt.checkpoint_path = path;

    // Kill the run partway through via an injected mid-run cancellation.
    install_fault_plan(FaultPlan::parse("netmc.block@11=cancel"));
    CancellationToken token;
    EXPECT_THROW(run_at(threads, 96, opt, &token), CancelledError);
    clear_fault_plan();

    // Resume from the checkpoint; the merged result must be byte-identical
    // to the uninterrupted single-thread run.
    opt.resume = true;
    const auto resumed = run_at(threads, 96, opt);
    EXPECT_GT(resumed.blocks_resumed, 0u);
    EXPECT_EQ(testfix::netmc_diff(resumed, uninterrupted), "")
        << "resume@" << threads << " threads";
    std::remove(path.c_str());
  }
}

TEST_F(FaultNetMcTest, TruncatedCheckpointRecoversPrefixAndStaysIdentical) {
  const auto uninterrupted = run_at(1, 96);
  const std::string path = temp_path("truncated.ck");
  NetMcOptions opt;
  opt.checkpoint_path = path;

  // Tear the record of block 9 (cut bytes off the flushed file), then kill
  // the run: the checkpoint ends in a corrupt record.
  install_fault_plan(
      FaultPlan::parse("checkpoint.write@9=truncate:40;netmc.block@15=cancel"));
  CancellationToken token;
  EXPECT_THROW(run_at(1, 96, opt, &token), CancelledError);
  clear_fault_plan();

  // The loader keeps the longest valid prefix and reports the damage.
  std::vector<Diagnostic> diags;
  const auto data = load_mc_checkpoint(path, nullptr, &diags);
  ASSERT_TRUE(data.has_value());
  ASSERT_FALSE(data->blocks.empty());
  EXPECT_FALSE(diags.empty());

  // Resuming over the damaged file still reproduces the uninterrupted run.
  opt.resume = true;
  const auto resumed = run_at(1, 96, opt);
  EXPECT_EQ(testfix::netmc_diff(resumed, uninterrupted), "")
      << "resume over truncated checkpoint";
  std::remove(path.c_str());
}

TEST_F(FaultNetMcTest, MismatchedCheckpointDegradesToFreshRun) {
  const std::string path = temp_path("mismatch.ck");
  NetMcOptions opt;
  opt.checkpoint_path = path;
  (void)run_at(1, 64, opt);  // checkpoint for 64 samples

  // Resuming a *different* run (other sample count) must not reuse it.
  opt.resume = true;
  const auto other = run_at(1, 96, opt);
  EXPECT_EQ(other.blocks_resumed, 0u);
  bool saw_mismatch_diag = false;
  for (const auto& d : other.diagnostics) {
    if (d.rule == "netmc.checkpoint") saw_mismatch_diag = true;
  }
  EXPECT_TRUE(saw_mismatch_diag);
  EXPECT_EQ(testfix::netmc_diff(other, run_at(1, 96)), "")
      << "fresh run after mismatch";
  std::remove(path.c_str());
}

TEST_F(FaultNetMcTest, MissingCheckpointDegradesToFreshRunWithDiagnostic) {
  NetMcOptions opt;
  opt.checkpoint_path = temp_path("never_written.ck");
  opt.resume = true;
  const auto result = run_at(1, 64, opt);
  EXPECT_EQ(result.blocks_resumed, 0u);
  bool saw_diag = false;
  for (const auto& d : result.diagnostics) {
    if (d.rule == "netmc.checkpoint") saw_diag = true;
  }
  EXPECT_TRUE(saw_diag);
  EXPECT_EQ(testfix::netmc_diff(result, run_at(1, 64)), "")
      << "fresh run, missing checkpoint";
  std::remove(opt.checkpoint_path.c_str());
}

// ---------------------------------------------------------------------------
// Path-MC golden reference: quarantine + cancellation.

TEST_F(FaultNetMcTest, PathMcQuarantinesPoisonedSamples) {
  StaEngine engine(model, tech);
  const auto sta = engine.run(netlist, parasitics);
  const PathDescription path = engine.extract_critical_path(netlist, sta);

  PathMonteCarlo mc(tech);
  McConfig cfg;
  cfg.samples = 32;
  cfg.seed = 11;
  cfg.threads = 1;

  install_fault_plan(FaultPlan::parse("pathmc.sample@3=nan"));
  const auto faulted = mc.run(path, cfg);
  clear_fault_plan();
  const auto clean = mc.run(path, cfg);

  EXPECT_EQ(faulted.quarantined, 1u);
  EXPECT_EQ(clean.quarantined, 0u);
  EXPECT_EQ(faulted.samples.size() + 1, clean.samples.size());
  EXPECT_TRUE(std::isfinite(faulted.moments.mu));
}

// ---------------------------------------------------------------------------
// serve.request: the daemon's per-request fault site. The index is the
// deterministic request sequence number; an injected throw must surface as
// an internal-error response and an injected cancel as a cancelled
// response — the daemon itself survives either and keeps serving.

class FaultServeTest : public FaultNetMcTest {
 protected:
  serve::ServiceRefs service_refs() const {
    serve::ServiceRefs refs;
    refs.netlist = &netlist;
    refs.parasitics = &parasitics;
    refs.cell_library = &cells;
    refs.cell_model = &model;
    refs.wire_model = &wire_model;
    refs.tech = &tech;
    refs.charlib = &charlib;
    return refs;
  }

  static std::string socket_path() {
    static int counter = 0;
    return ::testing::TempDir() + "nsdc_fault_serve_" +
           std::to_string(counter++) + ".sock";
  }

  static serve::ResponseHead head_of(const std::string& response) {
    net::WireReader r(response);
    return serve::read_response_head(r);
  }
};

TEST_F(FaultServeTest, ServeRequestThrowBecomesInternalErrorResponse) {
  serve::Service service(service_refs());
  serve::Daemon daemon(net::Endpoint::unix_path(socket_path()), service);
  std::thread runner([&] { daemon.run(); });

  install_fault_plan(FaultPlan::parse("serve.request@1=throw"));
  net::Client client(daemon.endpoint());
  const auto first = head_of(client.call(serve::make_ping(1)));  // seq 0
  EXPECT_EQ(first.status, serve::Status::kOk) << first.error;

  const auto faulted = head_of(client.call(serve::make_ping(2)));  // seq 1
  EXPECT_EQ(faulted.status, serve::Status::kInternal);
  EXPECT_NE(faulted.error.find("injected fault"), std::string::npos)
      << faulted.error;

  clear_fault_plan();
  const auto after = head_of(client.call(serve::make_ping(3)));
  EXPECT_EQ(after.status, serve::Status::kOk) << after.error;

  daemon.request_stop();
  runner.join();
  EXPECT_EQ(daemon.requests_served(), 3u);
}

TEST_F(FaultServeTest, ServeRequestCancelBecomesCancelledResponse) {
  serve::Service service(service_refs());
  serve::Daemon daemon(net::Endpoint::unix_path(socket_path()), service);
  std::thread runner([&] { daemon.run(); });

  install_fault_plan(FaultPlan::parse("serve.request@1=cancel"));
  net::Client client(daemon.endpoint());
  const auto first = head_of(client.call(serve::make_ping(1)));  // seq 0
  EXPECT_EQ(first.status, serve::Status::kOk) << first.error;

  const auto cancelled = head_of(client.call(serve::make_ping(2)));  // seq 1
  EXPECT_EQ(cancelled.status, serve::Status::kCancelled);

  clear_fault_plan();
  // The pool absorbed the cancellation: real engine work still completes.
  const auto mc = head_of(client.call(serve::make_netmc(3, 32, 7)));
  EXPECT_EQ(mc.status, serve::Status::kOk) << mc.error;

  daemon.request_stop();
  runner.join();
}

TEST_F(FaultNetMcTest, PathMcHonorsSampleBudget) {
  StaEngine engine(model, tech);
  const auto sta = engine.run(netlist, parasitics);
  const PathDescription path = engine.extract_critical_path(netlist, sta);

  PathMonteCarlo mc(tech);
  McConfig cfg;
  cfg.samples = 64;
  cfg.seed = 11;
  cfg.threads = 1;
  CancellationToken token;
  token.set_sample_budget(5);
  cfg.exec.cancel = &token;
  EXPECT_THROW(mc.run(path, cfg), CancelledError);
  EXPECT_EQ(token.reason(), CancelReason::kBudget);
}

}  // namespace
}  // namespace nsdc
