// Fault-tolerant multi-process shard coordinator (src/dist, DESIGN.md
// §14): protocol codecs, the shared retry policy, and the supervision
// matrix — clean runs at several worker counts, SIGKILL mid-shard, a hang
// past the shard deadline, a silent worker reaped by the missed-heartbeat
// watchdog, torn shard checkpoints, spawn failures, and retry exhaustion
// degrading to a diagnosed partial with the distinct kExitPartial exit
// code. The load-bearing assertion throughout: the merged statistics are
// byte-identical to an uninterrupted single-process run for ANY worker
// count, kill schedule, or retry history.
//
// Worker-side faults travel to the fork/exec'd workers through the
// inherited NSDC_FAULTS environment variable; coordinator-side sites
// (spawn, shard-checkpoint validation) are armed in-process via
// install_fault_plan with the same plan text. Site names are disjoint, so
// one plan string drives both sides.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "dist/bundle.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "gtest/gtest.h"
#include "same_bits.hpp"
#include "sta/engine.hpp"
#include "sta/netmc.hpp"
#include "util/errors.hpp"
#include "util/faultinject.hpp"
#include "util/retry.hpp"

#ifndef NSDC_TOOL_DIR
#define NSDC_TOOL_DIR ""
#endif

namespace nsdc {
namespace {

// ---------------------------------------------------------------------------
// RetryPolicy: the deterministic exponential-backoff schedule.

TEST(RetryPolicy, DelayScheduleIsDeterministicAndCapped) {
  RetryPolicy p;
  p.max_retries = 7;
  p.base_delay_s = 0.05;
  p.multiplier = 2.0;
  p.max_delay_s = 2.0;
  EXPECT_EQ(p.delay_s(0), 0.0);
  EXPECT_EQ(p.delay_s(-3), 0.0);
  EXPECT_DOUBLE_EQ(p.delay_s(1), 0.05);
  EXPECT_DOUBLE_EQ(p.delay_s(2), 0.10);
  EXPECT_DOUBLE_EQ(p.delay_s(3), 0.20);
  EXPECT_DOUBLE_EQ(p.delay_s(7), 2.0);  // 0.05 * 2^6 = 3.2, capped
}

TEST(RetryPolicy, MaxAttemptsNeverBelowOne) {
  RetryPolicy p;
  EXPECT_EQ(p.max_attempts(), 4);  // default max_retries = 3
  p.max_retries = 0;
  EXPECT_EQ(p.max_attempts(), 1);
  p.max_retries = -5;
  EXPECT_EQ(p.max_attempts(), 1);
}

TEST(RetryPolicy, RetryCallSleepsTheExactScheduleThenSucceeds) {
  RetryPolicy p;
  p.max_retries = 3;
  p.base_delay_s = 0.5;
  p.multiplier = 2.0;
  p.max_delay_s = 10.0;
  std::vector<double> sleeps;
  int calls = 0;
  const bool ok = retry_call(
      p, [&] { return ++calls == 3; },
      [&](double s) { sleeps.push_back(s); });
  EXPECT_TRUE(ok);
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_DOUBLE_EQ(sleeps[0], 0.5);
  EXPECT_DOUBLE_EQ(sleeps[1], 1.0);
}

TEST(RetryPolicy, RetryCallExhaustsAfterMaxAttempts) {
  RetryPolicy p;
  p.max_retries = 2;
  p.base_delay_s = 0.1;
  std::vector<double> sleeps;
  int calls = 0;
  const bool ok = retry_call(
      p,
      [&] {
        ++calls;
        return false;
      },
      [&](double s) { sleeps.push_back(s); });
  EXPECT_FALSE(ok);
  EXPECT_EQ(calls, p.max_attempts());
  EXPECT_EQ(sleeps.size(), 2u);  // no sleep after the final failure
}

// ---------------------------------------------------------------------------
// Control protocol: byte-deterministic codecs over u32 frames.

TEST(DistProtocol, HelloRoundTrip) {
  const std::string wire = dist::encode_hello(dist::HelloMsg{42});
  EXPECT_EQ(dist::peek_type(wire), dist::MsgType::kHello);
  dist::HelloMsg out;
  ASSERT_TRUE(dist::decode_hello(wire, &out));
  EXPECT_EQ(out.worker_id, 42u);
}

TEST(DistProtocol, HeartbeatRoundTrip) {
  dist::HeartbeatMsg hb;
  hb.worker_id = 7;
  hb.shard = 3;
  hb.attempt = 2;
  hb.units_done = 11;
  dist::HeartbeatMsg out;
  ASSERT_TRUE(dist::decode_heartbeat(dist::encode_heartbeat(hb), &out));
  EXPECT_EQ(out.worker_id, 7u);
  EXPECT_EQ(out.shard, 3u);
  EXPECT_EQ(out.attempt, 2u);
  EXPECT_EQ(out.units_done, 11u);
}

TEST(DistProtocol, AssignRoundTripCarriesCheckpointPath) {
  dist::AssignMsg a;
  a.shard = 5;
  a.attempt = 1;
  a.lo = 8;
  a.hi = 16;
  a.checkpoint_path = "/tmp/shard_5.ckpt";
  dist::AssignMsg out;
  ASSERT_TRUE(dist::decode_assign(dist::encode_assign(a), &out));
  EXPECT_EQ(out.shard, 5u);
  EXPECT_EQ(out.attempt, 1u);
  EXPECT_EQ(out.lo, 8u);
  EXPECT_EQ(out.hi, 16u);
  EXPECT_EQ(out.checkpoint_path, "/tmp/shard_5.ckpt");
}

TEST(DistProtocol, ShardDoneRoundTripWithStaResults) {
  dist::ShardDoneMsg m;
  m.worker_id = 2;
  m.shard = 4;
  m.attempt = 3;
  m.ok = true;
  dist::PoTime p0;
  p0.net = 218;
  p0.reachable = 1;
  p0.arrival = {1.25e-9, 1.5e-9};
  p0.slew = {12e-12, 14e-12};
  dist::PoTime p1;  // unreachable PO keeps the defaults
  m.po_times = {p0, p1};
  dist::ShardDoneMsg out;
  ASSERT_TRUE(dist::decode_shard_done(dist::encode_shard_done(m), &out));
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(out.detail.empty());
  ASSERT_EQ(out.po_times.size(), 2u);
  EXPECT_EQ(out.po_times[0].net, 218);
  EXPECT_EQ(out.po_times[0].reachable, 1);
  EXPECT_EQ(out.po_times[0].arrival[0], 1.25e-9);
  EXPECT_EQ(out.po_times[0].arrival[1], 1.5e-9);
  EXPECT_EQ(out.po_times[0].slew[1], 14e-12);
  EXPECT_EQ(out.po_times[1].net, -1);
  EXPECT_EQ(out.po_times[1].reachable, 0);
}

TEST(DistProtocol, ShardDoneRoundTripWithFailureDetail) {
  dist::ShardDoneMsg m;
  m.worker_id = 1;
  m.shard = 0;
  m.attempt = 0;
  m.ok = false;
  m.detail = "checkpoint write failed";
  dist::ShardDoneMsg out;
  ASSERT_TRUE(dist::decode_shard_done(dist::encode_shard_done(m), &out));
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.detail, "checkpoint write failed");
  EXPECT_TRUE(out.po_times.empty());
}

TEST(DistProtocol, DecodersRejectMalformedFrames) {
  dist::HelloMsg hello;
  dist::AssignMsg assign;
  dist::ShardDoneMsg done;
  // Wrong type byte.
  EXPECT_FALSE(dist::decode_hello(dist::encode_stop(), &hello));
  EXPECT_FALSE(dist::decode_assign(dist::encode_hello({1}), &assign));
  // Truncated payload.
  dist::ShardDoneMsg m;
  m.ok = true;
  m.po_times.resize(3);
  const std::string wire = dist::encode_shard_done(m);
  EXPECT_FALSE(
      dist::decode_shard_done(wire.substr(0, wire.size() / 2), &done));
  // Trailing junk.
  EXPECT_FALSE(dist::decode_shard_done(wire + "x", &done));
  // Empty payload.
  EXPECT_EQ(dist::peek_type(""), static_cast<dist::MsgType>(0));
  EXPECT_FALSE(dist::decode_hello("", &hello));
}

// ---------------------------------------------------------------------------
// Coordinator supervision matrix. Workers are real fork/exec'd nsdc_dist
// processes; the golden reference is the same bundle run in-process.

class DistTest : public ::testing::Test {
 protected:
  DistTest() : bundle_(dist::make_bundle(dist::BundleSpec{})) {}

  ~DistTest() override {
    clear_fault_plan();
    ::unsetenv("NSDC_FAULTS");
    for (const auto& dir : workdirs_) std::filesystem::remove_all(dir);
  }

  /// Arms `plan` for both sides: NSDC_FAULTS for the fork/exec'd workers,
  /// install_fault_plan for the coordinator running in this process.
  static void arm_faults(const std::string& plan) {
    ASSERT_EQ(::setenv("NSDC_FAULTS", plan.c_str(), 1), 0);
    install_fault_plan(FaultPlan::parse(plan));
  }

  /// A fresh shard workdir, removed when the test's fixture is destroyed.
  std::string unique_workdir(const std::string& tag) {
    static int counter = 0;
    workdirs_.push_back(::testing::TempDir() + "nsdc_dist_" +
                        std::to_string(::getpid()) + "_" + tag + "_" +
                        std::to_string(counter++));
    return workdirs_.back();
  }

  /// Fast-retry options over the default mul/5 bundle, 96 samples: 32
  /// accumulation blocks of 3 samples each.
  dist::DistOptions base_options(const std::string& tag) {
    dist::DistOptions opt;
    opt.mode = "mc";
    opt.workers = 1;
    opt.shards = 4;
    opt.samples = 96;
    opt.seed = 4242;
    opt.workdir = unique_workdir(tag);
    opt.worker_binary = std::string(NSDC_TOOL_DIR) + "/nsdc_dist";
    opt.worker_threads = 1;
    opt.retry.max_retries = 3;
    opt.retry.base_delay_s = 0.01;
    opt.retry.multiplier = 2.0;
    opt.retry.max_delay_s = 0.05;
    opt.heartbeat_ms = 20;
    return opt;
  }

  /// Uninterrupted single-process reference over the identical bundle.
  NetlistMonteCarlo::Result golden_mc(int samples) const {
    const NetlistMonteCarlo mc(bundle_.cell_model, bundle_.wire_model,
                               bundle_.tech);
    McConfig cfg;
    cfg.samples = samples;
    cfg.seed = 4242;
    cfg.threads = 2;
    return mc.run(bundle_.netlist, bundle_.parasitics, cfg);
  }


  static void expect_all_done(const dist::DistResult& res) {
    EXPECT_TRUE(res.complete);
    for (const auto& st : res.shards) {
      EXPECT_EQ(st.state, dist::ShardState::kDone)
          << "shard " << st.id << ": " << st.detail;
    }
  }

  dist::DesignBundle bundle_;
  std::vector<std::string> workdirs_;
};

TEST_F(DistTest, CleanOneWorkerMatchesSingleProcess) {
  auto opt = base_options("clean1");
  opt.workers = 1;
  const dist::DistResult res = dist::run_coordinator(opt);
  expect_all_done(res);
  EXPECT_EQ(res.workers_spawned, 1u);
  EXPECT_EQ(res.workers_lost, 0u);
  EXPECT_EQ(res.shard_retries, 0u);
  EXPECT_EQ(res.mc.samples_done, 96u);
  EXPECT_EQ(testfix::netmc_diff(res.mc, golden_mc(96)), "")
      << "1 worker";
}

TEST_F(DistTest, CleanFourWorkersMatchesSingleProcess) {
  auto opt = base_options("clean4");
  opt.workers = 4;
  opt.shards = 8;
  const dist::DistResult res = dist::run_coordinator(opt);
  expect_all_done(res);
  EXPECT_EQ(res.workers_spawned, 4u);
  ASSERT_EQ(res.shards.size(), 8u);
  EXPECT_EQ(testfix::netmc_diff(res.mc, golden_mc(96)), "")
      << "4 workers";
}

TEST_F(DistTest, ShardCountClampsToAccumulationBlocks) {
  auto opt = base_options("clamp");
  opt.samples = 8;  // 8 blocks of 1 sample
  opt.shards = 64;  // asks for more shards than work units exist
  const dist::DistResult res = dist::run_coordinator(opt);
  expect_all_done(res);
  EXPECT_EQ(res.shards.size(), 8u);
  EXPECT_EQ(testfix::netmc_diff(res.mc, golden_mc(8)), "")
      << "clamped shards";
}

TEST_F(DistTest, SigkilledWorkerMidShardResumesByteIdentical) {
  // Attempt 0, block 2: the worker SIGKILLs itself right after block 2 is
  // durable in the shard checkpoint. The retry must resume from the
  // longest valid prefix and merge byte-identically.
  arm_faults("dist.worker.kill@2=throw");
  auto opt = base_options("kill");
  const dist::DistResult res = dist::run_coordinator(opt);
  expect_all_done(res);
  EXPECT_GE(res.workers_lost, 1u);
  EXPECT_GE(res.shard_retries, 1u);
  EXPECT_GE(res.workers_spawned, 2u);
  EXPECT_EQ(res.shards[0].attempts, 2);
  EXPECT_FALSE(res.diagnostics.empty());
  EXPECT_EQ(testfix::netmc_diff(res.mc, golden_mc(96)), "")
      << "SIGKILL mid-shard";
}

TEST_F(DistTest, HungWorkerReclaimedByShardDeadline) {
  // cancel at the kill site = hang mid-shard with heartbeats still
  // beating: only the per-shard deadline can reclaim this worker.
  arm_faults("dist.worker.kill@2=cancel");
  auto opt = base_options("hang");
  opt.shard_deadline_s = 0.6;
  opt.heartbeat_timeout_s = 30.0;
  const dist::DistResult res = dist::run_coordinator(opt);
  expect_all_done(res);
  EXPECT_GE(res.workers_lost, 1u);
  EXPECT_GE(res.shard_retries, 1u);
  EXPECT_EQ(testfix::netmc_diff(res.mc, golden_mc(96)), "")
      << "hang past deadline";
}

TEST_F(DistTest, SilentWorkerReclaimedByHeartbeatWatchdog) {
  // Worker 0 wedges its heartbeats from beat 1 (index worker_id*1000+seq)
  // AND hangs its compute at block 2 — alive, silent, never reporting.
  // With a 30 s shard deadline, only the missed-heartbeat watchdog can
  // reclaim it; the runtime bound below proves that path fired.
  arm_faults("dist.heartbeat@1=cancel;dist.worker.kill@2=cancel");
  auto opt = base_options("silent");
  opt.shard_deadline_s = 30.0;
  opt.heartbeat_timeout_s = 0.4;
  const dist::DistResult res = dist::run_coordinator(opt);
  expect_all_done(res);
  EXPECT_GE(res.workers_lost, 1u);
  EXPECT_LT(res.runtime_seconds, 15.0);  // watchdog, not the 30 s deadline
  EXPECT_EQ(testfix::netmc_diff(res.mc, golden_mc(96)), "")
      << "silent worker";
}

TEST_F(DistTest, TornShardCheckpointRetriesByteIdentical) {
  // Coordinator-side site: shard 0's first validation (index
  // shard*100 + attempt = 0) tears 13 bytes off the checkpoint before
  // loading it. The shard must retry — resuming over the torn file's
  // valid prefix — and still merge byte-identically.
  arm_faults("dist.shard.checkpoint@0=truncate:13");
  auto opt = base_options("torn");
  const dist::DistResult res = dist::run_coordinator(opt);
  expect_all_done(res);
  EXPECT_GE(res.shard_retries, 1u);
  EXPECT_FALSE(res.diagnostics.empty());
  EXPECT_EQ(testfix::netmc_diff(res.mc, golden_mc(96)), "")
      << "torn checkpoint";
}

TEST_F(DistTest, SpawnFailureConsumesBudgetAndRecovers) {
  // Spawn sequence 1 (the second worker of the initial fleet) fails; the
  // coordinator respawns within its budget and completes.
  arm_faults("dist.worker.spawn@1=throw");
  auto opt = base_options("spawn");
  opt.workers = 2;
  const dist::DistResult res = dist::run_coordinator(opt);
  expect_all_done(res);
  EXPECT_EQ(res.spawn_failures, 1u);
  EXPECT_EQ(testfix::netmc_diff(res.mc, golden_mc(96)), "")
      << "spawn failure";
}

TEST_F(DistTest, RetryExhaustionYieldsDiagnosedPartial) {
  // Shard 0 dies on attempt 0 (index 2) AND attempt 1 (index 10002) with
  // only one retry allowed: exhausted. The other three shards must still
  // complete, the exhausted shard's durable blocks are salvaged from its
  // checkpoint, and the result is a diagnosed partial — never an abort.
  arm_faults("dist.worker.kill@2=throw;dist.worker.kill@10002=throw");
  auto opt = base_options("exhaust");
  opt.retry.max_retries = 1;
  const dist::DistResult res = dist::run_coordinator(opt);
  EXPECT_FALSE(res.complete);
  ASSERT_EQ(res.shards.size(), 4u);
  EXPECT_EQ(res.shards[0].state, dist::ShardState::kExhausted);
  EXPECT_EQ(res.shards[0].attempts, 2);
  EXPECT_FALSE(res.shards[0].detail.empty());
  for (std::size_t s = 1; s < 4; ++s) {
    EXPECT_EQ(res.shards[s].state, dist::ShardState::kDone) << "shard " << s;
  }
  EXPECT_FALSE(res.diagnostics.empty());
  // 3 complete shards (72 samples) plus the exhausted shard's salvaged
  // durable blocks — partial, but strictly more than the survivors alone.
  EXPECT_GT(res.mc.samples_done, 72u);
  EXPECT_LT(res.mc.samples_done, 96u);
}

TEST_F(DistTest, CoordinatorRejectsInvalidOptions) {
  auto opt = base_options("badmode");
  opt.mode = "bogus";
  EXPECT_THROW(dist::run_coordinator(opt), UsageError);
  auto opt2 = base_options("badworkers");
  opt2.workers = 0;
  EXPECT_THROW(dist::run_coordinator(opt2), UsageError);
  auto opt3 = base_options("baddesign");
  opt3.bundle.design = "unknown";
  EXPECT_THROW(dist::run_coordinator(opt3), UsageError);
}

// ---------------------------------------------------------------------------
// STA mode: cone-sharded per-PO timing vs the full in-process engine.

class DistStaTest : public DistTest {
 protected:
  void expect_matches_engine(const dist::DistResult& res) const {
    const StaEngine engine(bundle_.cell_model, bundle_.tech);
    const StaEngine::Result ref =
        engine.run(bundle_.netlist, bundle_.parasitics);
    ASSERT_EQ(res.po_nets.size(), bundle_.netlist.primary_outputs().size());
    for (std::size_t i = 0; i < res.po_nets.size(); ++i) {
      const auto& nt = ref.nets[static_cast<std::size_t>(res.po_nets[i])];
      EXPECT_EQ(res.po_reachable[i] != 0, nt.reachable) << "po " << i;
      for (std::size_t e = 0; e < 2; ++e) {
        ASSERT_EQ(res.po_arrival[i][e], nt.arrival[e])
            << "po " << i << " edge " << e;
        ASSERT_EQ(res.po_slew[i][e], nt.slew[e])
            << "po " << i << " edge " << e;
      }
    }
    EXPECT_EQ(res.max_arrival, ref.max_arrival);
    EXPECT_EQ(res.critical_net, ref.critical_net);
    EXPECT_EQ(res.critical_edge, ref.critical_edge);
  }
};

TEST_F(DistStaTest, ConeShardsMatchFullEngineByteForByte) {
  auto opt = base_options("sta");
  opt.mode = "sta";
  opt.workers = 2;
  opt.shards = 3;
  const dist::DistResult res = dist::run_coordinator(opt);
  expect_all_done(res);
  expect_matches_engine(res);
}

TEST_F(DistStaTest, SigkilledStaWorkerRetriesByteIdentical) {
  // STA work units are levelization levels: the worker dies after level 1
  // of attempt 0; the retry recomputes the cone and must match exactly.
  arm_faults("dist.worker.kill@1=throw");
  auto opt = base_options("stakill");
  opt.mode = "sta";
  opt.shards = 2;
  const dist::DistResult res = dist::run_coordinator(opt);
  expect_all_done(res);
  EXPECT_GE(res.workers_lost, 1u);
  expect_matches_engine(res);
}

// ---------------------------------------------------------------------------
// The nsdc_dist tool: exit 0 when complete, kExitPartial (14) when
// degraded — asserted end to end through a real subprocess.

int run_tool(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  if (rc < 0) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(DistTool, CompleteRunExitsZero) {
  const std::string workdir =
      ::testing::TempDir() + "nsdc_dist_tool_clean_" +
      std::to_string(::getpid());
  const std::string cmd = std::string(NSDC_TOOL_DIR) +
                          "/nsdc_dist --workers 2 --shards 4 --samples 96 "
                          "--workdir " +
                          workdir + " >/dev/null 2>&1";
  EXPECT_EQ(run_tool(cmd), 0);
  std::filesystem::remove_all(workdir);
}

TEST(DistTool, RetryExhaustionExitsPartialCode) {
  const std::string workdir =
      ::testing::TempDir() + "nsdc_dist_tool_partial_" +
      std::to_string(::getpid());
  const std::string cmd =
      "NSDC_FAULTS='dist.worker.kill@2=throw;dist.worker.kill@10002=throw' " +
      std::string(NSDC_TOOL_DIR) +
      "/nsdc_dist --workers 1 --shards 4 --samples 96 --retries 1 "
      "--workdir " +
      workdir + " >/dev/null 2>&1";
  EXPECT_EQ(run_tool(cmd), kExitPartial);
  EXPECT_EQ(kExitPartial, 14);
  std::filesystem::remove_all(workdir);
}

TEST(DistTool, RejectsUnknownFlag) {
  const int rc = run_tool(std::string(NSDC_TOOL_DIR) +
                          "/nsdc_dist --no-such-flag >/dev/null 2>&1");
  EXPECT_NE(rc, 0);
}

}  // namespace
}  // namespace nsdc
