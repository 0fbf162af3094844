// Determinism/regression layer for the parallel execution engine: pool
// edge cases, the autotuned dispatch contract (narrow batches inline on the
// caller, wide ones one block per lane), and the contract that every
// parallel flow (mean STA, Gaussian statistical STA, path Monte-Carlo) is
// bit-identical at any thread count; test_netmc and test_ssta_analytic pin
// the same contract for the netlist sampler and the moment-shaping mode.
#include "util/threading.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/mc_reference.hpp"
#include "netlist/designgen.hpp"
#include "same_bits.hpp"
#include "sta/annotate.hpp"
#include "sta/engine.hpp"
#include "sta/ssta_analytic.hpp"
#include "synthetic_charlib.hpp"
#include "util/cancel.hpp"
#include "util/errors.hpp"
#include "util/exec.hpp"

namespace nsdc {
namespace {

using testfix::make_charlib;

// ---------------------------------------------------------------- pool ---

TEST(ThreadPool, SizeMatchesRequestedWorkers) {
  ThreadPool p3(3);
  EXPECT_EQ(p3.size(), 3u);
  ThreadPool p0(0);
  EXPECT_EQ(p0.size(), 0u);
}

TEST(ThreadPool, ZeroWorkerPoolRunsOnCaller) {
  ThreadPool pool(0);
  std::vector<int> hits(100, 0);
  const unsigned blocks = pool.run_blocks(
      hits.size(), 10, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ++hits[i];
      });
  EXPECT_EQ(blocks, 10u);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, RunBlocksVisitsEveryIndexOnce) {
  ThreadPool pool(3);
  const std::size_t n = 5000;
  std::vector<std::atomic<int>> hits(n);
  const unsigned blocks = pool.run_blocks(n, 64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  EXPECT_EQ(blocks, (n + 63) / 64);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  const unsigned blocks = pool.run_blocks(
      0, 1, [](std::size_t, std::size_t) { FAIL() << "must not be called"; });
  EXPECT_EQ(blocks, 0u);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(2);
  auto boom = [](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      if (i == 37) throw std::runtime_error("index 37 failed");
    }
  };
  EXPECT_THROW(pool.run_blocks(100, 8, boom), std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> count{0};
  pool.run_blocks(50, 5,
                  [&](std::size_t b, std::size_t e) {
                    count.fetch_add(static_cast<int>(e - b));
                  });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ExactlyFirstExceptionIsRethrown) {
  // Zero-worker pool runs blocks on the caller in index order, so "first"
  // is deterministic: index 10 throws before index 20 is ever visited.
  ThreadPool pool(0);
  try {
    pool.run_blocks(64, 1, [](std::size_t b, std::size_t) {
      if (b == 10) throw std::runtime_error("first");
      if (b == 20) throw std::invalid_argument("second");
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPool, ReusableAfterCancelledJob) {
  ThreadPool pool(2);
  ExecContext exec;
  exec.pool = &pool;
  CancellationToken token;
  token.request_cancel();
  exec.cancel = &token;
  // A pre-cancelled token turns every index into a CancelledError; the
  // first rethrow surfaces it and fail-fast skips the rest.
  EXPECT_THROW(exec.parallel_for(64, [](std::size_t) {}), CancelledError);

  // The pool (and the same ExecContext minus the token) must complete a
  // fresh job afterwards — cancellation is a normal failed job.
  exec.cancel = nullptr;
  std::atomic<int> count{0};
  exec.parallel_for(64, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, CancellationSkipsUnclaimedWork) {
  // Serial pool: indices run in order, so everything after the cancel
  // point must never execute.
  ThreadPool pool(0);
  ExecContext exec;
  exec.pool = &pool;
  CancellationToken token;
  exec.cancel = &token;
  std::atomic<int> ran{0};
  EXPECT_THROW(exec.parallel_for(100,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   if (i == 4) token.request_cancel();
                                 }),
               CancelledError);
  // Indices 0..4 ran; index 5's pre-check threw; nothing later ran.
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(token.reason(), CancelReason::kRequested);
}

// ------------------------------------ ExecContext on the global pool ---
// A context that names no pool runs on global_pool(), the path every engine
// takes unless a caller hands it a private pool.

TEST(ParallelFor, SurfacesChosenWorkerCount) {
  auto noop = [](std::size_t) {};
  // More lanes than indices: clamped to one index per block.
  EXPECT_EQ(ExecContext{.threads = 32}.parallel_for(10, noop), 10u);
  // Uneven split: ceil(10/3)=4 per block -> only 3 blocks materialize.
  EXPECT_EQ(ExecContext{.threads = 3}.parallel_for(10, noop), 3u);
  // chunk 2 -> blocks 0-2,2-4,4-5
  EXPECT_EQ(ExecContext{.threads = 4}.parallel_for(5, noop), 3u);
  EXPECT_EQ(ExecContext{.threads = 1}.parallel_for(100, noop), 1u);
  EXPECT_EQ(ExecContext{.threads = 4}.parallel_for(0, noop), 0u);
}

TEST(ParallelFor, DefaultThreadsOverride) {
  set_default_threads(3);
  EXPECT_EQ(default_threads(), 3u);
  EXPECT_EQ(ExecContext{}.parallel_for(300, [](std::size_t) {}), 3u);
  set_default_threads(0);  // restore env/hardware default
  EXPECT_GE(default_threads(), 1u);
}

TEST(ParallelFor, NestedCallsComplete) {
  std::vector<std::atomic<int>> hits(200);
  ExecContext{.threads = 4}.parallel_for(4, [&](std::size_t outer) {
    ExecContext{.threads = 3}.parallel_for(50, [&](std::size_t inner) {
      hits[outer * 50 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ExceptionReachesCaller) {
  auto boom = [](std::size_t i) {
    if (i == 13) throw std::invalid_argument("13");
  };
  EXPECT_THROW(ExecContext{.threads = 4}.parallel_for(64, boom),
               std::invalid_argument);
}

TEST(ParallelForChunked, GrainBoundsBlockSize) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  std::atomic<int> calls{0};
  const unsigned blocks = ExecContext{.threads = 8}.parallel_for_chunked(
      n, 100, [&](std::size_t b, std::size_t e) {
        EXPECT_LT(b, e);
        calls.fetch_add(1);
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      });
  EXPECT_LE(blocks, 10u);  // never smaller than the grain
  EXPECT_EQ(blocks, static_cast<unsigned>(calls.load()));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ----------------------------------------- parallel_for_autotuned ---

/// 4 lanes on a private 3-worker pool: the shape of a default run on a
/// 4-thread host, independent of the machine the test runs on.
class ParallelForAutotuned : public ::testing::Test {
 protected:
  ParallelForAutotuned() : pool(3) {
    exec.pool = &pool;
    exec.threads = 4;
  }

  ThreadPool pool;
  ExecContext exec;
};

TEST_F(ParallelForAutotuned, NarrowBatchRunsInlineOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(100, 0);
  std::vector<std::thread::id> ran_on(hits.size());
  const unsigned blocks = exec.parallel_for_autotuned(
      hits.size(), [&](std::size_t i) {
        ++hits[i];
        ran_on[i] = std::this_thread::get_id();
      });
  EXPECT_EQ(blocks, 1u);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << i;
    EXPECT_EQ(ran_on[i], caller) << i;
  }
}

TEST_F(ParallelForAutotuned, WideBatchSplitsOneBlockPerLane) {
  const std::size_t n = 4 * ExecContext::kAutotunedMinBlock;
  std::vector<std::atomic<int>> hits(n);
  const unsigned blocks = exec.parallel_for_autotuned(
      n, [&](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_EQ(blocks, 4u);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelForAutotuned, ExplicitGrainBypassesTheFloor) {
  exec.grain = 1;
  std::vector<std::atomic<int>> hits(100);
  const unsigned blocks = exec.parallel_for_autotuned(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_EQ(blocks, 4u);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelForAutotuned, PreCancelledTokenThrowsOnInlinePath) {
  CancellationToken token;
  token.request_cancel();
  exec.cancel = &token;
  int calls = 0;
  EXPECT_THROW(exec.parallel_for_autotuned(100, [&](std::size_t) { ++calls; }),
               CancelledError);
  EXPECT_EQ(calls, 0);
}

TEST_F(ParallelForAutotuned, PreCancelledTokenThrowsOnPoolPath) {
  // Grain 1 puts the 100-index batch on the pool as 4 blocks; each block
  // polls the token before its first index, so the CancelledError reaches
  // the caller through the job's rethrow and no index runs.
  exec.grain = 1;
  CancellationToken token;
  token.request_cancel();
  exec.cancel = &token;
  std::atomic<int> calls{0};
  EXPECT_THROW(exec.parallel_for_autotuned(
                   100, [&](std::size_t) { calls.fetch_add(1); }),
               CancelledError);
  EXPECT_EQ(calls.load(), 0);

  exec.cancel = nullptr;
  EXPECT_EQ(exec.parallel_for_autotuned(
                100, [&](std::size_t) { calls.fetch_add(1); }),
            4u);
  EXPECT_EQ(calls.load(), 100);
}

TEST_F(ParallelForAutotuned, SingleBlockExceptionReachesCallerAndPoolSurvives) {
  EXPECT_THROW(pool.run_blocks(100, 100,
                               [](std::size_t, std::size_t) {
                                 throw std::runtime_error("single block");
                               }),
               std::runtime_error);
  std::atomic<int> count{0};
  const unsigned blocks = pool.run_blocks(
      40, 10, [&](std::size_t b, std::size_t e) {
        count.fetch_add(static_cast<int>(e - b));
      });
  EXPECT_EQ(blocks, 4u);
  EXPECT_EQ(count.load(), 40);
}

// ------------------------------------------- parallel_for_claimed ---

/// The claimed loop on a private 3-worker pool: the caller and three
/// workers, so at most 4 threads whatever the lane count.
class ParallelForClaimed : public ::testing::Test {
 protected:
  ParallelForClaimed() : pool(3) { exec.pool = &pool; }

  ThreadPool pool;
  ExecContext exec;
};

TEST_F(ParallelForClaimed, VisitsEachIndexOnceAt1To8Lanes) {
  for (const unsigned lanes : {1u, 2u, 4u, 8u}) {
    exec.threads = lanes;
    std::vector<std::atomic<int>> hits(1000);
    EXPECT_EQ(exec.parallel_for_claimed(
                  hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }),
              lanes);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << lanes << " lanes, index " << i;
    }
  }
  exec.threads = 8;
  EXPECT_EQ(exec.parallel_for_claimed(3, [](std::size_t) {}), 3u);
  EXPECT_EQ(exec.parallel_for_claimed(0, [](std::size_t) {}), 0u);
}

TEST_F(ParallelForClaimed, NeverUsesMoreThreadsThanLanes) {
  ThreadPool wide(7);
  exec.pool = &wide;
  for (const unsigned lanes : {1u, 2u, 4u}) {
    exec.threads = lanes;
    std::mutex mu;
    std::set<std::thread::id> used;
    exec.parallel_for_claimed(400, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      const std::lock_guard<std::mutex> lock(mu);
      used.insert(std::this_thread::get_id());
    });
    EXPECT_GE(used.size(), 1u);
    EXPECT_LE(used.size(), lanes);
  }
}

TEST_F(ParallelForClaimed, RunsInIndexOrderOnCallerAtOneLaneOrNoWorkers) {
  ThreadPool serial(0);
  ExecContext no_workers;
  no_workers.pool = &serial;
  no_workers.threads = 4;
  exec.threads = 1;
  for (const ExecContext& ctx : {exec, no_workers}) {
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    ctx.parallel_for_claimed(100, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    std::vector<std::size_t> want(100);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(order, want);
  }
}

TEST_F(ParallelForClaimed, RethrowsFirstExceptionAndClaimsNothingAfter) {
  // One lane: indices run in order, so nothing after the throw runs.
  exec.threads = 1;
  std::vector<std::size_t> seen;
  EXPECT_THROW(exec.parallel_for_claimed(100,
                                         [&](std::size_t i) {
                                           seen.push_back(i);
                                           if (i == 6) {
                                             throw std::invalid_argument("6");
                                           }
                                         }),
               std::invalid_argument);
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(seen.back(), 6u);

  // Four lanes: only index 6 throws, and the other lanes stop claiming
  // once it has. Each item sleeps, so a lane that ignored the failure would
  // run on through the thousands of indices left.
  exec.threads = 4;
  constexpr std::size_t kCount = 4000;
  std::atomic<std::size_t> ran{0};
  try {
    exec.parallel_for_claimed(kCount, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 6) throw std::runtime_error("index 6");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
    ADD_FAILURE() << "no exception reached the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 6");
  }
  EXPECT_GE(ran.load(), 7u);
  EXPECT_LT(ran.load(), kCount / 2);

  // The pool serves the next loop in full.
  std::atomic<int> after{0};
  EXPECT_EQ(exec.parallel_for_claimed(64,
                                      [&](std::size_t) { after.fetch_add(1); }),
            4u);
  EXPECT_EQ(after.load(), 64);
}

TEST_F(ParallelForClaimed, PreCancelledTokenThrowsCancelledError) {
  CancellationToken token;
  token.request_cancel();
  exec.cancel = &token;
  for (const unsigned lanes : {1u, 4u}) {
    exec.threads = lanes;
    std::atomic<int> calls{0};
    EXPECT_THROW(exec.parallel_for_claimed(
                     100, [&](std::size_t) { calls.fetch_add(1); }),
                 CancelledError)
        << lanes << " lanes";
    EXPECT_EQ(calls.load(), 0) << lanes << " lanes";
  }
}

// ------------------------------------------- thread-count invariance ------

class InvarianceTest : public ::testing::Test {
 protected:
  InvarianceTest()
      : charlib(make_charlib()),
        cells(CellLibrary::standard()),
        model(NSigmaCellModel::fit(charlib)),
        tech(TechParams::nominal28()),
        // NAND2x1/INVx1 only, so the synthetic charlib covers every arc.
        netlist(generate_array_multiplier(6, cells)),
        parasitics(generate_parasitics(netlist, tech)) {}

  /// grain 1 (the default) puts even this design's narrow levels on the
  /// pool; grain 0 keeps the autotuned floor, which runs them inline.
  StaEngine::Result run_sta(unsigned threads, std::size_t grain = 1) const {
    StaConfig cfg;
    cfg.exec.threads = threads;
    cfg.exec.grain = grain;
    cfg.min_parallel_cells = 1;  // force the levelized parallel path
    const StaEngine engine(model, tech, cfg);
    return engine.run(netlist, parasitics);
  }

  CharLib charlib;
  CellLibrary cells;
  NSigmaCellModel model;
  TechParams tech;
  GateNetlist netlist;
  ParasiticDb parasitics;
};

TEST_F(InvarianceTest, StaEngineBitIdenticalAcrossThreadCounts) {
  ASSERT_GE(netlist.num_cells(), 200u);
  const auto ref = run_sta(1);
  for (const std::size_t grain : {std::size_t{0}, std::size_t{1}}) {
    for (unsigned t : {2u, 7u, default_threads()}) {
      const std::string what = std::to_string(t) + " threads, grain " +
                               std::to_string(grain);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(testfix::sta_diff(run_sta(t, grain), ref), "") << what;
    }
  }
}

TEST_F(InvarianceTest, StatisticalStaBitIdenticalAcrossThreadCounts) {
  // The Gaussian SSTA engine: AnalyticSsta with Gaussian cell delays.
  const NSigmaWireModel wire_model = NSigmaWireModel::fit(charlib, cells);
  auto run_at = [&](unsigned threads) {
    AnalyticSstaOptions opt;
    opt.moment_shaping = false;
    opt.sta.exec.threads = threads;
    opt.sta.min_parallel_cells = 1;
    const AnalyticSsta ssta(model, wire_model, tech, opt);
    return ssta.run(netlist, parasitics);
  };
  const auto ref = run_at(1);
  for (unsigned t : {2u, 7u}) {
    EXPECT_EQ(testfix::ssta_diff(run_at(t), ref), "") << t << " threads";
  }
}

TEST_F(InvarianceTest, PathMonteCarloBitIdenticalAcrossThreadCounts) {
  // A short real path keeps the transient-simulation budget test-sized.
  GateNetlist chain("mc_chain");
  int net = chain.add_primary_input("a");
  for (int i = 0; i < 3; ++i) {
    const int g = chain.add_cell("u" + std::to_string(i),
                                 cells.by_name(i % 2 ? "INVx2" : "INVx1"),
                                 {net}, "w" + std::to_string(i));
    net = chain.cell(g).out_net;
  }
  chain.mark_primary_output(net);
  const ParasiticDb spef = generate_parasitics(chain, tech);
  const StaEngine engine(model, tech);
  const auto sta = engine.run(chain, spef);
  const PathDescription path = engine.extract_critical_path(chain, sta);

  PathMonteCarlo mc(tech);
  auto run_at = [&](unsigned threads) {
    McConfig cfg;
    cfg.samples = 40;
    cfg.seed = 4242;
    cfg.threads = threads;
    return mc.run(path, cfg);
  };
  const auto ref = run_at(1);
  ASSERT_GE(ref.samples.size(), 32u);
  for (unsigned t : {2u, 7u}) {
    const auto got = run_at(t);
    EXPECT_EQ(got.failures, ref.failures) << t << " threads";
    ASSERT_EQ(got.samples.size(), ref.samples.size()) << t << " threads";
    for (std::size_t i = 0; i < ref.samples.size(); ++i) {
      EXPECT_EQ(got.samples[i], ref.samples[i]) << "sample " << i;
    }
    for (int lv = 0; lv < 7; ++lv) {
      const auto l = static_cast<std::size_t>(lv);
      EXPECT_EQ(got.quantiles[l], ref.quantiles[l]) << "level " << lv;
    }
  }
}

TEST_F(InvarianceTest, SerialFallbackMatchesParallelPath) {
  // Below the threshold the engine runs serially; results must match the
  // forced-parallel run exactly.
  StaConfig serial_cfg;
  serial_cfg.min_parallel_cells = netlist.num_cells() + 1;
  serial_cfg.exec.threads = 8;
  const StaEngine serial_engine(model, tech, serial_cfg);
  const auto serial = serial_engine.run(netlist, parasitics);
  const auto parallel = run_sta(8);
  EXPECT_EQ(serial.max_arrival, parallel.max_arrival);
  for (std::size_t n = 0; n < serial.nets.size(); ++n) {
    EXPECT_EQ(serial.nets[n].arrival[0], parallel.nets[n].arrival[0]);
    EXPECT_EQ(serial.nets[n].arrival[1], parallel.nets[n].arrival[1]);
  }
}

}  // namespace
}  // namespace nsdc
