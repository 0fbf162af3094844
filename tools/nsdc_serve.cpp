// nsdc_serve: the timing-as-a-service daemon. Loads (or generates) a
// design, characterizes/fits the N-sigma models ONCE, then serves timing
// queries over a length-prefixed binary protocol (DESIGN.md §13):
// path/arrival and critical-path queries against the cached baseline STA,
// analytic-SSTA arrival moments (the SSTA baseline runs on the first such
// request and is cached from then on), lint runs, Monte-Carlo runs with
// per-request sample budgets, and stateful edit sessions that stream
// netlist edits through IncrementalSta.
//
// Usage: nsdc_serve [--endpoint unix:PATH|tcp:PORT] [--cells N]
//                   [--threads N] [--max-mc-samples N] [--max-sessions N]
//   --endpoint E        where to listen. unix:PATH binds a unix-domain
//                       socket; tcp:PORT binds loopback (PORT 0 picks an
//                       ephemeral port, printed in the banner). Default
//                       tcp:0.
//   --cells N           target cell count of the generated design.
//   --threads N         worker lanes for request batches and every engine.
//   --max-mc-samples N  per-request Monte-Carlo sample budget cap.
//   --max-sessions N    concurrent edit-session cap.
//
// The daemon runs until a client sends a kShutdown request or the process
// receives SIGTERM/SIGINT — either way shutdown is graceful: new
// connections are refused, every request already received is executed,
// responses are flushed, and the process exits 0. Exit codes match the
// other tools: 0 success, 2 usage, 3 invalid argument value, 11 parse
// error, 12 I/O error (e.g. the endpoint cannot be bound), 13 internal
// error.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "liberty/charlib.hpp"
#include "liberty/synthlib.hpp"
#include "net/socket.hpp"
#include "netlist/designgen.hpp"
#include "serve/daemon.hpp"
#include "serve/service.hpp"
#include "sta/annotate.hpp"
#include "sta/timer.hpp"
#include "util/argparse.hpp"
#include "util/errors.hpp"
#include "util/log.hpp"
#include "util/threading.hpp"

using namespace nsdc;

namespace {

/// Set (only) by the SIGTERM/SIGINT handler; the daemon polls it once per
/// pass and drains gracefully. An atomic store is the whole handler — the
/// async-signal-safe minimum.
std::atomic<bool> g_graceful{false};

extern "C" void on_terminate_signal(int) {
  g_graceful.store(true, std::memory_order_release);
}

int tool_main(int argc, char** argv) {
  std::string endpoint_spec = "tcp:0";
  int target_cells = 120;
  bool synthetic = false;
  serve::ServiceOptions sopt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--endpoint") == 0 && i + 1 < argc) {
      endpoint_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--synthetic") == 0) {
      synthetic = true;
    } else if (std::strcmp(argv[i], "--cells") == 0 && i + 1 < argc) {
      target_cells = static_cast<int>(
          require_integer("--cells", argv[++i], 1, 10'000'000));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      set_default_threads(require_unsigned("--threads", argv[++i], 1, 1024));
    } else if (std::strcmp(argv[i], "--max-mc-samples") == 0 && i + 1 < argc) {
      sopt.max_mc_samples = static_cast<std::uint32_t>(
          require_integer("--max-mc-samples", argv[++i], 1, 100'000'000));
    } else if (std::strcmp(argv[i], "--max-sessions") == 0 && i + 1 < argc) {
      sopt.max_sessions = static_cast<std::uint32_t>(
          require_integer("--max-sessions", argv[++i], 1, 100'000));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--endpoint unix:PATH|tcp:PORT] [--cells N] "
                   "[--threads N] [--max-mc-samples N] [--max-sessions N] "
                   "[--synthetic]\n",
                   argv[0]);
      return 2;
    }
  }
  const net::Endpoint endpoint = net::Endpoint::parse(endpoint_spec);

  set_log_level(LogLevel::kInfo);
  TechParams tech = TechParams::nominal28();
  CellLibrary cells = CellLibrary::standard();

  CharConfig cfg;
  cfg.grid_samples = 300;
  cfg.wire_samples = 200;
  cfg.slew_grid = {10e-12, 100e-12, 250e-12, 500e-12};
  cfg.load_grid_rel = {1.0, 6.0, 15.0, 30.0};
  std::printf("nsdc_serve: loading charlib...\n");
  // --synthetic: the closed-form library (milliseconds, no cache file) —
  // for tests and deployments that cannot pay a cold characterization.
  CharLib charlib =
      synthetic
          ? make_synthetic_charlib()
          : CharLib::build_or_load("flow_smoke_charlib.txt", tech, cells, cfg);
  NSigmaTimer timer(charlib, cells, tech);

  RandomNetlistSpec spec;
  spec.name = "served";
  spec.target_cells = target_cells;
  spec.num_primary_inputs = 12;
  spec.target_depth = 12;
  GateNetlist nl = generate_random_mapped(spec, cells);
  finalize_design(nl, cells, tech);
  ParasiticDb spef = generate_parasitics(nl, tech);
  std::printf("nsdc_serve: design %s: %zu cells %zu nets depth %d\n",
              nl.name().c_str(), nl.num_cells(), nl.num_nets(), nl.depth());

  serve::ServiceRefs refs;
  refs.netlist = &nl;
  refs.parasitics = &spef;
  refs.cell_library = &cells;
  refs.cell_model = &timer.cell_model();
  refs.wire_model = &timer.wire_model();
  refs.tech = &tech;
  refs.charlib = &charlib;
  serve::Service service(refs, sopt);

  serve::Daemon::Options dopt;
  dopt.drain_stop = &g_graceful;
  serve::Daemon daemon(endpoint, service, dopt);
  std::signal(SIGTERM, on_terminate_signal);
  std::signal(SIGINT, on_terminate_signal);
  if (daemon.endpoint().kind == net::Endpoint::Kind::kTcp) {
    std::printf("nsdc_serve: listening on tcp:%u (%u lanes)\n",
                static_cast<unsigned>(daemon.port()), default_threads());
  } else {
    std::printf("nsdc_serve: listening on %s (%u lanes)\n",
                daemon.endpoint().describe().c_str(), default_threads());
  }
  std::fflush(stdout);

  daemon.run();
  std::printf("nsdc_serve: shut down%s after %llu request(s)\n",
              g_graceful.load(std::memory_order_acquire) ? " (signal drain)"
                                                         : "",
              static_cast<unsigned long long>(daemon.requests_served()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return tool_main(argc, argv);
  } catch (...) {
    return handle_tool_exception("nsdc_serve");
  }
}
