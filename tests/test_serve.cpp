// nsdc_serve tests: the wire-encoding primitives, the daemon's robustness
// contract (malformed / truncated / oversized frames and bad requests
// never kill it), per-session byte-determinism at 1 vs 4 threads with 4
// concurrent clients, per-request deadlines mapping to the cancelled
// status while the pool stays reusable, the SSTA baseline computed on the
// first request and run again after a failed run, edit sessions
// byte-identical to offline IncrementalSta, duplicate-net-name query
// rejection, and the argparse rejection matrix — unit level plus the three
// CLIs exiting 3 on invalid argument values — and the nsdc_lint /
// nsdc_analyze stdout goldens with their exit codes.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "net/wire.hpp"
#include "netlist/designgen.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sta/annotate.hpp"
#include "sta/incremental.hpp"
#include "synthetic_charlib.hpp"
#include "util/argparse.hpp"
#include "util/errors.hpp"
#include "util/faultinject.hpp"

namespace nsdc {
namespace {

// --- Wire primitives --------------------------------------------------------

TEST(Wire, WriterReaderRoundTrip) {
  net::WireWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-1234.5678e-12);
  w.str("hello wire");
  const std::string bytes = w.take();

  net::WireReader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -1234.5678e-12);  // bit-exact by construction
  EXPECT_EQ(r.str(), "hello wire");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Wire, ReaderIsStickyOnTruncation) {
  net::WireWriter w;
  w.u32(7);
  net::WireReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0u);  // past the end: zero, failure latched
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // stays failed
  EXPECT_FALSE(r.at_end());
}

TEST(Wire, FrameDecoderReassemblesByteByByte) {
  const std::string frame = net::encode_frame("payload-1") +
                            net::encode_frame("") +
                            net::encode_frame("payload-3");
  net::FrameDecoder dec(1024);
  std::vector<std::string> popped;
  for (char ch : frame) {
    dec.feed(&ch, 1);
    std::string p;
    while (dec.pop(&p)) popped.push_back(p);
  }
  ASSERT_EQ(popped.size(), 3u);
  EXPECT_EQ(popped[0], "payload-1");
  EXPECT_EQ(popped[1], "");
  EXPECT_EQ(popped[2], "payload-3");
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(Wire, FrameDecoderPoisonsOnOversizedLength) {
  net::FrameDecoder dec(64);
  const std::string bad = net::encode_frame(std::string(65, 'x'));
  dec.feed(bad.data(), bad.size());
  std::string p;
  EXPECT_FALSE(dec.pop(&p));
  EXPECT_TRUE(dec.oversized());
  // Even a subsequent well-formed frame must not be delivered.
  const std::string good = net::encode_frame("ok");
  dec.feed(good.data(), good.size());
  EXPECT_FALSE(dec.pop(&p));
}

// --- Daemon harness ---------------------------------------------------------

std::string unique_socket_path(const char* tag) {
  static int counter = 0;
  return "/tmp/nsdc_serve_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(counter++) + ".sock";
}

/// make_full_charlib (arcs for every standard cell) plus synthetic wire
/// observations in the exact Eq. 7 form testfix::make_charlib uses, so
/// NSigmaWireModel::fit has data; cells never observed as drivers/loads
/// resolve through the model's family fallback.
CharLib make_serve_charlib() {
  CharLib lib = testfix::make_full_charlib();
  const std::vector<std::string> drivers = {"INVx1",  "INVx4",   "NAND2x2",
                                            "NOR2x2", "AOI21x2", "OAI21x2"};
  const std::vector<std::string> loads = {"INVx1", "INVx2", "NAND2x2",
                                          "BUFx1"};
  int tree_id = 0;
  for (const auto& d : drivers) {
    for (const auto& l : loads) {
      WireObservation obs;
      obs.driver_cell = d;
      obs.load_cell = l;
      obs.tree_id = tree_id++ % 2;
      obs.elmore = 15e-12;
      const double xw = testfix::true_x_intrinsic() +
                        testfix::true_x_drive(d) * lib.cell_variability(d) +
                        testfix::true_x_load(l) * lib.cell_variability(l);
      obs.wire_moments.mu = obs.elmore;
      obs.wire_moments.sigma = xw * obs.elmore;
      for (int lv = 0; lv < 7; ++lv) {
        obs.quantiles[static_cast<std::size_t>(lv)] =
            (1.0 + (lv - 3) * xw) * obs.elmore;
      }
      lib.add_wire_observation(std::move(obs));
    }
  }
  return lib;
}

GateNetlist make_design(const CellLibrary& lib, const TechParams& tech) {
  RandomNetlistSpec spec;
  spec.name = "serve_test";
  spec.target_cells = 60;
  spec.num_primary_inputs = 8;
  spec.target_depth = 8;
  GateNetlist nl = generate_random_mapped(spec, lib);
  finalize_design(nl, lib, tech);
  return nl;
}

class ServeTest : public ::testing::Test {
 protected:
  ServeTest()
      : charlib(make_serve_charlib()),
        lib(CellLibrary::standard()),
        cell_model(NSigmaCellModel::fit(charlib)),
        wire_model(NSigmaWireModel::fit(charlib, lib)),
        tech(TechParams::nominal28()),
        nl(make_design(lib, tech)),
        spef(generate_parasitics(nl, tech)) {}

  serve::ServiceRefs refs() const {
    serve::ServiceRefs r;
    r.netlist = &nl;
    r.parasitics = &spef;
    r.cell_library = &lib;
    r.cell_model = &cell_model;
    r.wire_model = &wire_model;
    r.tech = &tech;
    r.charlib = &charlib;
    return r;
  }

  CharLib charlib;
  CellLibrary lib;
  NSigmaCellModel cell_model;
  NSigmaWireModel wire_model;
  TechParams tech;
  GateNetlist nl;
  ParasiticDb spef;
};

/// Service + daemon + daemon thread, torn down on scope exit.
struct Harness {
  Harness(const serve::ServiceRefs& refs, const net::Endpoint& endpoint,
          serve::ServiceOptions sopt = {}, serve::Daemon::Options dopt = {})
      : service(refs, sopt),
        daemon(endpoint, service, dopt),
        thread([this] { daemon.run(); }) {}

  ~Harness() {
    daemon.request_stop();
    thread.join();
  }

  net::Endpoint client_endpoint() const {
    if (daemon.endpoint().kind == net::Endpoint::Kind::kTcp) {
      return net::Endpoint::tcp(daemon.port());
    }
    return daemon.endpoint();
  }

  serve::Service service;
  serve::Daemon daemon;
  std::thread thread;
};

serve::ResponseHead head_of(const std::string& response) {
  net::WireReader r(response);
  return serve::read_response_head(r);
}

// --- Basic serving ----------------------------------------------------------

TEST_F(ServeTest, PingArrivalCriticalOverUnixSocket) {
  Harness h(refs(), net::Endpoint::unix_path(unique_socket_path("basic")));
  net::Client client(h.client_endpoint());

  const std::string ping = client.call(serve::make_ping(7));
  net::WireReader pr(ping);
  const auto ph = serve::read_response_head(pr);
  ASSERT_EQ(ph.status, serve::Status::kOk) << ph.error;
  EXPECT_EQ(ph.request_id, 7u);
  EXPECT_EQ(pr.u32(), serve::kProtocolVersion);
  EXPECT_EQ(pr.str(), nl.name());
  EXPECT_EQ(pr.u32(), static_cast<std::uint32_t>(nl.num_cells()));
  EXPECT_EQ(pr.u32(), static_cast<std::uint32_t>(nl.num_nets()));
  EXPECT_EQ(pr.u32(), static_cast<std::uint32_t>(nl.primary_outputs().size()));
  EXPECT_TRUE(pr.at_end());

  // Arrival of the critical PO must be bit-equal to a local engine run.
  const StaEngine engine(cell_model, tech);
  const auto local = engine.run(nl, spef);
  const std::string po_name = nl.net(local.critical_net).name;
  const std::string arr = client.call(serve::make_arrival(8, po_name));
  net::WireReader ar(arr);
  const auto ah = serve::read_response_head(ar);
  ASSERT_EQ(ah.status, serve::Status::kOk) << ah.error;
  EXPECT_EQ(ar.u32(), static_cast<std::uint32_t>(local.critical_net));
  const auto& nt = local.nets[static_cast<std::size_t>(local.critical_net)];
  EXPECT_EQ(ar.u8(), nt.reachable ? 1 : 0);
  EXPECT_EQ(ar.f64(), nt.arrival[0]);
  EXPECT_EQ(ar.f64(), nt.arrival[1]);
  EXPECT_EQ(ar.f64(), nt.slew[0]);
  EXPECT_EQ(ar.f64(), nt.slew[1]);
  EXPECT_TRUE(ar.at_end());

  const std::string crit = client.call(serve::make_critical(9));
  net::WireReader cr(crit);
  const auto ch = serve::read_response_head(cr);
  ASSERT_EQ(ch.status, serve::Status::kOk) << ch.error;
  EXPECT_EQ(cr.f64(), local.max_arrival);
  EXPECT_EQ(cr.u32(), static_cast<std::uint32_t>(local.critical_net));
  EXPECT_EQ(cr.str(), po_name);
}

TEST_F(ServeTest, TcpLoopbackAndShutdownRequest) {
  Harness h(refs(), net::Endpoint::tcp(0));
  ASSERT_GT(h.daemon.port(), 0);
  net::Client client(h.client_endpoint());
  const auto ping = head_of(client.call(serve::make_ping(1)));
  EXPECT_EQ(ping.status, serve::Status::kOk) << ping.error;
  const auto bye = head_of(client.call(serve::make_shutdown(2)));
  EXPECT_EQ(bye.status, serve::Status::kOk) << bye.error;
  h.thread.join();  // kShutdown stops run(); join must not hang
  h.thread = std::thread([] {});
  EXPECT_EQ(h.daemon.requests_served(), 2u);
}

// --- Robustness: the daemon must survive hostile bytes ----------------------

TEST_F(ServeTest, BadRequestsGetStatusThreeAndDaemonSurvives) {
  Harness h(refs(), net::Endpoint::unix_path(unique_socket_path("bad")));
  net::Client client(h.client_endpoint());

  // Truncated header (shorter than type + id + deadline).
  auto r1 = head_of(client.call("zz"));
  EXPECT_EQ(r1.status, serve::Status::kBadRequest);

  // Unknown request type.
  net::WireWriter w;
  serve::write_request_header(w, {static_cast<serve::ReqType>(200), 5, 0.0});
  auto r2 = head_of(client.call(w.take()));
  EXPECT_EQ(r2.status, serve::Status::kBadRequest);
  EXPECT_EQ(r2.request_id, 5u);

  // Trailing junk after a well-formed body.
  std::string trailing = serve::make_ping(6);
  trailing += "junk";
  auto r3 = head_of(client.call(trailing));
  EXPECT_EQ(r3.status, serve::Status::kBadRequest);
  EXPECT_NE(r3.error.find("trailing"), std::string::npos) << r3.error;

  // Unknown and ambiguous-name-free invalid net names.
  auto r4 = head_of(client.call(serve::make_arrival(7, "no_such_net")));
  EXPECT_EQ(r4.status, serve::Status::kBadRequest);
  EXPECT_NE(r4.error.find("unknown net"), std::string::npos) << r4.error;

  // Out-of-range Monte-Carlo sample budget: same validation discipline as
  // the CLI flags (check_integer_range), surfaced as the error message.
  auto r5 = head_of(client.call(serve::make_netmc(8, 0, 1)));
  EXPECT_EQ(r5.status, serve::Status::kBadRequest);
  EXPECT_NE(r5.error.find("out of range"), std::string::npos) << r5.error;

  // Negative/garbage deadline.
  net::WireWriter wd;
  serve::write_request_header(wd, {serve::ReqType::kPing, 9, -1.0});
  auto r6 = head_of(client.call(wd.take()));
  EXPECT_EQ(r6.status, serve::Status::kBadRequest);

  // After all of that, the same connection still serves.
  auto ok = head_of(client.call(serve::make_ping(10)));
  EXPECT_EQ(ok.status, serve::Status::kOk) << ok.error;
}

TEST_F(ServeTest, OversizedFrameDropsConnectionNotDaemon) {
  serve::Daemon::Options dopt;
  dopt.net.max_frame_bytes = 256;
  Harness h(refs(), net::Endpoint::unix_path(unique_socket_path("big")), {},
            dopt);

  net::Client victim(h.client_endpoint());
  // Length prefix claims 1 MiB: the stream is untrustworthy, the daemon
  // must drop the connection without an answer (and without dying).
  net::WireWriter w;
  w.u32(1u << 20);
  w.str("some bytes that never complete the frame");
  const std::string bytes = w.take();
  victim.send_raw(bytes.data(), bytes.size());
  EXPECT_THROW(victim.recv_frame(), IoError);

  net::Client fresh(h.client_endpoint());
  const auto ok = head_of(fresh.call(serve::make_ping(1)));
  EXPECT_EQ(ok.status, serve::Status::kOk) << ok.error;
}

TEST_F(ServeTest, TruncatedFrameAtDisconnectIsAbsorbed) {
  Harness h(refs(), net::Endpoint::unix_path(unique_socket_path("trunc")));
  {
    net::Client quitter(h.client_endpoint());
    net::WireWriter w;
    w.u32(100);  // promises 100 bytes...
    w.str("only a few arrive");
    const std::string bytes = w.take();
    quitter.send_raw(bytes.data(), bytes.size());
    quitter.close();  // ...then disconnects mid-frame
  }
  net::Client fresh(h.client_endpoint());
  const auto ok = head_of(fresh.call(serve::make_ping(1)));
  EXPECT_EQ(ok.status, serve::Status::kOk) << ok.error;
}

// --- Deadlines --------------------------------------------------------------

TEST_F(ServeTest, ExpiredDeadlineReturnsCancelledAndPoolStaysUsable) {
  Harness h(refs(), net::Endpoint::unix_path(unique_socket_path("ddl")));
  net::Client client(h.client_endpoint());

  // A 1ns deadline is expired before the MC run can start.
  const auto dead =
      head_of(client.call(serve::make_netmc(1, 50'000, 42, 1e-9)));
  EXPECT_EQ(dead.status, serve::Status::kCancelled) << dead.error;

  // The pool survived the cancellation: real work still runs, and a fresh
  // MC request without a deadline completes.
  const std::string mc = client.call(serve::make_netmc(2, 64, 42));
  const auto ok = head_of(mc);
  EXPECT_EQ(ok.status, serve::Status::kOk) << ok.error;
  net::WireReader r(mc);
  (void)serve::read_response_head(r);
  EXPECT_EQ(r.u64(), 64u);  // samples_done
}

// --- Concurrency & determinism ----------------------------------------------

/// The fixed request sequence one client issues (its per-session stream).
std::vector<std::string> client_script(std::uint32_t k,
                                       const std::string& po_name) {
  return {
      serve::make_ping(100 + k),
      serve::make_arrival(200 + k, po_name),
      serve::make_critical(300 + k),
      serve::make_ssta_moments(400 + k, po_name),
      serve::make_netmc(500 + k, 96, 7 + k),
      serve::make_lint(600 + k),
  };
}

TEST_F(ServeTest, FourConcurrentClientsByteIdenticalAtOneAndFourThreads) {
  const StaEngine probe(cell_model, tech);
  const auto base = probe.run(nl, spef);
  const std::string po_name = nl.net(base.critical_net).name;

  // responses[client][step] per run; both runs must agree byte for byte.
  std::vector<std::vector<std::vector<std::string>>> runs;
  for (const unsigned lanes : {1u, 4u}) {
    ThreadPool pool(lanes - 1);
    serve::ServiceOptions sopt;
    sopt.sta.exec.pool = &pool;
    sopt.sta.exec.threads = lanes;
    sopt.sta.exec.grain = 1;  // narrow levels on the pool too
    sopt.sta.min_parallel_cells = lanes > 1 ? 1 : 1u << 30;
    serve::Daemon::Options dopt;
    dopt.pool = &pool;
    Harness h(refs(), net::Endpoint::unix_path(unique_socket_path("det")),
              sopt, dopt);

    std::vector<std::vector<std::string>> responses(4);
    std::vector<std::thread> clients;
    for (std::uint32_t k = 0; k < 4; ++k) {
      clients.emplace_back([&, k] {
        net::Client c(h.client_endpoint());
        for (const std::string& req : client_script(k, po_name)) {
          responses[k].push_back(c.call(req));
        }
      });
    }
    for (auto& t : clients) t.join();
    runs.push_back(std::move(responses));
  }

  ASSERT_EQ(runs.size(), 2u);
  for (std::size_t k = 0; k < 4; ++k) {
    ASSERT_EQ(runs[0][k].size(), runs[1][k].size());
    for (std::size_t s = 0; s < runs[0][k].size(); ++s) {
      const auto status = head_of(runs[0][k][s]).status;
      EXPECT_EQ(status, serve::Status::kOk) << head_of(runs[0][k][s]).error;
      EXPECT_EQ(runs[0][k][s], runs[1][k][s])
          << "client " << k << " step " << s
          << " diverged between 1 and 4 lanes";
    }
  }
}

TEST_F(ServeTest, SstaBaselineRunsOnFirstRequestAndRetriesAfterAFailure) {
  // The SSTA baseline is computed by the first kSstaMoments request. A run
  // that throws caches nothing: the next request runs it again and answers
  // with the moments of an offline run.
  serve::Service svc(refs());
  const std::string po_name = nl.net(svc.baseline().critical_net).name;
  install_fault_plan(FaultPlan::parse("ssta.level@2=throw"));
  const auto failed =
      head_of(svc.handle(1, 0, serve::make_ssta_moments(1, po_name)).response);
  clear_fault_plan();
  EXPECT_EQ(failed.status, serve::Status::kInternal) << failed.error;

  const std::string resp =
      svc.handle(1, 1, serve::make_ssta_moments(2, po_name)).response;
  net::WireReader r(resp);
  const auto head = serve::read_response_head(r);
  ASSERT_EQ(head.status, serve::Status::kOk) << head.error;
  const AnalyticSsta::Result offline =
      AnalyticSsta(cell_model, wire_model, tech).run(nl, spef);
  const auto net = static_cast<std::size_t>(nl.find_net(po_name));
  EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(net));
  for (const auto& es : offline.nets[net]) {
    EXPECT_EQ(r.u8(), es.reachable ? 1 : 0);
    EXPECT_EQ(r.f64(), es.moments.mu);
    EXPECT_EQ(r.f64(), es.moments.sigma);
    EXPECT_EQ(r.f64(), es.moments.gamma);
    EXPECT_EQ(r.f64(), es.moments.kappa);
  }
  EXPECT_TRUE(r.at_end());
}

// --- Edit sessions ----------------------------------------------------------

TEST_F(ServeTest, EditSessionMatchesOfflineIncrementalSta) {
  // The same single-client session at 1 and 4 lanes, checked against an
  // offline IncrementalSta replaying identical edits. Pin-cap-only
  // parasitics (empty db): rewired sinks have no pre-extracted RC pin, so
  // extracted trees cannot follow a rewire (same convention as
  // test_incremental's rewire coverage).
  const ParasiticDb no_spef;
  const int retype_cell = 0;
  const CellType& retype_to =
      lib.by_func(nl.cell(retype_cell).type->func(), 8);
  const int rewire_cell = static_cast<int>(nl.num_cells()) / 2;
  const int rewire_net = nl.primary_inputs()[0];  // PI: provably acyclic

  GateNetlist offline = nl;
  IncrementalSta inc(cell_model, tech);
  inc.bind(offline, no_spef);
  offline.set_cell_type(retype_cell, retype_to);
  offline.rewire_fanin(rewire_cell, 0, rewire_net);
  const StaEngine::Result& expect = inc.update();

  std::vector<std::string> prev;
  for (const unsigned lanes : {1u, 4u}) {
    ThreadPool pool(lanes - 1);
    serve::ServiceOptions sopt;
    sopt.sta.exec.pool = &pool;
    sopt.sta.exec.threads = lanes;
    sopt.sta.exec.grain = 1;  // narrow levels on the pool too
    sopt.sta.min_parallel_cells = lanes > 1 ? 1 : 1u << 30;
    serve::Daemon::Options dopt;
    dopt.pool = &pool;
    serve::ServiceRefs r = refs();
    r.parasitics = &no_spef;
    Harness h(r, net::Endpoint::unix_path(unique_socket_path("sess")), sopt,
              dopt);
    net::Client client(h.client_endpoint());

    const std::string open = client.call(serve::make_session_open(1));
    net::WireReader orr(open);
    const auto oh = serve::read_response_head(orr);
    ASSERT_EQ(oh.status, serve::Status::kOk) << oh.error;
    const std::uint32_t session = orr.u32();

    serve::SessionEditRequest edit(2, session);
    edit.set_cell_type(static_cast<std::uint32_t>(retype_cell),
                       retype_to.name());
    edit.rewire_fanin(static_cast<std::uint32_t>(rewire_cell), 0,
                      static_cast<std::uint32_t>(rewire_net));
    const std::string edited = client.call(edit.take());
    net::WireReader er(edited);
    const auto eh = serve::read_response_head(er);
    ASSERT_EQ(eh.status, serve::Status::kOk) << eh.error;
    EXPECT_EQ(er.u64(), 2u);  // journal edits consumed
    er.u64();                 // nets_reannotated
    er.u64();                 // cells_recomputed
    er.u64();                 // cells_converged
    EXPECT_EQ(er.u8(), 0u);   // incremental path, not a full rerun
    EXPECT_EQ(er.f64(), expect.max_arrival);
    EXPECT_EQ(er.u32(), static_cast<std::uint32_t>(expect.critical_net));

    // Query a few nets and require bit-equality with the offline result.
    std::vector<std::string> responses{open, edited};
    const int probe_nets[] = {expect.critical_net,
                              nl.cell(rewire_cell).out_net,
                              nl.cell(retype_cell).out_net};
    std::uint32_t id = 3;
    for (const int net : probe_nets) {
      const std::string q = client.call(
          serve::make_session_query(id++, session, nl.net(net).name));
      net::WireReader qr(q);
      const auto qh = serve::read_response_head(qr);
      ASSERT_EQ(qh.status, serve::Status::kOk) << qh.error;
      EXPECT_EQ(qr.u32(), static_cast<std::uint32_t>(net));
      const auto& nt = expect.nets[static_cast<std::size_t>(net)];
      EXPECT_EQ(qr.u8(), nt.reachable ? 1 : 0);
      EXPECT_EQ(qr.f64(), nt.arrival[0]) << "net " << net;
      EXPECT_EQ(qr.f64(), nt.arrival[1]) << "net " << net;
      EXPECT_EQ(qr.f64(), nt.slew[0]) << "net " << net;
      EXPECT_EQ(qr.f64(), nt.slew[1]) << "net " << net;
      EXPECT_EQ(qr.f64(), expect.max_arrival);
      responses.push_back(q);
    }

    const auto closed =
        head_of(client.call(serve::make_session_close(99, session)));
    EXPECT_EQ(closed.status, serve::Status::kOk) << closed.error;
    EXPECT_EQ(h.service.open_sessions(), 0u);

    if (prev.empty()) {
      prev = std::move(responses);
    } else {
      ASSERT_EQ(prev.size(), responses.size());
      for (std::size_t i = 0; i < prev.size(); ++i) {
        EXPECT_EQ(prev[i], responses[i])
            << "session response " << i << " diverged between lane counts";
      }
    }
  }
}

TEST_F(ServeTest, SessionValidationAndOwnership) {
  Harness h(refs(), net::Endpoint::unix_path(unique_socket_path("own")));
  net::Client alice(h.client_endpoint());
  net::Client bob(h.client_endpoint());

  const std::string open = alice.call(serve::make_session_open(1));
  net::WireReader orr(open);
  ASSERT_EQ(serve::read_response_head(orr).status, serve::Status::kOk);
  const std::uint32_t session = orr.u32();

  // Bob cannot touch Alice's session.
  const auto stolen =
      head_of(bob.call(serve::make_session_query(2, session, "x")));
  EXPECT_EQ(stolen.status, serve::Status::kBadRequest);
  EXPECT_NE(stolen.error.find("owned by another"), std::string::npos)
      << stolen.error;

  // Out-of-range edit targets are rejected with the shared range message
  // and leave the session untouched.
  serve::SessionEditRequest bad(3, session);
  bad.rewire_fanin(1u << 30, 0, 0);
  const auto rejected = head_of(alice.call(bad.take()));
  EXPECT_EQ(rejected.status, serve::Status::kBadRequest);
  EXPECT_NE(rejected.error.find("out of range"), std::string::npos)
      << rejected.error;

  // Unknown cell type name.
  serve::SessionEditRequest badtype(4, session);
  badtype.set_cell_type(0, "FLUXCAPx9");
  const auto rejected2 = head_of(alice.call(badtype.take()));
  EXPECT_EQ(rejected2.status, serve::Status::kBadRequest);
  EXPECT_NE(rejected2.error.find("unknown cell type"), std::string::npos)
      << rejected2.error;

  // Unknown session id.
  const auto nosess =
      head_of(alice.call(serve::make_session_query(5, 0xFFFF, "x")));
  EXPECT_EQ(nosess.status, serve::Status::kBadRequest);

  // Alice disconnecting reaps her session.
  alice.close();
  for (int i = 0; i < 200 && h.service.open_sessions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(h.service.open_sessions(), 0u);
}

// --- Untimeable rewires -----------------------------------------------------

struct EditReply {
  serve::ResponseHead head;
  std::uint64_t edits = 0;       ///< journal records the update consumed
  std::uint64_t generation = 0;  ///< session netlist generation afterwards
};

EditReply send_edit(net::Client& client, serve::SessionEditRequest& edit) {
  const std::string response = client.call(edit.take());
  net::WireReader r(response);
  EditReply out;
  out.head = serve::read_response_head(r);
  if (out.head.status != serve::Status::kOk) return out;
  out.edits = r.u64();
  r.u64();  // nets_reannotated
  r.u64();  // cells_recomputed
  r.u64();  // cells_converged
  r.u8();   // full_rerun
  r.f64();  // max_arrival
  r.u32();  // critical_net
  r.u8();   // critical_edge
  out.generation = r.u64();
  return out;
}

class ServeRewireTest : public ServeTest {
 protected:
  /// Sends a rewire of (cell, pin) onto `net` that cannot be timed and
  /// expects kBadRequest naming `why`. A retype sent next must succeed as
  /// if the rewire had never been sent: the netlist generation advanced
  /// by the retype alone, and every PO arrival is bit-equal to an offline
  /// IncrementalSta that only saw the retype.
  void expect_rewire_rejected(const ParasiticDb& parasitics, int cell, int pin,
                              int net, const std::string& why) {
    serve::ServiceRefs r = refs();
    r.parasitics = &parasitics;
    Harness h(r, net::Endpoint::unix_path(unique_socket_path("rewire")));
    net::Client client(h.client_endpoint());
    const std::string open = client.call(serve::make_session_open(1));
    net::WireReader orr(open);
    ASSERT_EQ(serve::read_response_head(orr).status, serve::Status::kOk);
    const std::uint32_t session = orr.u32();

    serve::SessionEditRequest rewire(2, session);
    rewire.rewire_fanin(static_cast<std::uint32_t>(cell),
                        static_cast<std::uint32_t>(pin),
                        static_cast<std::uint32_t>(net));
    const EditReply rejected = send_edit(client, rewire);
    EXPECT_EQ(rejected.head.status, serve::Status::kBadRequest)
        << rejected.head.error;
    EXPECT_NE(rejected.head.error.find(why), std::string::npos)
        << rejected.head.error;

    const int retype_cell = 0;
    const CellType& retype_to =
        lib.by_func(nl.cell(retype_cell).type->func(), 8);
    serve::SessionEditRequest retype(3, session);
    retype.set_cell_type(static_cast<std::uint32_t>(retype_cell),
                         retype_to.name());
    const EditReply ok = send_edit(client, retype);
    ASSERT_EQ(ok.head.status, serve::Status::kOk) << ok.head.error;
    EXPECT_EQ(ok.edits, 1u);
    EXPECT_EQ(ok.generation, nl.generation() + 1);

    GateNetlist offline = nl;
    IncrementalSta inc(cell_model, tech);
    inc.bind(offline, parasitics);
    offline.set_cell_type(retype_cell, retype_to);
    const StaEngine::Result& expect = inc.update();
    std::uint32_t id = 4;
    for (const int po : nl.primary_outputs()) {
      const std::string q = client.call(
          serve::make_session_query(id++, session, nl.net(po).name));
      net::WireReader qr(q);
      const auto qh = serve::read_response_head(qr);
      ASSERT_EQ(qh.status, serve::Status::kOk) << qh.error;
      EXPECT_EQ(qr.u32(), static_cast<std::uint32_t>(po));
      const auto& nt = expect.nets[static_cast<std::size_t>(po)];
      EXPECT_EQ(qr.u8(), nt.reachable ? 1 : 0);
      EXPECT_EQ(qr.f64(), nt.arrival[0]) << "PO " << po;
      EXPECT_EQ(qr.f64(), nt.arrival[1]) << "PO " << po;
      EXPECT_EQ(qr.f64(), nt.slew[0]) << "PO " << po;
      EXPECT_EQ(qr.f64(), nt.slew[1]) << "PO " << po;
      EXPECT_EQ(qr.f64(), expect.max_arrival);
    }
  }
};

TEST_F(ServeRewireTest, RewireOntoTreeWithoutTheSinkPinIsRejected) {
  // A primary input (so no cycle) whose extracted tree has no node for
  // the rewired pin: annotation could not place the pin cap.
  const int cell = static_cast<int>(nl.num_cells()) / 2;
  const std::string pin_name = sink_pin_name(nl.cell(cell), 0);
  int target = -1;
  for (const int pi : nl.primary_inputs()) {
    const RcTree* tree = spef.find(nl.net(pi).name);
    if (pi == nl.cell(cell).fanin_nets[0] || tree == nullptr) continue;
    bool has_pin = false;
    for (const auto& s : tree->sinks()) has_pin = has_pin || s.pin == pin_name;
    if (!has_pin) {
      target = pi;
      break;
    }
  }
  ASSERT_GE(target, 0);
  expect_rewire_rejected(spef, cell, 0, target, "has no sink");
}

TEST_F(ServeRewireTest, RewireClosingACombinationalLoopIsRejected) {
  // Pin-cap-only parasitics, so only the cycle check can refuse: feed a
  // cell's first pin from the output of one of its own fanout cells.
  const ParasiticDb no_spef;
  int cell = -1, loop_net = -1;
  for (std::size_t c = 0; c < nl.num_cells() && cell < 0; ++c) {
    for (const auto& s : nl.net(nl.cell(static_cast<int>(c)).out_net).sinks) {
      if (s.cell != static_cast<int>(c)) {
        cell = static_cast<int>(c);
        loop_net = nl.cell(s.cell).out_net;
        break;
      }
    }
  }
  ASSERT_GE(cell, 0);
  expect_rewire_rejected(no_spef, cell, 0, loop_net, "combinational cycle");
}

// --- Duplicate net names ----------------------------------------------------

TEST_F(ServeTest, DuplicateNetNameQueriesAreRejected) {
  GateNetlist dup("dup_design");
  const int a = dup.add_primary_input("a");
  const int b = dup.add_primary_input("b");
  const int y_cell = dup.add_cell("u1", lib.by_name("NAND2x1"), {a, b}, "y");
  dup.mark_primary_output(dup.cell(y_cell).out_net);
  dup.add_net("a");  // shadowed duplicate: find_net("a") keeps resolving
                     // to the primary input
  ASSERT_TRUE(dup.net_name_ambiguous("a"));
  const ParasiticDb dup_spef = generate_parasitics(dup, tech);

  serve::ServiceRefs r = refs();
  r.netlist = &dup;
  r.parasitics = &dup_spef;
  Harness h(r, net::Endpoint::unix_path(unique_socket_path("dup")));
  net::Client client(h.client_endpoint());

  const auto amb = head_of(client.call(serve::make_arrival(1, "a")));
  EXPECT_EQ(amb.status, serve::Status::kBadRequest);
  EXPECT_NE(amb.error.find("more than one net"), std::string::npos)
      << amb.error;

  // Unambiguous names still resolve.
  const auto ok = head_of(client.call(serve::make_arrival(2, "y")));
  EXPECT_EQ(ok.status, serve::Status::kOk) << ok.error;

  // And the lint request surfaces the net.duplicate-name diagnostic.
  const std::string lint = client.call(serve::make_lint(3));
  net::WireReader lr(lint);
  const auto lh = serve::read_response_head(lr);
  ASSERT_EQ(lh.status, serve::Status::kOk) << lh.error;
  const std::uint32_t errors = lr.u32();
  EXPECT_GE(errors, 1u);
  lr.u32();  // warnings
  lr.u32();  // rules_run
  EXPECT_NE(lr.str().find("net.duplicate-name"), std::string::npos);
}

// --- argparse rejection matrix ----------------------------------------------

TEST(Argparse, IntegerTextMatrix) {
  long long v = 0;
  EXPECT_TRUE(parse_integer_text("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_integer_text("-5", &v));
  EXPECT_EQ(v, -5);
  EXPECT_TRUE(parse_integer_text("+7", &v));
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(parse_integer_text("", &v));
  EXPECT_FALSE(parse_integer_text("foo", &v));
  EXPECT_FALSE(parse_integer_text("12x", &v));     // trailing junk
  EXPECT_FALSE(parse_integer_text(" 12", &v));     // leading space
  EXPECT_FALSE(parse_integer_text("1 2", &v));     // embedded space
  EXPECT_FALSE(parse_integer_text("0x10", &v));    // no hex
  EXPECT_FALSE(parse_integer_text("1.5", &v));     // no floats
  EXPECT_FALSE(parse_integer_text("99999999999999999999", &v));  // overflow
}

TEST(Argparse, RealTextMatrix) {
  double d = 0.0;
  EXPECT_TRUE(parse_real_text("1.5", &d));
  EXPECT_EQ(d, 1.5);
  EXPECT_TRUE(parse_real_text("1e-3", &d));
  EXPECT_EQ(d, 1e-3);
  EXPECT_TRUE(parse_real_text("-2", &d));
  EXPECT_FALSE(parse_real_text("", &d));
  EXPECT_FALSE(parse_real_text("abc", &d));
  EXPECT_FALSE(parse_real_text("1.5s", &d));
  EXPECT_FALSE(parse_real_text("nan", &d));
  EXPECT_FALSE(parse_real_text("inf", &d));
}

TEST(Argparse, RequireThrowsUsageErrorWithContext) {
  EXPECT_EQ(require_integer("--netmc", "500", 1, 1000), 500);
  EXPECT_THROW(require_integer("--netmc", "junk", 1, 1000), UsageError);
  EXPECT_THROW(require_integer("--netmc", "-5", 1, 1000), UsageError);
  EXPECT_THROW(require_integer("--netmc", "1001", 1, 1000), UsageError);
  EXPECT_THROW(require_unsigned("--threads", "0", 1, 64), UsageError);
  EXPECT_THROW(require_real("--deadline", "0", 1e-9, 1e9), UsageError);
  try {
    require_integer("--netmc", "10x", 1, 1000);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--netmc"), std::string::npos) << what;
    EXPECT_NE(what.find("10x"), std::string::npos) << what;
  }
}

TEST(Argparse, EnvIntegerWarnsAndDefaultsOnGarbage) {
  ::setenv("NSDC_TEST_ENV", "16", 1);
  EXPECT_EQ(env_integer_or("NSDC_TEST_ENV", 4, 1, 64), 16);
  ::setenv("NSDC_TEST_ENV", "junk", 1);
  EXPECT_EQ(env_integer_or("NSDC_TEST_ENV", 4, 1, 64), 4);
  ::setenv("NSDC_TEST_ENV", "9999", 1);
  EXPECT_EQ(env_integer_or("NSDC_TEST_ENV", 4, 1, 64), 4);
  ::unsetenv("NSDC_TEST_ENV");
  EXPECT_EQ(env_integer_or("NSDC_TEST_ENV", 4, 1, 64), 4);
}

// --- CLI exit codes ---------------------------------------------------------

int run_tool(const std::string& cmd) {
  const int rc = std::system((cmd + " >/dev/null 2>&1").c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(CliValidation, InvalidArgumentValuesExitThree) {
  const std::string dir = NSDC_TOOL_DIR;
  EXPECT_EQ(run_tool(dir + "/flow_smoke --threads foo"), 3);
  EXPECT_EQ(run_tool(dir + "/flow_smoke --netmc -5"), 3);
  EXPECT_EQ(run_tool(dir + "/flow_smoke --deadline never"), 3);
  EXPECT_EQ(run_tool(dir + "/nsdc_lint --threads= junk"), 3);
  EXPECT_EQ(run_tool(dir + "/nsdc_lint --random 0"), 3);
  EXPECT_EQ(run_tool(dir + "/nsdc_analyze --verify-samples -1"), 3);
  EXPECT_EQ(run_tool(dir + "/nsdc_analyze --random 10 --zmax abc"), 3);
  // Unknown flags keep the distinct usage exit 2 in flow_smoke.
  EXPECT_EQ(run_tool(dir + "/flow_smoke --no-such-flag"), 2);
  // A --spef file that cannot be opened is a usage error too.
  const std::string c17 = std::string(NSDC_SOURCE_DIR) + "/data/c17.bench";
  const std::string missing = ::testing::TempDir() + "nsdc_no_such.spef";
  std::remove(missing.c_str());
  for (const char* tool : {"/nsdc_lint", "/nsdc_analyze"}) {
    EXPECT_EQ(run_tool(dir + tool + " --bench " + c17 + " --spef " + missing),
              3)
        << tool;
  }
}

TEST(CliValidation, MalformedSpefLineIsReportedNotFatal) {
  const std::string c17 = std::string(NSDC_SOURCE_DIR) + "/data/c17.bench";
  const std::string spef = ::testing::TempDir() + "nsdc_bad_node.spef";
  std::ofstream(spef) << "*SPEF nsdc-lite\n*DESIGN c17\n*D_NET 22\n*NODES\n"
                         "0 -1 0 1e-15\n1 0 bad 1e-15\n*SINKS\n*END\n";
  for (const char* tool : {"/nsdc_lint", "/nsdc_analyze"}) {
    const std::string cmd = std::string(NSDC_TOOL_DIR) + tool + " --bench " +
                            c17 + " --spef " + spef + " 2>/dev/null";
    std::FILE* pipe = ::popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr) << tool;
    std::string report;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
      report.append(buf, got);
    }
    const int rc = ::pclose(pipe);
    ASSERT_TRUE(WIFEXITED(rc)) << tool;
    EXPECT_LT(WEXITSTATUS(rc), 3) << tool;
    EXPECT_NE(report.find("parse.spef"), std::string::npos) << tool;
  }
  std::remove(spef.c_str());
}

TEST(CliValidation, DesignLoaderFailuresKeepTheirExitCodes) {
  const std::string c17 = std::string(NSDC_SOURCE_DIR) + "/data/c17.bench";
  const std::string charlib =
      std::string(NSDC_SOURCE_DIR) + "/nsdc_charlib_cache.txt";
  const std::string missing = ::testing::TempDir() + "nsdc_no_such_file";
  std::remove(missing.c_str());
  for (const char* name : {"/nsdc_lint", "/nsdc_analyze"}) {
    const std::string tool = std::string(NSDC_TOOL_DIR) + name;
    EXPECT_EQ(run_tool(tool), 3) << name << ": no design source";
    EXPECT_EQ(run_tool(tool + " --bench " + c17 + " --iscas C432"), 3)
        << name << ": two design sources";
    // A missing netlist file is a typed I/O error; a missing --spef or
    // --charlib file is a usage error.
    EXPECT_EQ(run_tool(tool + " --bench " + missing), 12) << name;
    EXPECT_EQ(run_tool(tool + " --verilog " + missing), 12) << name;
    EXPECT_EQ(run_tool(tool + " --iscas C9999"), 3) << name;
    EXPECT_EQ(run_tool(tool + " --bench " + c17 + " --charlib " + missing), 3)
        << name;
  }
  EXPECT_EQ(run_tool(std::string(NSDC_TOOL_DIR) + "/nsdc_analyze --bench " +
                     c17 + " --charlib " + charlib + " --synthetic-charlib"),
            3);
}

TEST(CliValidation, SpefDirectoryCannotBeOpened) {
  const std::string c17 = std::string(NSDC_SOURCE_DIR) + "/data/c17.bench";
  for (const char* name : {"/nsdc_lint", "/nsdc_analyze"}) {
    EXPECT_EQ(run_tool(std::string(NSDC_TOOL_DIR) + name + " --bench " + c17 +
                       " --spef " + ::testing::TempDir()),
              3)
        << name;
  }
}

// --- CLI goldens ------------------------------------------------------------
// Each run's stdout must equal its golden under data/ at --threads 1 and
// --threads 4, and its exit status the pinned one. NSDC_REGEN_GOLDEN=1
// rewrites the goldens from the 1-thread run (the test then reports
// SKIPPED; rerun without the variable).

/// Runs `cmd` with stderr discarded; returns its exit status and stdout.
std::pair<int, std::string> run_capture(const std::string& cmd) {
  std::FILE* pipe = ::popen((cmd + " 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  std::string out;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, got);
  const int rc = ::pclose(pipe);
  return {WIFEXITED(rc) ? WEXITSTATUS(rc) : -1, out};
}

struct CliRun {
  std::string golden;  ///< file name under data/
  std::string tool;
  std::string args;
  int exit_code;
  /// Prepend `--bench` of a test-written .bench with an undefined signal
  /// and an unknown function, whose parse.bench diagnostics merge into
  /// the report.
  bool malformed_bench = false;
};

/// Names the run by its golden in test listings (the default prints the
/// struct's bytes, pointers included).
void PrintTo(const CliRun& run, std::ostream* os) { *os << run.golden; }

class CliGolden : public ::testing::TestWithParam<CliRun> {};

TEST_P(CliGolden, StdoutAndExitCodeMatchAtOneAndFourThreads) {
  const CliRun& run = GetParam();
  const std::string golden = std::string(NSDC_SOURCE_DIR) + "/data/" +
                             run.golden;
  // A per-process directory: parallel runs do not share the file, and the
  // design name (the file stem) stays fixed.
  const std::string dir =
      ::testing::TempDir() + "nsdc_cli_" + std::to_string(::getpid());
  std::string args = run.args;
  if (run.malformed_bench) {
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/malformed.bench")
        << "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nx = NAND(a, q)\n"
           "z = FROB(x, b)\ny = AND(a, b)\n";
    args = "--bench " + dir + "/malformed.bench " + args;
  }
  for (const char* threads : {"1", "4"}) {
    const auto [rc, out] =
        run_capture(std::string(NSDC_TOOL_DIR) + "/" + run.tool +
                    " --threads " + threads + " " + args);
    if (std::getenv("NSDC_REGEN_GOLDEN") != nullptr) {
      std::ofstream(golden, std::ios::binary) << out;
      std::filesystem::remove_all(dir);
      GTEST_SKIP() << "regenerated " << golden;
    }
    EXPECT_EQ(rc, run.exit_code) << threads << " thread(s)";
    std::ifstream in(golden, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file: " << golden;
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(out, want.str()) << threads << " thread(s): " << run.tool
                               << " output drifted from " << golden;
  }
  std::filesystem::remove_all(dir);
}

const std::string kC432Args = "--iscas C432 --gen-spef --charlib " +
                              std::string(NSDC_SOURCE_DIR) +
                              "/nsdc_charlib_cache.txt";
const std::string kVerifyArgs = kC432Args + " --verify --mc-samples 200";

INSTANTIATE_TEST_SUITE_P(
    Runs, CliGolden,
    ::testing::Values(
        CliRun{"cli_lint_c432.txt", "nsdc_lint", kC432Args, 1},
        CliRun{"cli_lint_c432.json", "nsdc_lint", kC432Args + " --json", 1},
        CliRun{"cli_analyze_c432.txt", "nsdc_analyze", kVerifyArgs, 1},
        CliRun{"cli_analyze_c432.json", "nsdc_analyze",
               kVerifyArgs + " --json", 1},
        CliRun{"cli_analyze_c17_synthetic.txt", "nsdc_analyze",
               "--bench " + std::string(NSDC_SOURCE_DIR) +
                   "/data/c17.bench --gen-spef --synthetic-charlib",
               0},
        CliRun{"cli_lint_malformed.txt", "nsdc_lint", "", 2, true},
        CliRun{"cli_lint_malformed.json", "nsdc_lint", "--json", 2, true},
        CliRun{"cli_analyze_malformed.txt", "nsdc_analyze", "", 2, true},
        CliRun{"cli_analyze_malformed.json", "nsdc_analyze", "--json", 2,
               true},
        CliRun{"cli_lint_rules.txt", "nsdc_lint", "--list-rules", 0},
        CliRun{"cli_analyze_passes.txt", "nsdc_analyze", "--list-passes", 0}),
    [](const ::testing::TestParamInfo<CliRun>& run) {
      std::string name = run.param.golden.substr(4);  // drop "cli_"
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

// --- Graceful shutdown ------------------------------------------------------

TEST_F(ServeTest, DrainStopFlagFinishesQueuedRequestsThenExits) {
  // The SIGTERM path minus the signal: the handler's only action is a
  // store into Options::drain_stop, so flipping the flag here exercises
  // the identical drain — queued requests all answered, then the daemon's
  // run() returns on its own.
  std::atomic<bool> drain{false};
  serve::Daemon::Options dopt;
  dopt.drain_stop = &drain;
  Harness h(refs(), net::Endpoint::unix_path(unique_socket_path("drain")),
            {}, dopt);
  net::Client client(h.client_endpoint());
  // One synchronous round trip first: the connection is accepted and
  // serving before the drain flag can stop the accept loop.
  EXPECT_EQ(head_of(client.call(serve::make_ping(0))).status,
            serve::Status::kOk);
  constexpr int kQueued = 16;
  for (int i = 1; i <= kQueued; ++i) {
    client.send_frame(serve::make_critical(static_cast<std::uint64_t>(i)));
  }
  drain.store(true, std::memory_order_release);
  // Every request received before the drain is answered. (The daemon's
  // sockets outlive run() — they close with the Daemon object — so read
  // the exact count rather than until EOF.)
  std::string resp;
  for (int i = 0; i < kQueued; ++i) {
    ASSERT_TRUE(client.try_recv_frame(&resp)) << "response " << i;
    const auto head = head_of(resp);
    EXPECT_EQ(head.status, serve::Status::kOk) << head.error;
  }
  h.thread.join();  // run() returned without request_stop()
  h.thread = std::thread([] {});
  EXPECT_EQ(h.daemon.requests_served(),
            static_cast<std::uint64_t>(kQueued) + 1u);
}

TEST_F(ServeTest, SigtermUnderLoadDrainsAndExitsZero) {
  const std::string sock = unique_socket_path("sigterm");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const std::string tool = std::string(NSDC_TOOL_DIR) + "/nsdc_serve";
    if (std::freopen("/dev/null", "w", stdout) == nullptr) ::_exit(126);
    ::execl(tool.c_str(), tool.c_str(), "--synthetic", "--cells", "40",
            "--endpoint", ("unix:" + sock).c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  // The daemon characterizes its models before binding; bounded
  // connect-retry instead of a sleep.
  RetryPolicy rp;
  rp.max_retries = 200;
  rp.base_delay_s = 0.05;
  rp.multiplier = 1.0;
  rp.max_delay_s = 0.05;
  net::Client client(net::Endpoint::unix_path(sock), rp);
  EXPECT_EQ(head_of(client.call(serve::make_ping(0))).status,
            serve::Status::kOk);
  constexpr int kQueued = 8;
  for (int i = 1; i <= kQueued; ++i) {
    client.send_frame(serve::make_critical(static_cast<std::uint64_t>(i)));
  }
  // send_frame is a blocking sendall: all 8 requests sit in the daemon's
  // socket buffer before the signal lands.
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int answered = 0;
  std::string resp;
  while (client.try_recv_frame(&resp)) {
    const auto head = head_of(resp);
    EXPECT_EQ(head.status, serve::Status::kOk) << head.error;
    ++answered;
  }
  EXPECT_EQ(answered, kQueued);  // drained, not dropped
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace nsdc
