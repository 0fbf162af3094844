#include "dist/coordinator.hpp"

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <optional>

#include "net/server.hpp"
#include "sta/engine.hpp"
#include "util/errors.hpp"
#include "util/faultinject.hpp"

namespace nsdc::dist {

namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

double seconds_since(TimePoint from, TimePoint now) {
  return std::chrono::duration<double>(now - from).count();
}

/// mkdir -p: each missing component is created 0755; an existing
/// directory is fine, any other failure throws IoError.
void make_dirs(const std::string& path) {
  std::string partial;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') continue;
    partial = path.substr(0, i == path.size() ? i : i + 1);
    if (partial.empty() || partial == "/") continue;
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      throw IoError("dist: cannot create workdir " + partial);
    }
  }
}

/// Cuts `bytes` off the end of `path` (the dist.shard.checkpoint
/// truncate action — a torn shard file).
void truncate_tail(const std::string& path, std::uint64_t bytes) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return;
  const auto size = static_cast<std::uint64_t>(st.st_size);
  const auto keep = bytes >= size ? 0 : size - bytes;
  (void)::truncate(path.c_str(), static_cast<off_t>(keep));
}

struct WorkerProc {
  std::uint64_t id = 0;
  pid_t pid = -1;
  int conn = -1;         ///< control connection; -1 until Hello
  bool alive = true;     ///< until reaped via waitpid
  bool doomed = false;   ///< being reclaimed; never assign to it again
  std::int64_t shard = -1;
  TimePoint assigned_at{};
  TimePoint last_beat{};
};

struct ShardSlot {
  ShardStatus st;
  std::uint64_t load_attempts = 0;  ///< dist.shard.checkpoint index minor
  std::int64_t worker = -1;         ///< worker id while running
  TimePoint not_before{};           ///< backoff gate while waiting retry
  std::string checkpoint_path;      ///< MC mode
  std::vector<PoTime> po_times;     ///< STA mode result
};

class Coordinator {
 public:
  explicit Coordinator(const DistOptions& opt) : opt_(opt) {}

  DistResult run();

 private:
  // --- supervision steps (one poll pass each) ---------------------------
  void handle_frame(int conn, const std::string& payload);
  void handle_closed(int conn);
  void reap_children();
  void run_watchdogs();
  void assign_work();
  void respawn_workers();
  void teardown();

  void spawn_worker();
  void reclaim(WorkerProc& w, const std::string& reason);
  void fail_shard(ShardSlot& slot, const std::string& detail);
  bool validate_and_absorb(ShardSlot& slot);
  void merge();

  std::size_t unfinished_shards() const;
  std::size_t usable_workers() const;
  WorkerProc* worker_by_id(std::uint64_t id);
  void diag(Severity sev, const std::string& rule, const std::string& object,
            const std::string& message);
  void trace(const char* fmt, ...);

  const DistOptions& opt_;
  DistResult result_;
  std::vector<ShardSlot> shards_;
  std::map<std::uint64_t, WorkerProc> workers_;  ///< by spawn id
  std::map<int, std::uint64_t> conn_worker_;     ///< conn -> worker id
  std::optional<net::ServerLoop> loop_;
  std::string endpoint_spec_;
  std::size_t spawn_budget_ = 0;
  std::uint64_t next_worker_ = 0;  ///< spawn sequence / dist.worker.spawn
  // MC merge state: absorbed blocks + the header they must all match.
  std::optional<McCheckpointHeader> header_;
  std::vector<McBlockState> pool_;
  // STA merge state.
  std::optional<DesignBundle> bundle_;
  std::size_t n_units_ = 0;
};

void Coordinator::diag(Severity sev, const std::string& rule,
                       const std::string& object,
                       const std::string& message) {
  Diagnostic d;
  d.severity = sev;
  d.rule = rule;
  d.object = object;
  d.message = message;
  result_.diagnostics.push_back(std::move(d));
}

void Coordinator::trace(const char* fmt, ...) {
  if (!opt_.verbose) return;
  va_list ap;
  va_start(ap, fmt);
  std::fprintf(stderr, "nsdc_dist: ");
  std::vfprintf(stderr, fmt, ap);
  std::fprintf(stderr, "\n");
  va_end(ap);
}

std::size_t Coordinator::unfinished_shards() const {
  std::size_t n = 0;
  for (const ShardSlot& s : shards_) {
    if (s.st.state != ShardState::kDone &&
        s.st.state != ShardState::kExhausted) {
      ++n;
    }
  }
  return n;
}

std::size_t Coordinator::usable_workers() const {
  std::size_t n = 0;
  for (const auto& [id, w] : workers_) {
    if (w.alive && !w.doomed) ++n;
  }
  return n;
}

WorkerProc* Coordinator::worker_by_id(std::uint64_t id) {
  const auto it = workers_.find(id);
  return it == workers_.end() ? nullptr : &it->second;
}

void Coordinator::spawn_worker() {
  const std::uint64_t id = next_worker_++;
  ++result_.workers_spawned;
  // Simulated spawn failure: an OS condition to absorb (fork/exec limits),
  // never an abort — it consumes budget like a real failed spawn.
  if (fault_at("dist.worker.spawn", id) != FaultAction::kNone) {
    ++result_.spawn_failures;
    diag(Severity::kWarn, "dist.spawn", "worker:" + std::to_string(id),
         "injected spawn failure");
    trace("spawn worker %llu: injected failure",
          static_cast<unsigned long long>(id));
    return;
  }
  std::vector<std::string> args = {
      opt_.worker_binary,
      "--worker",
      "--endpoint", endpoint_spec_,
      "--worker-id", std::to_string(id),
      "--mode", opt_.mode,
      "--samples", std::to_string(opt_.samples),
      "--seed", std::to_string(opt_.seed),
      "--design", opt_.bundle.design,
      "--size", std::to_string(opt_.bundle.size),
      "--design-seed", std::to_string(opt_.bundle.seed),
      "--threads", std::to_string(opt_.worker_threads),
      "--heartbeat-ms", std::to_string(opt_.heartbeat_ms),
  };
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ++result_.spawn_failures;
    diag(Severity::kWarn, "dist.spawn", "worker:" + std::to_string(id),
         "fork failed");
    return;
  }
  if (pid == 0) {
    ::execv(opt_.worker_binary.c_str(), argv.data());
    ::_exit(127);  // exec failed; the parent reaps a dead worker
  }
  WorkerProc w;
  w.id = id;
  w.pid = pid;
  w.last_beat = Clock::now();
  workers_.emplace(id, w);
  trace("spawned worker %llu pid %d", static_cast<unsigned long long>(id),
        static_cast<int>(pid));
}

void Coordinator::fail_shard(ShardSlot& slot, const std::string& detail) {
  slot.st.detail = detail;
  slot.worker = -1;
  const std::string object = "shard:" + std::to_string(slot.st.id);
  if (slot.st.attempts >= opt_.retry.max_attempts()) {
    slot.st.state = ShardState::kExhausted;
    diag(Severity::kError, "dist.shard", object,
         "retries exhausted after " + std::to_string(slot.st.attempts) +
             " attempt(s): " + detail);
    trace("shard %llu exhausted: %s",
          static_cast<unsigned long long>(slot.st.id), detail.c_str());
    return;
  }
  slot.st.state = ShardState::kWaitingRetry;
  // Deterministic exponential backoff before the next assignment; the
  // retry count equals the attempts consumed so far.
  slot.not_before =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             opt_.retry.delay_s(slot.st.attempts)));
  ++result_.shard_retries;
  diag(Severity::kWarn, "dist.shard", object,
       "attempt " + std::to_string(slot.st.attempts) +
           " failed, retrying: " + detail);
  trace("shard %llu attempt %d failed (%s), retrying",
        static_cast<unsigned long long>(slot.st.id), slot.st.attempts,
        detail.c_str());
}

void Coordinator::reclaim(WorkerProc& w, const std::string& reason) {
  w.doomed = true;
  diag(Severity::kWarn, "dist.worker", "worker:" + std::to_string(w.id),
       reason);
  trace("reclaiming worker %llu pid %d: %s",
        static_cast<unsigned long long>(w.id), static_cast<int>(w.pid),
        reason.c_str());
  if (w.pid > 0) (void)::kill(w.pid, SIGKILL);
  if (w.shard >= 0) {
    ShardSlot& slot = shards_[static_cast<std::size_t>(w.shard)];
    if (slot.worker == static_cast<std::int64_t>(w.id) &&
        slot.st.state == ShardState::kRunning) {
      fail_shard(slot, reason);
    }
    w.shard = -1;
  }
}

bool Coordinator::validate_and_absorb(ShardSlot& slot) {
  // The coordinator-side torn-checkpoint site: fired once per validation
  // attempt of this shard, so a retried shard sees a fresh index and a
  // single planned tear cannot re-fire forever.
  const std::uint64_t idx = slot.st.id * 100 + slot.load_attempts++;
  std::uint64_t arg = 0;
  const FaultAction fa = fault_at("dist.shard.checkpoint", idx, &arg);
  if (fa == FaultAction::kTruncate) {
    truncate_tail(slot.checkpoint_path, arg);
    diag(Severity::kWarn, "dist.checkpoint",
         "shard:" + std::to_string(slot.st.id),
         "injected tear: " + std::to_string(arg) + " byte(s) cut");
  } else if (fa != FaultAction::kNone) {
    slot.st.detail = "injected checkpoint validation failure";
    return false;
  }
  auto data = load_mc_checkpoint(slot.checkpoint_path,
                                 header_ ? &*header_ : nullptr,
                                 &result_.diagnostics);
  if (!data) {
    slot.st.detail = "shard checkpoint unreadable";
    return false;
  }
  // All shard headers must describe the same run; the first one loaded
  // becomes the reference the loader checks the rest against.
  if (!header_) header_ = data->header;
  std::vector<char> have(n_units_, 0);
  for (const McBlockState& blk : data->blocks) {
    if (blk.block < n_units_) have[static_cast<std::size_t>(blk.block)] = 1;
  }
  for (std::uint64_t b = slot.st.lo; b < slot.st.hi; ++b) {
    if (!have[static_cast<std::size_t>(b)]) {
      slot.st.detail =
          "shard checkpoint missing block " + std::to_string(b) +
          " (torn or incomplete)";
      return false;
    }
  }
  for (McBlockState& blk : data->blocks) {
    if (blk.block >= slot.st.lo && blk.block < slot.st.hi) {
      pool_.push_back(std::move(blk));
    }
  }
  return true;
}

void Coordinator::handle_frame(int conn, const std::string& payload) {
  const MsgType type = peek_type(payload);
  if (type == MsgType::kHello) {
    HelloMsg m;
    if (!decode_hello(payload, &m)) return;
    WorkerProc* w = worker_by_id(m.worker_id);
    if (w == nullptr || w->doomed) return;
    w->conn = conn;
    w->last_beat = Clock::now();
    conn_worker_[conn] = m.worker_id;
    trace("worker %llu connected", static_cast<unsigned long long>(m.worker_id));
    return;
  }
  if (type == MsgType::kHeartbeat) {
    HeartbeatMsg m;
    if (!decode_heartbeat(payload, &m)) return;
    WorkerProc* w = worker_by_id(m.worker_id);
    if (w != nullptr) w->last_beat = Clock::now();
    return;
  }
  if (type == MsgType::kShardDone) {
    ShardDoneMsg m;
    if (!decode_shard_done(payload, &m)) return;
    if (m.shard >= shards_.size()) return;
    ShardSlot& slot = shards_[static_cast<std::size_t>(m.shard)];
    // Stale-result protection: only the assignment the coordinator still
    // considers live may complete the shard (a reclaimed worker's late
    // frames are ignored).
    if (slot.st.state != ShardState::kRunning ||
        slot.worker != static_cast<std::int64_t>(m.worker_id) ||
        m.attempt + 1 != static_cast<std::uint64_t>(slot.st.attempts)) {
      return;
    }
    WorkerProc* w = worker_by_id(m.worker_id);
    if (w != nullptr) {
      w->shard = -1;
      w->last_beat = Clock::now();
    }
    if (!m.ok) {
      fail_shard(slot, m.detail.empty() ? "worker reported failure"
                                        : m.detail);
      return;
    }
    if (opt_.mode == "mc") {
      if (validate_and_absorb(slot)) {
        slot.worker = -1;
        slot.st.state = ShardState::kDone;
        trace("shard %llu done", static_cast<unsigned long long>(m.shard));
      } else {
        fail_shard(slot, slot.st.detail);
      }
    } else {
      slot.po_times = std::move(m.po_times);
      slot.worker = -1;
      slot.st.state = ShardState::kDone;
      trace("shard %llu done", static_cast<unsigned long long>(m.shard));
    }
    return;
  }
}

void Coordinator::handle_closed(int conn) {
  const auto it = conn_worker_.find(conn);
  if (it == conn_worker_.end()) return;
  WorkerProc* w = worker_by_id(it->second);
  conn_worker_.erase(it);
  if (w == nullptr) return;
  w->conn = -1;
  if (w->alive && !w->doomed) {
    // The control connection died under a live worker: the process is
    // crashing (waitpid confirms next pass). Reclaim immediately instead
    // of waiting for the heartbeat watchdog.
    reclaim(*w, "control connection lost");
  }
}

void Coordinator::reap_children() {
  for (;;) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid <= 0) break;
    for (auto& [id, w] : workers_) {
      if (w.pid != pid || !w.alive) continue;
      w.alive = false;
      // An idle worker exiting 0 is an orderly stop (kStop / coordinator
      // socket closed), not a loss.
      const bool orderly = !WIFSIGNALED(status) && WEXITSTATUS(status) == 0 &&
                           w.shard < 0 && !w.doomed;
      std::string how;
      if (WIFSIGNALED(status)) {
        how = "killed by signal " + std::to_string(WTERMSIG(status));
      } else {
        how = "exited with status " + std::to_string(WEXITSTATUS(status));
      }
      if (!orderly) {
        ++result_.workers_lost;
        diag(Severity::kWarn, "dist.worker", "worker:" + std::to_string(id),
             "worker died: " + how);
      }
      trace("worker %llu pid %d %s: %s",
            static_cast<unsigned long long>(id), static_cast<int>(pid),
            orderly ? "stopped" : "died", how.c_str());
      if (w.conn >= 0) {
        conn_worker_.erase(w.conn);
        loop_->close_conn(w.conn);
        w.conn = -1;
      }
      if (w.shard >= 0) {
        ShardSlot& slot = shards_[static_cast<std::size_t>(w.shard)];
        if (slot.worker == static_cast<std::int64_t>(id) &&
            slot.st.state == ShardState::kRunning) {
          fail_shard(slot, "worker died mid-shard (" + how + ")");
        }
        w.shard = -1;
      }
      break;
    }
  }
}

void Coordinator::run_watchdogs() {
  const TimePoint now = Clock::now();
  for (auto& [id, w] : workers_) {
    if (!w.alive || w.doomed || w.shard < 0) continue;
    if (seconds_since(w.assigned_at, now) > opt_.shard_deadline_s) {
      reclaim(w, "shard deadline exceeded (" +
                     std::to_string(opt_.shard_deadline_s) + "s)");
    } else if (seconds_since(w.last_beat, now) > opt_.heartbeat_timeout_s) {
      reclaim(w, "missed heartbeats for " +
                     std::to_string(opt_.heartbeat_timeout_s) + "s");
    }
  }
}

void Coordinator::assign_work() {
  const TimePoint now = Clock::now();
  for (ShardSlot& slot : shards_) {
    const bool ready =
        slot.st.state == ShardState::kPending ||
        (slot.st.state == ShardState::kWaitingRetry &&
         now >= slot.not_before);
    if (!ready) continue;
    WorkerProc* idle = nullptr;
    for (auto& [id, w] : workers_) {
      if (w.alive && !w.doomed && w.conn >= 0 && w.shard < 0) {
        idle = &w;
        break;
      }
    }
    if (idle == nullptr) return;  // nothing free this pass
    AssignMsg m;
    m.shard = slot.st.id;
    m.attempt = static_cast<std::uint64_t>(slot.st.attempts);
    m.lo = slot.st.lo;
    m.hi = slot.st.hi;
    m.checkpoint_path = slot.checkpoint_path;
    if (!loop_->send(idle->conn, encode_assign(m))) {
      reclaim(*idle, "control connection lost on assign");
      continue;
    }
    ++slot.st.attempts;
    slot.st.state = ShardState::kRunning;
    slot.worker = static_cast<std::int64_t>(idle->id);
    idle->shard = static_cast<std::int64_t>(slot.st.id);
    idle->assigned_at = now;
    idle->last_beat = now;
    trace("assigned shard %llu [%llu,%llu) to worker %llu (attempt %d)",
          static_cast<unsigned long long>(slot.st.id),
          static_cast<unsigned long long>(slot.st.lo),
          static_cast<unsigned long long>(slot.st.hi),
          static_cast<unsigned long long>(idle->id), slot.st.attempts);
  }
}

void Coordinator::respawn_workers() {
  while (usable_workers() < opt_.workers && next_worker_ < spawn_budget_ &&
         unfinished_shards() > 0) {
    spawn_worker();
  }
}

void Coordinator::teardown() {
  for (auto& [id, w] : workers_) {
    if (w.alive && !w.doomed && w.conn >= 0) {
      (void)loop_->send(w.conn, encode_stop());
    }
    if (w.alive && w.doomed && w.pid > 0) (void)::kill(w.pid, SIGKILL);
  }
  const TimePoint deadline = Clock::now() + std::chrono::seconds(3);
  net::PollResult pr;
  for (;;) {
    bool any_alive = false;
    for (const auto& [id, w] : workers_) any_alive |= w.alive;
    if (!any_alive || Clock::now() > deadline) break;
    loop_->poll(20, &pr);
    reap_children();
  }
  for (auto& [id, w] : workers_) {
    if (!w.alive || w.pid <= 0) continue;
    (void)::kill(w.pid, SIGKILL);
    int status = 0;
    (void)::waitpid(w.pid, &status, 0);
    w.alive = false;
  }
}

void Coordinator::merge() {
  bool complete = true;
  for (const ShardSlot& slot : shards_) {
    complete &= slot.st.state == ShardState::kDone;
  }
  result_.complete = complete;
  if (opt_.mode == "mc") {
    // Best-effort salvage: an exhausted shard's checkpoint still holds
    // every block its failed attempts completed — fold that valid prefix
    // into the partial merge (complete stays false; the per-shard
    // diagnostics say what is missing).
    for (const ShardSlot& slot : shards_) {
      if (slot.st.state != ShardState::kExhausted) continue;
      auto data = load_mc_checkpoint(slot.checkpoint_path,
                                     header_ ? &*header_ : nullptr,
                                     &result_.diagnostics);
      if (!data) continue;
      if (!header_) header_ = data->header;
      for (McBlockState& blk : data->blocks) {
        if (blk.block >= slot.st.lo && blk.block < slot.st.hi) {
          pool_.push_back(std::move(blk));
        }
      }
    }
    if (header_ && !pool_.empty()) {
      std::sort(pool_.begin(), pool_.end(),
                [](const McBlockState& a, const McBlockState& b) {
                  return a.block < b.block;
                });
      McCheckpointData all;
      all.header = *header_;
      all.blocks = std::move(pool_);
      result_.mc = NetlistMonteCarlo::partial_result(all);
    }
    return;
  }
  // STA: scatter the per-shard PO slices into the parallel arrays, then
  // (complete runs only) select the critical PO through the exact kernel
  // the single-process engine uses.
  const GateNetlist& nl = bundle_->netlist;
  const auto& pos = nl.primary_outputs();
  result_.po_nets = pos;
  result_.po_reachable.assign(pos.size(), 0);
  result_.po_arrival.assign(pos.size(), {0.0, 0.0});
  result_.po_slew.assign(pos.size(), {10e-12, 10e-12});
  for (const ShardSlot& slot : shards_) {
    if (slot.st.state != ShardState::kDone) continue;
    for (std::size_t i = 0; i < slot.po_times.size(); ++i) {
      const std::size_t at = static_cast<std::size_t>(slot.st.lo) + i;
      if (at >= pos.size()) break;
      result_.po_reachable[at] = slot.po_times[i].reachable;
      result_.po_arrival[at] = slot.po_times[i].arrival;
      result_.po_slew[at] = slot.po_times[i].slew;
    }
  }
  if (complete) {
    StaEngine::Result res;
    res.nets.resize(nl.num_nets());
    for (std::size_t i = 0; i < pos.size(); ++i) {
      auto& nt = res.nets[static_cast<std::size_t>(pos[i])];
      nt.reachable = result_.po_reachable[i] != 0;
      nt.arrival = result_.po_arrival[i];
      nt.slew = result_.po_slew[i];
    }
    try {
      sta_kernel::select_critical(nl.primary_outputs(), nl.name(), res);
      result_.max_arrival = res.max_arrival;
      result_.critical_net = res.critical_net;
      result_.critical_edge = res.critical_edge;
    } catch (const std::exception&) {
      // No reachable PO — degenerate but not fatal for a merge.
    }
  }
}

DistResult Coordinator::run() {
  const TimePoint t0 = Clock::now();
  if (opt_.mode != "mc" && opt_.mode != "sta") {
    throw UsageError("dist: unknown mode: " + opt_.mode);
  }
  if (opt_.workers < 1 || opt_.workers > 256) {
    throw UsageError("dist: workers out of range");
  }
  if (opt_.samples < 1) throw UsageError("dist: samples must be positive");
  if (opt_.workdir.empty()) throw UsageError("dist: workdir required");
  if (opt_.worker_binary.empty()) {
    throw UsageError("dist: worker binary required");
  }
  // Fail fast on a spec no worker could ever build, instead of burning
  // the whole spawn budget on doomed processes.
  validate_spec(opt_.bundle);
  make_dirs(opt_.workdir);

  // Work-unit space: fixed accumulation blocks (MC) / sorted POs (STA).
  if (opt_.mode == "mc") {
    n_units_ = std::min(NetlistMonteCarlo::kAccumBlocks,
                        static_cast<std::size_t>(opt_.samples));
  } else {
    bundle_ = make_bundle(opt_.bundle);
    n_units_ = bundle_->netlist.primary_outputs().size();
  }
  const std::size_t n_shards =
      std::max<std::size_t>(1, std::min(opt_.shards, n_units_));
  const std::size_t per_shard = (n_units_ + n_shards - 1) / n_shards;
  for (std::size_t s = 0; s < n_shards; ++s) {
    ShardSlot slot;
    slot.st.id = s;
    slot.st.lo = std::min(n_units_, s * per_shard);
    slot.st.hi = std::min(n_units_, slot.st.lo + per_shard);
    slot.checkpoint_path =
        opt_.workdir + "/shard_" + std::to_string(s) + ".ckpt";
    shards_.push_back(std::move(slot));
  }

  const net::Endpoint endpoint =
      net::Endpoint::unix_path(opt_.workdir + "/coord.sock");
  endpoint_spec_ = "unix:" + endpoint.path;
  loop_.emplace(endpoint);

  spawn_budget_ = opt_.spawn_budget != 0
                      ? opt_.spawn_budget
                      : static_cast<std::size_t>(opt_.workers) *
                            static_cast<std::size_t>(
                                opt_.retry.max_attempts() + 1);
  for (unsigned i = 0; i < opt_.workers; ++i) spawn_worker();

  net::PollResult pr;
  while (unfinished_shards() > 0) {
    if (usable_workers() == 0 && next_worker_ >= spawn_budget_) {
      // Graceful degradation: no capacity left — everything not finished
      // becomes a diagnosed partial, never an abort.
      for (ShardSlot& slot : shards_) {
        if (slot.st.state == ShardState::kDone ||
            slot.st.state == ShardState::kExhausted) {
          continue;
        }
        slot.st.state = ShardState::kExhausted;
        if (slot.st.detail.empty()) slot.st.detail = "no worker capacity";
        diag(Severity::kError, "dist.shard",
             "shard:" + std::to_string(slot.st.id),
             "abandoned: spawn budget exhausted with no usable workers");
      }
      break;
    }
    loop_->poll(20, &pr);
    for (const auto& frame : pr.frames) handle_frame(frame.conn, frame.payload);
    for (const int conn : pr.closed) handle_closed(conn);
    reap_children();
    run_watchdogs();
    respawn_workers();
    assign_work();
  }
  teardown();
  merge();
  for (const ShardSlot& slot : shards_) result_.shards.push_back(slot.st);
  sort_diagnostics(result_.diagnostics);
  result_.runtime_seconds = seconds_since(t0, Clock::now());
  return std::move(result_);
}

}  // namespace

const char* shard_state_name(ShardState s) {
  switch (s) {
    case ShardState::kPending: return "pending";
    case ShardState::kWaitingRetry: return "waiting-retry";
    case ShardState::kRunning: return "running";
    case ShardState::kDone: return "done";
    case ShardState::kExhausted: return "exhausted";
  }
  return "?";
}

DistResult run_coordinator(const DistOptions& options) {
  Coordinator coordinator(options);
  return coordinator.run();
}

}  // namespace nsdc::dist
