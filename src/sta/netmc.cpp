#include "sta/netmc.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "stats/quantiles.hpp"
#include "util/faultinject.hpp"
#include "util/rng.hpp"

namespace nsdc {

namespace {

/// Within a block, samples run through each task in batches of this many
/// (the block's last batch may be partial). Every lane does exactly a lone
/// sample's arithmetic, and each net-edge takes its samples in sample
/// order, so the batch size never changes a result bit.
constexpr std::size_t kSampleBatch = 8;

/// Fingerprint over the sampler options that change drawn values; bound
/// into the checkpoint header so a file never resumes a different model
/// configuration. Scheduling knobs (threads/grain) are excluded — they do
/// not affect results.
std::uint64_t options_fingerprint(const NetMcOptions& o) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  std::uint64_t bits = 0;
  std::memcpy(&bits, &o.die_to_die_share, sizeof(bits));
  mix(bits);
  std::memcpy(&bits, &o.variation_scale, sizeof(bits));
  mix(bits);
  mix(o.moment_shaping ? 1 : 0);
  return h;
}

/// Seven sigma-level quantiles over the finite entries of `v`; all-zero
/// when nothing finite remains. Quarantined (NaN-poisoned) samples stay in
/// the retained vectors for checkpoint fidelity but must never reach the
/// order statistics.
std::array<double, 7> finite_quantiles(const std::vector<double>& v) {
  bool all_finite = true;
  for (double x : v) {
    if (!std::isfinite(x)) {
      all_finite = false;
      break;
    }
  }
  if (all_finite) {
    return v.empty() ? std::array<double, 7>{} : sigma_quantiles_smoothed(v);
  }
  std::vector<double> filtered;
  filtered.reserve(v.size());
  for (double x : v) {
    if (std::isfinite(x)) filtered.push_back(x);
  }
  if (filtered.empty()) return {};
  return sigma_quantiles_smoothed(filtered);
}

/// Endpoint distributions from the retained sample vectors (shared by a
/// finished run and a checkpoint-restored partial result). Index p < n_pos
/// is PO p and index n_pos the circuit; each reads only its own sample
/// vector, so they run in parallel. The worst-PO scan stays serial, in
/// ascending PO order.
void finalize_endpoints(NetlistMonteCarlo::Result* out,
                        const ExecContext& exec) {
  const std::size_t n_pos = out->po_nets.size();
  out->po_moments.resize(n_pos);
  out->po_quantiles.resize(n_pos);
  exec.parallel_for(n_pos + 1, [out, n_pos](std::size_t p) {
    if (p < n_pos) {
      out->po_moments[p] = compute_moments(out->po_samples[p]);
      out->po_quantiles[p] = finite_quantiles(out->po_samples[p]);
    } else if (!out->circuit_samples.empty()) {
      out->circuit_moments = compute_moments(out->circuit_samples);
      out->circuit_quantiles = finite_quantiles(out->circuit_samples);
    }
  });
  double worst_mean = -1.0;
  for (std::size_t p = 0; p < n_pos; ++p) {
    if (out->po_moments[p].mu > worst_mean) {
      worst_mean = out->po_moments[p].mu;
      out->worst_po = out->po_nets[p];
      out->worst_po_moments = out->po_moments[p];
      out->worst_po_quantiles = out->po_quantiles[p];
    }
  }
}

}  // namespace

NetlistMonteCarlo::Result NetlistMonteCarlo::run(
    const GateNetlist& netlist, const ParasiticDb& parasitics,
    const McConfig& config) const {
  const auto t0 = std::chrono::steady_clock::now();
  Result out;
  const std::size_t n_nets = netlist.num_nets();
  const std::size_t n_cells = netlist.num_cells();
  out.nets.assign(n_nets, {});
  if (config.samples <= 0) return out;
  const auto n_samples = static_cast<std::size_t>(config.samples);

  // Slews stay frozen at nominal for every sample, which is what lets the
  // per-arc records be built once, outside the sample loop.
  const StatArcs sys = freeze_stat_arcs(netlist, parasitics, cell_model_,
                                        wire_model_, tech_, options_);
  const std::vector<int>& po_nets = sys.po_nets;
  const std::size_t n_pos = po_nets.size();
  out.po_nets = po_nets;
  out.po_samples.assign(n_pos, std::vector<double>(n_samples, 0.0));
  out.circuit_samples.assign(n_samples, 0.0);

  // Fixed accumulation blocks: boundaries depend only on the sample count,
  // every block is processed serially by exactly one chunk, and the final
  // merge walks blocks in index order — the whole reduction tree is
  // invariant to thread count and grain, so statistics are byte-identical
  // for any scheduling. kAccumBlocks * n_nets * 2 accumulators bound the
  // streaming memory at O(nets).
  const std::size_t n_blocks = std::min(kAccumBlocks, n_samples);
  const std::size_t per_block = (n_samples + n_blocks - 1) / n_blocks;
  // Block subset (shard workers): everything outside [b_lo, b_hi) is
  // neither restored, computed, nor checkpointed by this run.
  const std::size_t b_lo = std::min(options_.block_begin, n_blocks);
  const std::size_t b_hi =
      std::max(b_lo, std::min(options_.block_end, n_blocks));
  const bool full_range = b_lo == 0 && b_hi == n_blocks;
  std::vector<std::array<MomentAccumulator, 2>> block_acc(n_blocks * n_nets);
  std::vector<std::array<std::uint64_t, 2>> block_quar(n_blocks * n_nets,
                                                       {0, 0});
  // Blocks restored from a checkpoint; the parallel loop skips them. Set
  // before the loop starts, each in-loop element only touched by the one
  // chunk that owns its block.
  std::vector<char> block_done(n_blocks, 0);

  // Checkpoint plumbing: the header binds the file to this exact run; a
  // resume restores every intact block (re-appending it to the rewritten
  // file) and the loop computes only what is missing.
  std::unique_ptr<McCheckpointWriter> writer;
  if (!options_.checkpoint_path.empty()) {
    McCheckpointHeader header;
    header.seed = config.seed;
    header.samples = n_samples;
    header.nets = n_nets;
    header.pos = n_pos;
    header.blocks = n_blocks;
    header.options_fp = options_fingerprint(options_);
    header.po_nets.reserve(n_pos);
    for (int po : po_nets) header.po_nets.push_back(po);

    std::optional<McCheckpointData> restored;
    if (options_.resume) {
      restored = load_mc_checkpoint(options_.checkpoint_path, &header,
                                    &out.diagnostics);
    }
    writer = std::make_unique<McCheckpointWriter>(options_.checkpoint_path,
                                                  header);
    if (restored) {
      for (const McBlockState& blk : restored->blocks) {
        const auto b = static_cast<std::size_t>(blk.block);
        // A full-run checkpoint may hold blocks outside a subset run's
        // range; they belong to other shards and are skipped whole.
        if (b < b_lo || b >= b_hi) continue;
        for (std::size_t n = 0; n < n_nets; ++n) {
          for (std::size_t e = 0; e < 2; ++e) {
            block_acc[b * n_nets + n][e] =
                MomentAccumulator::from_state(blk.acc[n * 2 + e]);
            block_quar[b * n_nets + n][e] = blk.quarantine[n * 2 + e];
          }
        }
        std::uint64_t sb = 0, se = 0;
        mc_block_range(header, blk.block, &sb, &se);
        const std::size_t len = static_cast<std::size_t>(se - sb);
        for (std::size_t p = 0; p < n_pos; ++p) {
          for (std::size_t k = 0; k < len; ++k) {
            out.po_samples[p][static_cast<std::size_t>(sb) + k] =
                blk.po_samples[p * len + k];
          }
        }
        for (std::size_t k = 0; k < len; ++k) {
          out.circuit_samples[static_cast<std::size_t>(sb) + k] =
              blk.circuit_samples[k];
        }
        writer->append(blk);
        block_done[b] = 1;
        ++out.blocks_resumed;
        if (options_.on_block_done) options_.on_block_done(b);
      }
    }
  }

  const double rho = std::clamp(options_.die_to_die_share, 0.0, 1.0);
  const double w_g = std::sqrt(rho);
  const double w_l = std::sqrt(1.0 - rho);
  const Rng base(config.seed);
  const ExecContext exec = config.resolved_exec();
  CancellationToken* token = exec.cancel;
  constexpr double kQuietNan = std::numeric_limits<double>::quiet_NaN();
  constexpr std::size_t B = kSampleBatch;

  // parallel_for_chunked never makes a chunk smaller than ceil(blocks /
  // lanes) blocks, so the blocks go to at most one chunk per lane;
  // ExecContext::grain or NSDC_GRAIN can only make chunks larger (fewer).
  // Every block does the same work, and a chunk allocates its scratch
  // once.
  out.shards = exec.parallel_for_chunked(
      b_hi - b_lo, /*call_grain=*/1,
      [&](std::size_t i_begin, std::size_t i_end) {
        // Chunk-local scratch, slot-major over the batch lanes: slot i of
        // lane k lives at [i * B + k], reused across the chunk's batches.
        // PI slots stay 0 (their arrival) for the whole chunk; every other
        // slot that is ever read is written by an earlier task first. A
        // partial batch leaves its unused lanes stale; they are walked
        // but never drawn, accumulated or written out.
        std::vector<double> arr(2 * n_nets * B, 0.0);
        std::vector<double> z_cell(n_cells * B, 0.0);
        std::vector<double> z_wire(n_nets * B, 0.0);
        for (std::size_t b = b_lo + i_begin; b < b_lo + i_end; ++b) {
          if (block_done[b]) continue;
          fault_fire("netmc.block", b, token);
          auto* acc = &block_acc[b * n_nets];
          auto* quar = &block_quar[b * n_nets];
          // Clamp like mc_block_range: the last blocks can be empty when
          // per_block * n_blocks overshoots the sample count.
          const std::size_t s_begin = std::min(n_samples, b * per_block);
          const std::size_t s_end = std::min(n_samples, s_begin + per_block);
          // Batches of B samples never cross the block boundary; the
          // block's last batch may be partial.
          for (std::size_t s0 = s_begin; s0 < s_end; s0 += B) {
            const std::size_t nb = std::min(B, s_end - s0);
            std::array<double, B> zg_cell{};
            std::array<double, B> zg_wire{};
            std::array<bool, B> poison{};
            for (std::size_t k = 0; k < nb; ++k) {
              const std::size_t s = s0 + k;
              // Cooperative preemption point: explicit cancel, deadline,
              // and the per-sample budget all surface here as
              // CancelledError. Completed blocks are already on disk.
              if (token != nullptr) {
                token->charge(1);
                token->throw_if_cancelled();
              }
              poison[k] =
                  fault_fire("netmc.sample", s, token) == FaultAction::kNan;
              // Counter-based fork: the sample's stream depends only on
              // (seed, sample index), never on the executing thread.
              char tag[24] = {'s'};
              const char* tag_end =
                  std::to_chars(tag + 1, tag + sizeof(tag), s).ptr;
              Rng rng = base.fork(std::string_view(
                  tag, static_cast<std::size_t>(tag_end - tag)));
              zg_cell[k] = rng.normal();
              zg_wire[k] = rng.normal();
              for (std::size_t c = 0; c < n_cells; ++c) {
                z_cell[c * B + k] = rng.normal();
              }
              for (std::size_t n = 0; n < n_nets; ++n) {
                z_wire[n * B + k] = rng.normal();
              }
            }

            // Levelized tasks: every fanin slot is written before it is
            // read, and the lanes are independent, so no barriers are
            // needed. Each arc record loads once per batch; lane k does
            // exactly the arithmetic of a lone sample.
            for (const StatTask& t : sys.tasks) {
              // One local draw per instance, shared by its edges and arcs.
              const double* zl = &z_cell[t.cell * B];
              std::array<double, B> zc{};
              std::array<double, B> best{};
              for (std::size_t k = 0; k < B; ++k) {
                zc[k] = w_g * zg_cell[k] + w_l * zl[k];
                best[k] = -1.0;
              }
              const StatArc* arc = &sys.arcs[t.first_arc];
              for (std::uint32_t i = 0; i < t.num_arcs; ++i, ++arc) {
                const double* src = &arr[arc->src_slot * B];
                if (arc->wire_z >= 0) {
                  const double* zw =
                      &z_wire[static_cast<std::size_t>(arc->wire_z) * B];
                  for (std::size_t k = 0; k < B; ++k) {
                    const double cell_d = cell_stage_delay(*arc, zc[k]);
                    const double wire_d = wire_stage_delay(
                        arc->elmore, arc->xw, w_g * zg_wire[k] + w_l * zw[k]);
                    const double cand = src[k] + wire_d + cell_d;
                    best[k] = cand > best[k] ? cand : best[k];
                  }
                } else {
                  for (std::size_t k = 0; k < B; ++k) {
                    const double cell_d = cell_stage_delay(*arc, zc[k]);
                    const double cand = src[k] + arc->elmore + cell_d;
                    best[k] = cand > best[k] ? cand : best[k];
                  }
                }
              }
              std::copy(best.begin(), best.end(), &arr[t.out_slot * B]);
            }

            // Quarantine gate: a non-finite arrival (or a NaN-poisoned
            // sample) bumps the per-net counter instead of poisoning the
            // streamed moments. Each net-edge takes the batch's samples
            // back to back in sample order. The raw value stays in the
            // retained endpoint vectors (checkpoint fidelity); quantile
            // extraction filters it out.
            for (std::size_t n = 0; n < n_nets; ++n) {
              if (!sys.reachable[n]) continue;
              // The two edges' accumulators are independent chains;
              // interleaving them lets their divisions overlap.
              const double* rise = &arr[2 * n * B];
              const double* fall = rise + B;
              MomentAccumulator a_rise = acc[n][0];
              MomentAccumulator a_fall = acc[n][1];
              std::uint64_t q_rise = 0;
              std::uint64_t q_fall = 0;
              for (std::size_t k = 0; k < nb; ++k) {
                const double r = poison[k] ? kQuietNan : rise[k];
                const double f = poison[k] ? kQuietNan : fall[k];
                if (std::isfinite(r)) {
                  a_rise.add(r);
                } else {
                  ++q_rise;
                }
                if (std::isfinite(f)) {
                  a_fall.add(f);
                } else {
                  ++q_fall;
                }
              }
              acc[n][0] = a_rise;
              acc[n][1] = a_fall;
              quar[n][0] += q_rise;
              quar[n][1] += q_fall;
            }
            // Endpoints: B samples per PO at a time; each lane's circuit
            // max runs over the POs in ascending order.
            std::array<double, B> circuit{};
            std::array<bool, B> circuit_finite{};
            for (std::size_t k = 0; k < B; ++k) circuit_finite[k] = !poison[k];
            for (std::size_t p = 0; p < n_pos; ++p) {
              const auto po = static_cast<std::size_t>(po_nets[p]);
              const double* rise = &arr[2 * po * B];
              const double* fall = rise + B;
              double* dst = &out.po_samples[p][s0];
              for (std::size_t k = 0; k < nb; ++k) {
                const double worst =
                    poison[k] ? kQuietNan : std::max(rise[k], fall[k]);
                dst[k] = worst;
                if (!std::isfinite(worst)) {
                  circuit_finite[k] = false;
                } else if (worst > circuit[k]) {
                  circuit[k] = worst;
                }
              }
            }
            for (std::size_t k = 0; k < nb; ++k) {
              out.circuit_samples[s0 + k] =
                  circuit_finite[k] ? circuit[k] : kQuietNan;
            }
          }
          if (writer != nullptr) {
            // Completed block -> durable record (append is thread-safe).
            McBlockState blk;
            blk.block = b;
            blk.acc.resize(n_nets * 2);
            blk.quarantine.resize(n_nets * 2);
            for (std::size_t n = 0; n < n_nets; ++n) {
              for (std::size_t e = 0; e < 2; ++e) {
                blk.acc[n * 2 + e] = acc[n][e].state();
                blk.quarantine[n * 2 + e] = quar[n][e];
              }
            }
            const std::size_t len = s_end - s_begin;
            blk.po_samples.resize(n_pos * len);
            for (std::size_t p = 0; p < n_pos; ++p) {
              for (std::size_t k = 0; k < len; ++k) {
                blk.po_samples[p * len + k] = out.po_samples[p][s_begin + k];
              }
            }
            blk.circuit_samples.assign(
                out.circuit_samples.begin() +
                    static_cast<std::ptrdiff_t>(s_begin),
                out.circuit_samples.begin() +
                    static_cast<std::ptrdiff_t>(s_end));
            writer->append(blk);
          }
          // Fired after the block is durable, so a kill landing in the
          // hook (dist.worker.kill) never loses the block it reports.
          if (options_.on_block_done) options_.on_block_done(b);
        }
      });

  // Deterministic merge: blocks in index order.
  std::vector<std::array<MomentAccumulator, 2>> merged(n_nets);
  out.quarantined.assign(n_nets, {0, 0});
  for (std::size_t b = 0; b < n_blocks; ++b) {
    for (std::size_t n = 0; n < n_nets; ++n) {
      merged[n][0].merge(block_acc[b * n_nets + n][0]);
      merged[n][1].merge(block_acc[b * n_nets + n][1]);
      out.quarantined[n][0] += block_quar[b * n_nets + n][0];
      out.quarantined[n][1] += block_quar[b * n_nets + n][1];
    }
  }
  for (std::size_t n = 0; n < n_nets; ++n) {
    for (std::size_t e = 0; e < 2; ++e) {
      out.nets[n][e].count = merged[n][e].count();
      if (merged[n][e].count() > 0) {
        out.nets[n][e].moments = merged[n][e].moments();
      }
      out.total_quarantined += out.quarantined[n][e];
    }
  }
  if (out.total_quarantined > 0) {
    for (std::size_t n = 0; n < n_nets; ++n) {
      const std::uint64_t r = out.quarantined[n][0];
      const std::uint64_t f = out.quarantined[n][1];
      if (r + f == 0) continue;
      Diagnostic d;
      d.severity = Severity::kWarn;
      d.rule = "netmc.quarantine";
      d.object = "net:" + netlist.net(static_cast<int>(n)).name;
      d.message = "quarantined " + std::to_string(r + f) +
                  " non-finite sample(s) (" + std::to_string(r) +
                  " rise, " + std::to_string(f) +
                  " fall); excluded from streamed moments";
      out.diagnostics.push_back(std::move(d));
    }
  }
  sort_diagnostics(out.diagnostics);
  if (full_range) {
    out.samples_done = n_samples;
    // Endpoint distributions from the retained sample vectors. Every
    // sample is in, so this pass takes no cancellation poll.
    ExecContext endpoint_exec = exec;
    endpoint_exec.cancel = nullptr;
    finalize_endpoints(&out, endpoint_exec);
  } else {
    // Subset run: samples_done counts only the covered block ranges, and
    // the endpoint distributions stay empty — the uncovered stretches of
    // the retained vectors are zero filler, so order statistics over them
    // would be meaningless. Merged endpoints come from partial_result
    // over the union of shard checkpoints.
    std::uint64_t covered = 0;
    for (std::size_t b = b_lo; b < b_hi; ++b) {
      const std::size_t s_begin = std::min(n_samples, b * per_block);
      const std::size_t s_end = std::min(n_samples, s_begin + per_block);
      covered += s_end - s_begin;
    }
    out.samples_done = covered;
  }

  out.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

NetlistMonteCarlo::Result NetlistMonteCarlo::partial_result(
    const McCheckpointData& data) {
  Result out;
  const McCheckpointHeader& h = data.header;
  const auto n_nets = static_cast<std::size_t>(h.nets);
  const auto n_pos = static_cast<std::size_t>(h.pos);
  out.nets.assign(n_nets, {});
  out.quarantined.assign(n_nets, {0, 0});
  out.po_nets.reserve(n_pos);
  for (std::int32_t po : h.po_nets) out.po_nets.push_back(po);
  out.po_samples.assign(n_pos, {});
  out.blocks_resumed = data.blocks.size();

  // Merge restored blocks in index order (the loader pre-sorts), exactly
  // as the run's final reduction would for those blocks.
  std::vector<std::array<MomentAccumulator, 2>> merged(n_nets);
  for (const McBlockState& blk : data.blocks) {
    for (std::size_t n = 0; n < n_nets; ++n) {
      for (std::size_t e = 0; e < 2; ++e) {
        merged[n][e].merge(
            MomentAccumulator::from_state(blk.acc[n * 2 + e]));
        out.quarantined[n][e] += blk.quarantine[n * 2 + e];
      }
    }
    std::uint64_t sb = 0, se = 0;
    mc_block_range(h, blk.block, &sb, &se);
    const std::size_t len = static_cast<std::size_t>(se - sb);
    for (std::size_t p = 0; p < n_pos; ++p) {
      out.po_samples[p].insert(out.po_samples[p].end(),
                               blk.po_samples.begin() +
                                   static_cast<std::ptrdiff_t>(p * len),
                               blk.po_samples.begin() +
                                   static_cast<std::ptrdiff_t>((p + 1) * len));
    }
    out.circuit_samples.insert(out.circuit_samples.end(),
                               blk.circuit_samples.begin(),
                               blk.circuit_samples.end());
    out.samples_done += len;
  }
  for (std::size_t n = 0; n < n_nets; ++n) {
    for (std::size_t e = 0; e < 2; ++e) {
      out.nets[n][e].count = merged[n][e].count();
      if (merged[n][e].count() > 0) {
        out.nets[n][e].moments = merged[n][e].moments();
      }
      out.total_quarantined += out.quarantined[n][e];
    }
  }
  finalize_endpoints(&out, ExecContext{});
  return out;
}

}  // namespace nsdc
