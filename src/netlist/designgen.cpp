#include "netlist/designgen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace nsdc {
namespace {

/// Thin gate-construction helper over GateNetlist.
class Builder {
 public:
  Builder(GateNetlist& nl, const CellLibrary& lib) : nl_(nl), lib_(lib) {}

  int pi(const std::string& name) { return nl_.add_primary_input(name); }

  int gate(CellFunc f, const std::vector<int>& ins, int strength = 1) {
    const std::string name = "n" + std::to_string(counter_++);
    const int cell = nl_.add_cell(name + "_g", lib_.by_func(f, strength), ins,
                                  name);
    return nl_.cell(cell).out_net;
  }

  int nand2(int a, int b) { return gate(CellFunc::kNand2, {a, b}); }
  int nor2(int a, int b) { return gate(CellFunc::kNor2, {a, b}); }
  int inv(int a) { return gate(CellFunc::kInv, {a}); }

  int and2(int a, int b) { return inv(nand2(a, b)); }
  int or2(int a, int b) { return inv(nor2(a, b)); }

  /// XOR2 as the classic 4-NAND network.
  int xor2(int a, int b) {
    const int t1 = nand2(a, b);
    return nand2(nand2(a, t1), nand2(b, t1));
  }

  /// Full adder (9 NAND2): returns {sum, cout}.
  std::pair<int, int> full_adder(int a, int b, int cin) {
    const int t1 = nand2(a, b);
    const int x = nand2(nand2(a, t1), nand2(b, t1));  // a ^ b
    const int t4 = nand2(x, cin);
    const int sum = nand2(nand2(x, t4), nand2(cin, t4));
    const int cout = nand2(t1, t4);
    return {sum, cout};
  }

  /// Half adder: returns {sum, cout}.
  std::pair<int, int> half_adder(int a, int b) {
    const int t1 = nand2(a, b);
    const int sum = nand2(nand2(a, t1), nand2(b, t1));
    const int cout = inv(t1);
    return {sum, cout};
  }

  void po(int net) { nl_.mark_primary_output(net); }

 private:
  GateNetlist& nl_;
  const CellLibrary& lib_;
  int counter_ = 0;
};

CellFunc pick_func(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.30) return CellFunc::kNand2;
  if (u < 0.55) return CellFunc::kNor2;
  if (u < 0.70) return CellFunc::kInv;
  if (u < 0.82) return CellFunc::kAoi21;
  if (u < 0.94) return CellFunc::kOai21;
  return CellFunc::kBuf;
}

int pick_strength(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.45) return 1;
  if (u < 0.75) return 2;
  if (u < 0.93) return 4;
  return 8;
}

}  // namespace

GateNetlist generate_random_mapped(const RandomNetlistSpec& spec,
                                   const CellLibrary& lib) {
  if (spec.target_cells < 1 || spec.num_primary_inputs < 1 ||
      spec.target_depth < 1) {
    throw std::invalid_argument("generate_random_mapped: bad spec");
  }
  GateNetlist nl(spec.name);
  Rng rng(spec.seed);

  // Nets grouped by the level of their driver (level 0 = primary inputs).
  std::vector<std::vector<int>> nets_by_level(1);
  for (int i = 0; i < spec.num_primary_inputs; ++i) {
    nets_by_level[0].push_back(nl.add_primary_input("pi" + std::to_string(i)));
  }

  const int levels = spec.target_depth;
  // Distribute cells over levels (slightly front-loaded, like real cones).
  std::vector<int> cells_per_level(static_cast<std::size_t>(levels), 0);
  for (int c = 0; c < spec.target_cells; ++c) {
    const double u = std::pow(rng.uniform(), 1.3);  // bias toward early levels
    const int lv = std::min(levels - 1, static_cast<int>(u * levels));
    ++cells_per_level[static_cast<std::size_t>(lv)];
  }

  int counter = 0;
  for (int lv = 1; lv <= levels; ++lv) {
    nets_by_level.emplace_back();
    const int count = cells_per_level[static_cast<std::size_t>(lv - 1)];
    for (int c = 0; c < count; ++c) {
      const CellFunc func = pick_func(rng);
      const CellType& type = lib.by_func(func, pick_strength(rng));
      // Fanins: mostly the previous level, geometric tail further back.
      std::vector<int> ins;
      for (int pin = 0; pin < type.num_inputs(); ++pin) {
        int src_lv = lv - 1;
        while (src_lv > 0 && rng.uniform() < 0.3) --src_lv;
        // Find a non-empty level at or below src_lv.
        while (src_lv > 0 && nets_by_level[static_cast<std::size_t>(src_lv)].empty()) {
          --src_lv;
        }
        const auto& pool = nets_by_level[static_cast<std::size_t>(src_lv)];
        ins.push_back(pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))]);
      }
      const std::string name = "w" + std::to_string(counter++);
      const int cell = nl.add_cell(name + "_g", type, ins, name);
      nets_by_level.back().push_back(nl.cell(cell).out_net);
    }
  }

  // Every net without sinks becomes a primary output.
  for (std::size_t i = 0; i < nl.num_nets(); ++i) {
    if (nl.net(static_cast<int>(i)).sinks.empty()) {
      nl.mark_primary_output(static_cast<int>(i));
    }
  }
  return nl;
}

const std::vector<BenchmarkStats>& table3_benchmarks() {
  // #Nets and #Cells are the paper's Table III values; depth is a
  // representative logic depth for each circuit family.
  static const std::vector<BenchmarkStats> stats = {
      {"C432", 734, 655, 38},     {"C1355", 1091, 977, 26},
      {"C1908", 1184, 1093, 34},  {"C2670", 2415, 1810, 28},
      {"C3540", 2290, 2168, 40},  {"C6288", 3725, 3246, 90},
      {"C5315", 5371, 5275, 36},  {"C7552", 4536, 4041, 35},
      {"ADD", 2531, 4088, 48},    {"SUB", 2576, 3066, 50},
      {"MUL", 62967, 49570, 110}, {"DIV", 91932, 51654, 130},
  };
  return stats;
}

GateNetlist generate_iscas_like(const std::string& name,
                                const CellLibrary& lib, std::uint64_t seed) {
  for (const auto& s : table3_benchmarks()) {
    if (s.name != name) continue;
    RandomNetlistSpec spec;
    spec.name = name;
    spec.target_cells = s.cells;
    spec.num_primary_inputs = std::max(8, s.nets - s.cells);
    spec.target_depth = s.depth;
    spec.seed = seed ^ std::hash<std::string>{}(name);
    return generate_random_mapped(spec, lib);
  }
  throw std::out_of_range("generate_iscas_like: unknown benchmark " + name);
}

GateNetlist generate_ripple_adder(int bits, const CellLibrary& lib,
                                  const std::string& name) {
  GateNetlist nl(name);
  Builder b(nl, lib);
  std::vector<int> a, bb;
  for (int i = 0; i < bits; ++i) a.push_back(b.pi("a" + std::to_string(i)));
  for (int i = 0; i < bits; ++i) bb.push_back(b.pi("b" + std::to_string(i)));
  int carry = b.pi("cin");
  for (int i = 0; i < bits; ++i) {
    auto [sum, cout] = b.full_adder(a[static_cast<std::size_t>(i)],
                                    bb[static_cast<std::size_t>(i)], carry);
    b.po(sum);
    carry = cout;
  }
  b.po(carry);
  return nl;
}

GateNetlist generate_subtractor(int bits, const CellLibrary& lib,
                                const std::string& name) {
  GateNetlist nl(name);
  Builder b(nl, lib);
  std::vector<int> a, bb;
  for (int i = 0; i < bits; ++i) a.push_back(b.pi("a" + std::to_string(i)));
  for (int i = 0; i < bits; ++i) bb.push_back(b.pi("b" + std::to_string(i)));
  // a - b = a + ~b + 1; the +1 enters as a carry-in tied to a PI so the
  // structure stays purely combinational.
  int carry = b.pi("one");
  for (int i = 0; i < bits; ++i) {
    const int nb = b.inv(bb[static_cast<std::size_t>(i)]);
    auto [sum, cout] =
        b.full_adder(a[static_cast<std::size_t>(i)], nb, carry);
    b.po(sum);
    carry = cout;
  }
  b.po(carry);
  return nl;
}

GateNetlist generate_array_multiplier(int bits, const CellLibrary& lib,
                                      const std::string& name) {
  GateNetlist nl(name);
  Builder b(nl, lib);
  std::vector<int> a, bb;
  for (int i = 0; i < bits; ++i) a.push_back(b.pi("a" + std::to_string(i)));
  for (int i = 0; i < bits; ++i) bb.push_back(b.pi("b" + std::to_string(i)));

  // Partial products pp[i][j] = a_j & b_i.
  auto pp = [&](int i, int j) {
    return b.and2(a[static_cast<std::size_t>(j)],
                  bb[static_cast<std::size_t>(i)]);
  };

  // Row-by-row carry-propagate array. `acc` holds the running sum bits of
  // weight i.. (acc[0] has weight `row`).
  std::vector<int> acc;
  for (int j = 0; j < bits; ++j) acc.push_back(pp(0, j));
  b.po(acc[0]);  // product bit 0
  acc.erase(acc.begin());

  for (int row = 1; row < bits; ++row) {
    std::vector<int> next;
    int carry = -1;
    for (int j = 0; j < bits; ++j) {
      const int p = pp(row, j);
      const bool have_acc = j < static_cast<int>(acc.size());
      if (!have_acc) {
        if (carry < 0) {
          next.push_back(p);
        } else {
          auto [s, c] = b.half_adder(p, carry);
          next.push_back(s);
          carry = c;
        }
        continue;
      }
      const int x = acc[static_cast<std::size_t>(j)];
      if (carry < 0) {
        auto [s, c] = b.half_adder(p, x);
        next.push_back(s);
        carry = c;
      } else {
        auto [s, c] = b.full_adder(p, x, carry);
        next.push_back(s);
        carry = c;
      }
    }
    if (carry >= 0) next.push_back(carry);
    b.po(next[0]);  // product bit `row`
    next.erase(next.begin());
    acc = std::move(next);
  }
  for (int x : acc) b.po(x);
  return nl;
}

GateNetlist generate_array_divider(int bits, const CellLibrary& lib,
                                   const std::string& name) {
  GateNetlist nl(name);
  Builder b(nl, lib);
  std::vector<int> num, den;
  // "num<i>", not "n<i>": Builder names its internal nets "n<counter>".
  for (int i = 0; i < bits; ++i) {
    num.push_back(b.pi("num" + std::to_string(i)));
  }
  for (int i = 0; i < bits; ++i) den.push_back(b.pi("d" + std::to_string(i)));
  const int one = b.pi("one");

  // Non-restoring array divider: each row conditionally adds or subtracts
  // the divisor from the partial remainder. A CAS cell is XOR + full adder.
  auto cas = [&](int r, int d, int cin, int t) {
    const int bx = b.xor2(d, t);
    return b.full_adder(r, bx, cin);  // {sum, cout}
  };

  // Partial remainder, bits low..high; starts as the top of the dividend.
  std::vector<int> rem(static_cast<std::size_t>(bits), -1);
  int t = one;  // first operation is a subtract
  std::vector<int> quotient;
  for (int row = 0; row < bits; ++row) {
    // Shift in the next dividend bit (MSB-first).
    rem.insert(rem.begin(), num[static_cast<std::size_t>(bits - 1 - row)]);
    rem.pop_back();
    int cin = t;
    std::vector<int> new_rem;
    for (int j = 0; j < bits; ++j) {
      const int r = rem[static_cast<std::size_t>(j)];
      const int rr = r < 0 ? one : r;  // sign-extend region
      auto [s, c] = cas(rr, den[static_cast<std::size_t>(j)], cin, t);
      new_rem.push_back(s);
      cin = c;
    }
    rem = std::move(new_rem);
    // Quotient bit = final carry; it also selects add/sub for the next row.
    quotient.push_back(cin);
    t = cin;
  }
  for (int q : quotient) b.po(q);
  for (int r : rem) b.po(r);
  return nl;
}

GateNetlist generate_tiled_multiplier_array(int bits, int tiles,
                                            const CellLibrary& lib,
                                            const std::string& name) {
  if (bits < 2 || tiles < 1) {
    throw std::invalid_argument("generate_tiled_multiplier_array: bad size");
  }
  GateNetlist nl(name);
  Builder b(nl, lib);
  // One pair of operand buses shared by every tile (a MAC array reading
  // the same operands into independent accumulating lanes).
  std::vector<int> a, bb;
  for (int i = 0; i < bits; ++i) a.push_back(b.pi("a" + std::to_string(i)));
  for (int i = 0; i < bits; ++i) bb.push_back(b.pi("b" + std::to_string(i)));

  for (int tile = 0; tile < tiles; ++tile) {
    // Same row-by-row carry-propagate array as generate_array_multiplier.
    auto pp = [&](int i, int j) {
      return b.and2(a[static_cast<std::size_t>(j)],
                    bb[static_cast<std::size_t>(i)]);
    };
    std::vector<int> acc;
    for (int j = 0; j < bits; ++j) acc.push_back(pp(0, j));
    b.po(acc[0]);
    acc.erase(acc.begin());
    for (int row = 1; row < bits; ++row) {
      std::vector<int> next;
      int carry = -1;
      for (int j = 0; j < bits; ++j) {
        const int p = pp(row, j);
        const bool have_acc = j < static_cast<int>(acc.size());
        if (!have_acc) {
          if (carry < 0) {
            next.push_back(p);
          } else {
            auto [s, c] = b.half_adder(p, carry);
            next.push_back(s);
            carry = c;
          }
          continue;
        }
        const int x = acc[static_cast<std::size_t>(j)];
        if (carry < 0) {
          auto [s, c] = b.half_adder(p, x);
          next.push_back(s);
          carry = c;
        } else {
          auto [s, c] = b.full_adder(p, x, carry);
          next.push_back(s);
          carry = c;
        }
      }
      if (carry >= 0) next.push_back(carry);
      b.po(next[0]);
      next.erase(next.begin());
      acc = std::move(next);
    }
    for (int x : acc) b.po(x);
  }
  return nl;
}

GateNetlist generate_wide_crossbar(int inputs, int outputs,
                                   const CellLibrary& lib,
                                   const std::string& name) {
  if (inputs < 2 || outputs < 1) {
    throw std::invalid_argument("generate_wide_crossbar: bad size");
  }
  GateNetlist nl(name);
  Builder b(nl, lib);
  std::vector<int> in, sel;
  for (int i = 0; i < inputs; ++i) {
    in.push_back(b.pi("in" + std::to_string(i)));
  }
  for (int i = 0; i < inputs; ++i) {
    sel.push_back(b.pi("sel" + std::to_string(i)));
  }
  for (int j = 0; j < outputs; ++j) {
    // out_j = OR_i (in_i & sel_(i+j mod inputs)): the rotated select
    // pattern gives every column a distinct gating without extra PIs.
    std::vector<int> terms;
    terms.reserve(static_cast<std::size_t>(inputs));
    for (int i = 0; i < inputs; ++i) {
      terms.push_back(
          b.and2(in[static_cast<std::size_t>(i)],
                 sel[static_cast<std::size_t>((i + j) % inputs)]));
    }
    // Balanced OR tree from NAND2/INV (the charlib's two cells):
    // x | y = nand(inv(x), inv(y)).
    while (terms.size() > 1) {
      std::vector<int> next;
      next.reserve(terms.size() / 2 + 1);
      for (std::size_t k = 0; k + 1 < terms.size(); k += 2) {
        next.push_back(b.nand2(b.inv(terms[k]), b.inv(terms[k + 1])));
      }
      if (terms.size() % 2 != 0) next.push_back(terms.back());
      terms = std::move(next);
    }
    b.po(terms[0]);
  }
  return nl;
}

GateNetlist generate_divider_chain(int bits, int stages,
                                   const CellLibrary& lib,
                                   const std::string& name) {
  if (bits < 2 || stages < 1) {
    throw std::invalid_argument("generate_divider_chain: bad size");
  }
  GateNetlist nl(name);
  Builder b(nl, lib);
  std::vector<int> num, den;
  // "num<i>", not "n<i>": Builder names its internal nets "n<counter>".
  for (int i = 0; i < bits; ++i) {
    num.push_back(b.pi("num" + std::to_string(i)));
  }
  for (int i = 0; i < bits; ++i) den.push_back(b.pi("d" + std::to_string(i)));
  const int one = b.pi("one");

  // Same non-restoring rows as generate_array_divider; each stage divides
  // the previous stage's remainder by the shared divisor, so the carry
  // chains concatenate into one very deep design.
  auto cas = [&](int r, int d, int cin, int t) {
    const int bx = b.xor2(d, t);
    return b.full_adder(r, bx, cin);  // {sum, cout}
  };

  std::vector<int> dividend = num;
  for (int stage = 0; stage < stages; ++stage) {
    std::vector<int> rem(static_cast<std::size_t>(bits), -1);
    int t = one;  // first operation is a subtract
    std::vector<int> quotient;
    for (int row = 0; row < bits; ++row) {
      rem.insert(rem.begin(), dividend[static_cast<std::size_t>(bits - 1 - row)]);
      // The bit shifted off the sign-extend region is a computed sum on
      // every row after the first; expose it as a PO so no cell output
      // dangles (keeps the generator lint-clean).
      if (rem.back() >= 0) b.po(rem.back());
      rem.pop_back();
      int cin = t;
      std::vector<int> new_rem;
      for (int j = 0; j < bits; ++j) {
        const int r = rem[static_cast<std::size_t>(j)];
        const int rr = r < 0 ? one : r;  // sign-extend region
        auto [s, c] = cas(rr, den[static_cast<std::size_t>(j)], cin, t);
        new_rem.push_back(s);
        cin = c;
      }
      rem = std::move(new_rem);
      quotient.push_back(cin);
      t = cin;
    }
    // Every stage's quotient is observable; the remainder feeds the next
    // stage (the final one becomes POs below).
    for (int q : quotient) b.po(q);
    dividend = std::move(rem);
  }
  for (int r : dividend) b.po(r);
  return nl;
}

DesignStats design_stats(const GateNetlist& netlist) {
  DesignStats st;
  st.cells = netlist.num_cells();
  st.nets = netlist.num_nets();
  st.max_level = -1;
  if (netlist.num_cells() > 0) {
    st.max_level =
        static_cast<int>(netlist.levelization().levels.size()) - 1;
  }
  std::size_t sinks = 0;
  for (const auto& net : netlist.nets()) sinks += net.sinks.size();
  st.avg_fanout = netlist.num_nets() == 0
                      ? 0.0
                      : static_cast<double>(sinks) /
                            static_cast<double>(netlist.num_nets());
  return st;
}

std::string design_stats_line(const GateNetlist& netlist) {
  const DesignStats st = design_stats(netlist);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", st.avg_fanout);
  return "design_stats name=" + netlist.name() +
         " cells=" + std::to_string(st.cells) +
         " nets=" + std::to_string(st.nets) +
         " max_level=" + std::to_string(st.max_level) + " avg_fanout=" + buf;
}

int size_cells(GateNetlist& netlist, const CellLibrary& lib,
               const TechParams& tech, double max_load_per_strength) {
  // Upsize-only (like incremental synthesis sizing): upsizing a sink grows
  // its pin cap and can trigger upstream upsizing, so strengths increase
  // monotonically and the loop reaches a fixed point.
  int total_resizes = 0;
  for (int iter = 0; iter < 10; ++iter) {
    int resizes = 0;
    for (std::size_t c = 0; c < netlist.num_cells(); ++c) {
      const CellInst& inst = netlist.cell(static_cast<int>(c));
      // Load = sink pin caps + a per-sink wire-cap estimate (annotation
      // adds the real trees later).
      const double load = netlist.net_pin_cap(inst.out_net, tech) +
                          0.8e-15 * static_cast<double>(
                              netlist.net(inst.out_net).sinks.size());
      int strength = inst.type->strength();
      while (strength < 8 && load / strength > max_load_per_strength) {
        strength *= 2;
      }
      if (strength != inst.type->strength()) {
        netlist.set_cell_type(static_cast<int>(c),
                              lib.by_func(inst.type->func(), strength));
        ++resizes;
      }
    }
    total_resizes += resizes;
    if (resizes == 0) break;
  }
  return total_resizes;
}

void finalize_design(GateNetlist& netlist, const CellLibrary& lib,
                     const TechParams& tech) {
  insert_buffers(netlist, lib);
  size_cells(netlist, lib, tech);
}

namespace {
int insert_buffers_pass(GateNetlist& netlist, const CellLibrary& lib,
                        int max_fanout, int pass);
}  // namespace

int insert_buffers(GateNetlist& netlist, const CellLibrary& lib,
                   int max_fanout) {
  // One pass splits each over-fanout net into <= ceil(f/max) buffer
  // groups; the buffer cells themselves become sinks of the original net,
  // which can still exceed the cap for huge fanouts, so iterate until the
  // whole netlist satisfies the constraint (builds a buffer tree).
  int total = 0;
  for (int pass = 0; pass < 8; ++pass) {
    const int inserted = insert_buffers_pass(netlist, lib, max_fanout, pass);
    total += inserted;
    if (inserted == 0) break;
  }
  return total;
}

namespace {
int insert_buffers_pass(GateNetlist& netlist, const CellLibrary& lib,
                        int max_fanout, int pass) {
  // Plan: for each over-fanout net, sinks beyond the first `max_fanout`
  // move onto inserted BUFx4 cells (chained if needed). We rebuild the
  // netlist because GateNetlist is append-only.
  GateNetlist out(netlist.name());
  // Only a net an earlier pass split over more than `max_fanout` buffers
  // is over the cap again, and its <net>_buf<g> names are taken: later
  // passes name buffers <net>_buf<pass>_<g>. First-pass names stay
  // <net>_buf<g>, so designs one pass fully buffers keep their names.
  const std::string buf_infix =
      pass == 0 ? "_buf" : "_buf" + std::to_string(pass) + "_";
  const CellType& buf = lib.by_func(CellFunc::kBuf, 4);

  std::vector<int> net_map(netlist.num_nets(), -1);
  for (int pi : netlist.primary_inputs()) {
    net_map[static_cast<std::size_t>(pi)] =
        out.add_primary_input(netlist.net(pi).name);
  }

  int buffers = 0;
  // For each original net: list of new net ids serving groups of sinks.
  std::vector<std::vector<int>> serving(netlist.num_nets());
  std::vector<std::vector<NetSink>> sink_order(netlist.num_nets());
  for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
    sink_order[n] = netlist.net(static_cast<int>(n)).sinks;
  }

  auto serving_net = [&](int orig_net, int sink_ordinal) {
    const auto& groups = serving[static_cast<std::size_t>(orig_net)];
    if (groups.empty()) return net_map[static_cast<std::size_t>(orig_net)];
    const int group = sink_ordinal / max_fanout;
    return groups[static_cast<std::size_t>(
        std::min<int>(group, static_cast<int>(groups.size()) - 1))];
  };

  auto plan_net = [&](int orig_net) {
    const auto& net = netlist.net(orig_net);
    const int fanout = static_cast<int>(net.sinks.size());
    if (fanout <= max_fanout) return;
    const int groups = (fanout + max_fanout - 1) / max_fanout;
    for (int g = 0; g < groups; ++g) {
      const std::string bn = net.name + buf_infix + std::to_string(g);
      const int cell = out.add_cell(
          bn + "_g", buf, {net_map[static_cast<std::size_t>(orig_net)]}, bn);
      serving[static_cast<std::size_t>(orig_net)].push_back(
          out.cell(cell).out_net);
      ++buffers;
    }
  };

  for (int pi : netlist.primary_inputs()) plan_net(pi);
  for (int c : netlist.topological_order()) {
    const auto& inst = netlist.cell(c);
    std::vector<int> ins;
    for (std::size_t pin = 0; pin < inst.fanin_nets.size(); ++pin) {
      const int orig = inst.fanin_nets[pin];
      // Ordinal of this sink on the original net.
      const auto& order = sink_order[static_cast<std::size_t>(orig)];
      int ordinal = 0;
      for (std::size_t k = 0; k < order.size(); ++k) {
        if (order[k].cell == c && order[k].pin == static_cast<int>(pin)) {
          ordinal = static_cast<int>(k);
          break;
        }
      }
      ins.push_back(serving_net(orig, ordinal));
    }
    const int new_cell = out.add_cell(inst.name, *inst.type, ins,
                                      netlist.net(inst.out_net).name);
    net_map[static_cast<std::size_t>(inst.out_net)] =
        out.cell(new_cell).out_net;
    plan_net(inst.out_net);
  }
  for (int po : netlist.primary_outputs()) {
    out.mark_primary_output(net_map[static_cast<std::size_t>(po)]);
  }
  netlist = std::move(out);
  return buffers;
}
}  // namespace

}  // namespace nsdc
