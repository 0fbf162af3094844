#include "pdk/cells.hpp"

#include <algorithm>
#include <stdexcept>

#include "spice/circuit.hpp"

namespace nsdc {

const char* cell_func_name(CellFunc func) {
  switch (func) {
    case CellFunc::kInv: return "INV";
    case CellFunc::kBuf: return "BUF";
    case CellFunc::kNand2: return "NAND2";
    case CellFunc::kNor2: return "NOR2";
    case CellFunc::kAoi21: return "AOI21";
    case CellFunc::kOai21: return "OAI21";
  }
  return "?";
}

int cell_func_num_inputs(CellFunc func) {
  switch (func) {
    case CellFunc::kInv:
    case CellFunc::kBuf: return 1;
    case CellFunc::kNand2:
    case CellFunc::kNor2: return 2;
    case CellFunc::kAoi21:
    case CellFunc::kOai21: return 3;
  }
  return 0;
}

bool cell_func_inverting(CellFunc func) { return func != CellFunc::kBuf; }

namespace {

using NT = NetTag;

CellTopology make_inv() {
  CellTopology t;
  t.fets = {{true, NT::kIn0, NT::kOut, NT::kGnd, 1.0},
            {false, NT::kIn0, NT::kOut, NT::kVdd, 1.0}};
  t.stack_n = 1;
  t.stack_p = 1;
  return t;
}

CellTopology make_buf() {
  CellTopology t;
  // Stage 1 (half-size) drives Int1; stage 2 drives the output.
  t.fets = {{true, NT::kIn0, NT::kInt1, NT::kGnd, 0.5},
            {false, NT::kIn0, NT::kInt1, NT::kVdd, 0.5},
            {true, NT::kInt1, NT::kOut, NT::kGnd, 1.0},
            {false, NT::kInt1, NT::kOut, NT::kVdd, 1.0}};
  t.stack_n = 1;
  t.stack_p = 1;
  return t;
}

CellTopology make_nand2() {
  CellTopology t;
  t.fets = {{true, NT::kIn0, NT::kOut, NT::kInt1, 2.0},
            {true, NT::kIn1, NT::kInt1, NT::kGnd, 2.0},
            {false, NT::kIn0, NT::kOut, NT::kVdd, 1.0},
            {false, NT::kIn1, NT::kOut, NT::kVdd, 1.0}};
  t.stack_n = 2;
  t.stack_p = 1;
  return t;
}

CellTopology make_nor2() {
  CellTopology t;
  t.fets = {{true, NT::kIn0, NT::kOut, NT::kGnd, 1.0},
            {true, NT::kIn1, NT::kOut, NT::kGnd, 1.0},
            {false, NT::kIn0, NT::kInt1, NT::kVdd, 2.0},
            {false, NT::kIn1, NT::kOut, NT::kInt1, 2.0}};
  t.stack_n = 1;
  t.stack_p = 2;
  return t;
}

CellTopology make_aoi21() {
  // out = !((A1 & A2) | B); pins: In0=A1, In1=A2, In2=B.
  CellTopology t;
  t.fets = {{true, NT::kIn0, NT::kOut, NT::kInt1, 2.0},
            {true, NT::kIn1, NT::kInt1, NT::kGnd, 2.0},
            {true, NT::kIn2, NT::kOut, NT::kGnd, 1.0},
            {false, NT::kIn0, NT::kInt2, NT::kVdd, 2.0},
            {false, NT::kIn1, NT::kInt2, NT::kVdd, 2.0},
            {false, NT::kIn2, NT::kOut, NT::kInt2, 2.0}};
  t.stack_n = 2;
  t.stack_p = 2;
  return t;
}

CellTopology make_oai21() {
  // out = !((A1 | A2) & B); pins: In0=A1, In1=A2, In2=B.
  CellTopology t;
  t.fets = {{true, NT::kIn0, NT::kInt1, NT::kGnd, 2.0},
            {true, NT::kIn1, NT::kInt1, NT::kGnd, 2.0},
            {true, NT::kIn2, NT::kOut, NT::kInt1, 2.0},
            {false, NT::kIn0, NT::kOut, NT::kInt2, 2.0},
            {false, NT::kIn1, NT::kInt2, NT::kVdd, 2.0},
            {false, NT::kIn2, NT::kOut, NT::kVdd, 1.0}};
  t.stack_n = 2;
  t.stack_p = 2;
  return t;
}

}  // namespace

const CellTopology& cell_topology(CellFunc func) {
  static const CellTopology inv = make_inv();
  static const CellTopology buf = make_buf();
  static const CellTopology nand2 = make_nand2();
  static const CellTopology nor2 = make_nor2();
  static const CellTopology aoi21 = make_aoi21();
  static const CellTopology oai21 = make_oai21();
  switch (func) {
    case CellFunc::kInv: return inv;
    case CellFunc::kBuf: return buf;
    case CellFunc::kNand2: return nand2;
    case CellFunc::kNor2: return nor2;
    case CellFunc::kAoi21: return aoi21;
    case CellFunc::kOai21: return oai21;
  }
  return inv;
}

std::vector<double> side_input_values(CellFunc func, int active_pin) {
  const int n = cell_func_num_inputs(func);
  if (active_pin < 0 || active_pin >= n) {
    throw std::out_of_range("side_input_values: bad pin");
  }
  std::vector<double> v(static_cast<std::size_t>(n), 0.0);
  switch (func) {
    case CellFunc::kInv:
    case CellFunc::kBuf:
      break;
    case CellFunc::kNand2:
      v = {1.0, 1.0};  // other input non-controlling high
      break;
    case CellFunc::kNor2:
      v = {0.0, 0.0};  // other input non-controlling low
      break;
    case CellFunc::kAoi21:
      // out = !((A1&A2)|B). Switching an A pin needs the other A high and
      // B low; switching B needs the AND branch off.
      if (active_pin == 0) v = {0.0, 1.0, 0.0};
      else if (active_pin == 1) v = {1.0, 0.0, 0.0};
      else v = {0.0, 0.0, 0.0};
      break;
    case CellFunc::kOai21:
      // out = !((A1|A2)&B). Switching an A pin needs the other A low and
      // B high; switching B needs the OR branch on.
      if (active_pin == 0) v = {0.0, 0.0, 1.0};
      else if (active_pin == 1) v = {0.0, 0.0, 1.0};
      else v = {1.0, 0.0, 0.0};
      break;
  }
  return v;
}

CellType::CellType(CellFunc func, int strength)
    : func_(func), strength_(strength) {
  if (strength < 1) throw std::invalid_argument("CellType: strength < 1");
  name_ = std::string(cell_func_name(func)) + "x" + std::to_string(strength);
  pin_gates_.resize(static_cast<std::size_t>(num_inputs()));
  for (const auto& fet : topology().fets) {
    const int pin = static_cast<int>(fet.gate) - static_cast<int>(NetTag::kIn0);
    if (pin < 0 || pin >= num_inputs()) continue;  // an internal net
    pin_gates_[static_cast<std::size_t>(pin)].push_back(
        {fet.w_units * static_cast<double>(strength_), fet.nmos});
  }
}

int CellType::stack_count() const {
  const auto& topo = topology();
  return std::max(topo.stack_n, topo.stack_p);
}

double CellType::input_cap(const TechParams& tech, int pin) const {
  if (pin < 0 || pin >= num_inputs()) {
    throw std::out_of_range("CellType::input_cap: bad pin");
  }
  double cap = 0.0;
  for (const GateFet& fet : pin_gates_[static_cast<std::size_t>(pin)]) {
    const double w = fet.w_strength * (fet.nmos ? tech.w_min_n : tech.w_min_p);
    cap += tech.cox_per_area * w * tech.l_min +
           2.0 * tech.c_overlap_per_width * w;
  }
  return cap;
}

double CellType::drive_resistance_estimate(const TechParams& tech) const {
  // Effective pull-down resistance of the worst NMOS path at VDD input,
  // crude EKV saturation estimate; only used for simulation-window sizing.
  MosParams p;
  p.nmos = true;
  p.w = tech.w_min_n * static_cast<double>(strength_);
  p.l = tech.l_min;
  p.vth = tech.vth_n;
  p.n_slope = tech.n_slope_n;
  p.kp = tech.kp_n;
  p.lambda = tech.lambda_n;
  p.vt_thermal = tech.vt_thermal;
  const MosEval e = mos_eval(p, tech.vdd, tech.vdd, 0.0);
  const double i_on = std::max(e.ids, 1e-12);
  return static_cast<double>(topology().stack_n) * tech.vdd / (2.0 * i_on);
}

CellLibrary CellLibrary::standard() {
  CellLibrary lib;
  const CellFunc funcs[] = {CellFunc::kInv,   CellFunc::kBuf,
                            CellFunc::kNand2, CellFunc::kNor2,
                            CellFunc::kAoi21, CellFunc::kOai21};
  for (CellFunc f : funcs) {
    for (int s : {1, 2, 4, 8}) lib.cells_.emplace_back(f, s);
  }
  return lib;
}

const CellType& CellLibrary::by_name(const std::string& name) const {
  for (const auto& c : cells_) {
    if (c.name() == name) return c;
  }
  throw std::out_of_range("CellLibrary: unknown cell " + name);
}

const CellType& CellLibrary::by_func(CellFunc func, int strength) const {
  for (const auto& c : cells_) {
    if (c.func() == func && c.strength() == strength) return c;
  }
  throw std::out_of_range("CellLibrary: unknown func/strength");
}

bool CellLibrary::contains(const std::string& name) const {
  return std::any_of(cells_.begin(), cells_.end(),
                     [&](const CellType& c) { return c.name() == name; });
}

}  // namespace nsdc
