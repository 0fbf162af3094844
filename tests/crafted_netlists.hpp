#pragma once
// Small hand-built netlists shared by the statistical-engine tests.

#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "pdk/cells.hpp"

namespace nsdc::testfix {

/// PIs a, b, c; c is directly a PO. The deep cone is built first, so its
/// POs get the lowest net ids but finish at the latest levels, and the
/// shallow POs created after it finish first and wait for them in the
/// circuit fold. d2 is a PO that also feeds d3; r reconverges d1 and s1.
inline GateNetlist crafted_endpoint_netlist(const CellLibrary& cells) {
  const CellType& inv = cells.by_name("INVx1");
  const CellType& nand = cells.by_name("NAND2x1");
  const CellType& nor = cells.by_name("NOR2x1");
  GateNetlist nl("endpoints");
  const int a = nl.add_primary_input("a");
  const int b = nl.add_primary_input("b");
  const int c = nl.add_primary_input("c");
  nl.mark_primary_output(c);
  auto gate = [&](const CellType& type, std::vector<int> fanin,
                  const std::string& out) {
    return nl.cell(nl.add_cell("u_" + out, type, fanin, out)).out_net;
  };
  std::vector<int> d;
  for (int i = 0; i < 6; ++i) {
    const int in = i == 0 ? a : d.back();
    const std::string out = "d" + std::to_string(i);
    d.push_back(i % 2 == 0 ? gate(inv, {in}, out) : gate(nand, {in, b}, out));
  }
  nl.mark_primary_output(d[2]);
  nl.mark_primary_output(d[5]);
  const int s1 = gate(nor, {d[0], c}, "s1");
  const int s0 = gate(nand, {b, c}, "s0");
  const int r = gate(nand, {d[1], s1}, "r");
  for (const int po : {s1, s0, r}) nl.mark_primary_output(po);
  return nl;
}

}  // namespace nsdc::testfix
