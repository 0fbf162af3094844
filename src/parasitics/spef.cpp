#include "parasitics/spef.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/errors.hpp"

namespace nsdc {

void ParasiticDb::add(const std::string& net, RcTree tree) {
  nets_.insert_or_assign(net, std::move(tree));
}

bool ParasiticDb::contains(const std::string& net) const {
  return find(net) != nullptr;
}

const RcTree& ParasiticDb::net(const std::string& net_name) const {
  const RcTree* tree = find(net_name);
  if (tree == nullptr) {
    throw std::out_of_range("ParasiticDb: no parasitics for net " + net_name);
  }
  return *tree;
}

const RcTree* ParasiticDb::find(std::string_view net_name) const {
  const auto it = nets_.find(net_name);
  return it == nets_.end() ? nullptr : &it->second;
}

std::string ParasiticDb::to_spef(const std::string& design_name) const {
  std::ostringstream os;
  os.precision(12);
  os << "*SPEF nsdc-lite 1\n*DESIGN " << design_name << "\n";
  std::vector<const NetMap::value_type*> by_name;
  by_name.reserve(nets_.size());
  for (const auto& entry : nets_) by_name.push_back(&entry);
  std::sort(by_name.begin(), by_name.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* entry : by_name) {
    const auto& [name, tree] = *entry;
    os << "*D_NET " << name << ' ' << tree.total_cap() << '\n';
    os << "*NODES " << tree.num_nodes() << '\n';
    for (int n = 1; n < tree.num_nodes(); ++n) {
      os << n << ' ' << tree.parent(n) << ' ' << tree.edge_res(n) << ' '
         << tree.node_cap(n) << '\n';
    }
    // Root cap is carried as a pseudo-entry with parent -1.
    if (tree.node_cap(0) > 0.0) {
      os << "0 -1 0 " << tree.node_cap(0) << '\n';
    }
    os << "*SINKS\n";
    for (const auto& s : tree.sinks()) {
      os << s.pin << ' ' << s.node << '\n';
    }
    os << "*END\n";
  }
  return os.str();
}

ParasiticDb ParasiticDb::from_spef(const std::string& text,
                                   std::vector<Diagnostic>* diags) {
  ParasiticDb db;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  std::string cur_net;
  // Without a sink the first problem throws (historical behavior); with a
  // sink it becomes a Diagnostic, `fail` returns, and the offending line
  // is skipped (or its value clamped).
  auto report = [&](Severity sev, const std::string& why,
                    const std::string& hint) {
    if (diags == nullptr) {
      throw ParseError("SPEF-lite parse error at line " +
                               std::to_string(lineno) + ": " + why);
    }
    diags->push_back({sev, "parse.spef",
                      cur_net.empty() ? "line:" + std::to_string(lineno)
                                      : "net:" + cur_net,
                      why, hint, lineno});
  };
  auto fail = [&](const std::string& why) {
    report(Severity::kError, why, "line skipped");
  };

  RcTree cur_tree;
  enum class Section { kNone, kNodes, kSinks };
  Section section = Section::kNone;

  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tok;
    ls >> tok;
    if (tok == "*SPEF" || tok == "*DESIGN") continue;
    if (tok == "*D_NET") {
      if (!cur_net.empty()) {
        fail("*D_NET before *END of previous net");
        db.add(cur_net, std::move(cur_tree));  // implicit *END (diag mode)
      }
      cur_net.clear();
      if (!(ls >> cur_net)) {
        fail("missing net name");
        continue;
      }
      cur_tree = RcTree();
      section = Section::kNone;
      continue;
    }
    if (tok == "*NODES") {
      section = Section::kNodes;
      continue;
    }
    if (tok == "*SINKS") {
      section = Section::kSinks;
      continue;
    }
    if (tok == "*END") {
      if (cur_net.empty()) {
        fail("*END without *D_NET");
        continue;
      }
      db.add(cur_net, std::move(cur_tree));
      cur_net.clear();
      cur_tree = RcTree();
      section = Section::kNone;
      continue;
    }
    if (cur_net.empty()) {
      fail("content outside *D_NET block");
      continue;
    }
    if (section == Section::kNodes) {
      int idx = 0, parent = 0;
      double r = 0.0, c = 0.0;
      std::istringstream ns(line);
      if (!(ns >> idx >> parent >> r >> c)) {
        fail("bad node line");
        continue;
      }
      if (r < 0.0 || c < 0.0) {
        report(Severity::kWarn,
               std::string("negative ") +
                   (r < 0.0 ? "resistance" : "capacitance") + " at node " +
                   std::to_string(idx),
               "value clamped to 0");
        r = std::max(r, 0.0);
        c = std::max(c, 0.0);
      }
      if (idx == 0 && parent == -1) {
        cur_tree.add_cap(0, c);
        continue;
      }
      if (idx != cur_tree.num_nodes()) {
        fail("nodes must be listed in order");
        continue;
      }
      if (parent < 0 || parent >= cur_tree.num_nodes()) {
        fail("node parent " + std::to_string(parent) + " out of range");
        continue;
      }
      cur_tree.add_node(parent, r, c);
    } else if (section == Section::kSinks) {
      std::string pin;
      int node = 0;
      std::istringstream ss(line);
      if (!(ss >> pin >> node)) {
        fail("bad sink line");
        continue;
      }
      if (node <= 0 || node >= cur_tree.num_nodes()) {
        fail("sink '" + pin + "' marks invalid node " + std::to_string(node));
        continue;
      }
      cur_tree.mark_sink(node, pin);
    } else {
      fail("unexpected line");
    }
  }
  if (!cur_net.empty()) {
    if (diags == nullptr) {
      throw ParseError("SPEF-lite parse error: missing final *END");
    }
    report(Severity::kError, "missing final *END", "net kept");
    db.add(cur_net, std::move(cur_tree));
  }
  return db;
}

bool ParasiticDb::save(const std::string& path,
                       const std::string& design_name) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_spef(design_name);
  return static_cast<bool>(f);
}

std::optional<ParasiticDb> ParasiticDb::load(const std::string& path,
                                             std::vector<Diagnostic>* diags) {
  std::ifstream f(path);
  // std::ifstream opens a directory too, and reads nothing from it.
  if (!f || std::filesystem::is_directory(path)) return std::nullopt;
  std::ostringstream ss;
  ss << f.rdbuf();
  return from_spef(ss.str(), diags);
}

}  // namespace nsdc
