#pragma once
// SPEF-lite: a compact SPEF-flavoured exchange format for per-net RC trees.
// The full IEEE 1481 grammar is deliberately out of scope; this subset
// carries exactly what the timing flow consumes (tree topology, R, C, sink
// pins) and round-trips losslessly through ParasiticDb.
//
//   *SPEF nsdc-lite 1
//   *DESIGN <name>
//   *D_NET <net_name> <total_cap_farads>
//   *NODES <count>
//   <idx> <parent_idx> <r_ohms> <c_farads>     (one line per non-root node)
//   *SINKS
//   <pin_name> <node_idx>
//   *END

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "parasitics/rctree.hpp"
#include "util/diag.hpp"

namespace nsdc {

/// Net-name -> RC tree storage for a whole design, hashed by name. The
/// iteration order of all() is unspecified; to_spef writes the nets sorted
/// by name.
class ParasiticDb {
 public:
  /// Hashes a std::string and a std::string_view alike, so find() builds no
  /// key. Not noexcept: libstdc++ then stores each name's hash in its node,
  /// and a lookup compares hashes before names.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  using NetMap =
      std::unordered_map<std::string, RcTree, NameHash, std::equal_to<>>;

  void add(const std::string& net, RcTree tree);
  bool contains(const std::string& net) const;
  const RcTree& net(const std::string& net_name) const;
  /// The net's tree, or nullptr when it has none: one lookup where
  /// contains() + net() take two, and no key string is built.
  const RcTree* find(std::string_view net_name) const;
  std::size_t size() const { return nets_.size(); }
  const NetMap& all() const { return nets_; }

  /// Serializes to SPEF-lite text, one *D_NET per net in name order.
  std::string to_spef(const std::string& design_name) const;
  /// Parses SPEF-lite text. Node lines must come in index order, each with
  /// a parent below its own index: the parent < child order RcTree::elmore
  /// sweeps in. With `diags == nullptr` (default) malformed input, a node
  /// out of order included, throws std::runtime_error with a line number.
  /// With a sink each problem becomes a "parse.spef" Diagnostic (1-based
  /// line) and parsing RECOVERS: unparseable or out-of-order node lines
  /// are skipped, negative R/C values are clamped to zero (warn), and
  /// invalid sink nodes are dropped. Run the parasitic lint rules on the
  /// result to judge the damage.
  static ParasiticDb from_spef(const std::string& text,
                               std::vector<Diagnostic>* diags = nullptr);

  bool save(const std::string& path, const std::string& design_name) const;
  /// Reads `path` and parses it with from_spef, forwarding `diags`.
  /// std::nullopt when the file cannot be opened or is a directory.
  static std::optional<ParasiticDb> load(
      const std::string& path, std::vector<Diagnostic>* diags = nullptr);

 private:
  NetMap nets_;
};

}  // namespace nsdc
