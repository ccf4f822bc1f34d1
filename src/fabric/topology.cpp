#include "fabric/topology.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace nicbar::fabric {

namespace {

const char* kind_name(Kind k) { return k == Kind::kFatTree ? "fat-tree" : "leaf-spine"; }

/// Shared parameter validation + (u, h) split. Throws with the topology
/// name so `nicbar_run` can surface the message verbatim.
Fabric resolve_shape(Kind kind, std::size_t nodes, std::size_t radix, std::size_t oversub) {
  const std::string name = kind_name(kind);
  if (radix < 3) {
    throw std::invalid_argument(name + " radix must be >= 3 (got " + std::to_string(radix) +
                                "): a leaf needs at least one host port and one uplink");
  }
  if (oversub < 1) {
    throw std::invalid_argument(name + " oversubscription ratio must be >= 1 (got 0)");
  }
  if (nodes == 0) {
    throw std::invalid_argument(name + " needs at least one node (got 0)");
  }
  Fabric f;
  f.kind = kind;
  f.nodes = nodes;
  f.radix = radix;
  f.oversub = oversub;
  f.uplinks_per_leaf = std::max<std::size_t>(1, radix / (1 + oversub));
  f.hosts_per_leaf = radix - f.uplinks_per_leaf;
  f.num_leaves = (nodes + f.hosts_per_leaf - 1) / f.hosts_per_leaf;
  return f;
}

void check_capacity(const Fabric& f) {
  if (f.nodes <= f.capacity) return;
  throw std::invalid_argument(
      std::string(kind_name(f.kind)) + "(radix=" + std::to_string(f.radix) +
      ", oversub=" + std::to_string(f.oversub) + ") caps at " + std::to_string(f.capacity) +
      " nodes across " + std::to_string(f.levels) + " levels (" +
      std::to_string(f.hosts_per_leaf) + " hosts/leaf); got " + std::to_string(f.nodes));
}

void attach_terminals(net::Network& net, const Fabric& f, const std::vector<int>& leaves) {
  for (std::size_t n = 0; n < f.nodes; ++n) {
    const net::NodeId t = net.add_terminal();
    net.connect_terminal(t, leaves[n / f.hosts_per_leaf], n % f.hosts_per_leaf);
  }
}

void install_provider(net::Network& net, const Fabric& f) {
  net.set_route_provider([f](net::NodeId src, net::NodeId dst) { return f.route(src, dst); });
  net.finalize();
}

}  // namespace

std::size_t Fabric::leaf_population(std::size_t leaf) const {
  const std::size_t first = leaf * hosts_per_leaf;
  if (first >= nodes) return 0;
  return std::min(hosts_per_leaf, nodes - first);
}

net::Route Fabric::route(net::NodeId src, net::NodeId dst) const {
  if (src == dst) return {};
  const std::size_t h = hosts_per_leaf;
  const std::size_t u = uplinks_per_leaf;
  const auto host_port = static_cast<std::uint8_t>(dst % h);
  const std::size_t src_leaf = src / h;
  const std::size_t dst_leaf = dst / h;
  if (src_leaf == dst_leaf) return {host_port};

  // Per-destination spreading: every source picks the same uplink column
  // (and, three levels up, the same core column) for a given destination.
  const auto up = static_cast<std::uint8_t>(h + dst % u);
  if (levels == 2) {
    // leaf --up--> spine (dst % u) --port dst_leaf--> leaf --> host.
    return {up, static_cast<std::uint8_t>(dst_leaf), host_port};
  }
  const std::size_t src_pod = src_leaf / leaves_per_pod;
  const std::size_t dst_pod = dst_leaf / leaves_per_pod;
  const auto dst_leaf_in_pod = static_cast<std::uint8_t>(dst_leaf % leaves_per_pod);
  if (src_pod == dst_pod) {
    // leaf --up--> agg (pod, dst % u) --down--> leaf --> host.
    return {up, dst_leaf_in_pod, host_port};
  }
  // leaf --up--> agg --core column (dst / u) % u--> core --port dst_pod-->
  // agg (dst_pod, dst % u) --down--> leaf --> host.
  const auto core_col = static_cast<std::uint8_t>(h + (dst / u) % u);
  return {up, core_col, static_cast<std::uint8_t>(dst_pod), dst_leaf_in_pod, host_port};
}

Fabric build_leaf_spine(net::Network& net, std::size_t nodes, std::size_t radix,
                        std::size_t oversub) {
  Fabric f = resolve_shape(Kind::kLeafSpine, nodes, radix, oversub);
  f.levels = 2;
  f.capacity = f.radix * f.hosts_per_leaf;  // spine has `radix` leaf-facing ports
  check_capacity(f);

  std::vector<int> leaves;
  leaves.reserve(f.num_leaves);
  for (std::size_t i = 0; i < f.num_leaves; ++i) leaves.push_back(net.add_switch(f.radix));
  // The full spine column is always built, even for partial fabrics, so
  // `dst % u` spreading addresses the same switches at any N.
  std::vector<int> spines;
  spines.reserve(f.uplinks_per_leaf);
  for (std::size_t j = 0; j < f.uplinks_per_leaf; ++j) spines.push_back(net.add_switch(f.radix));
  for (std::size_t i = 0; i < f.num_leaves; ++i) {
    for (std::size_t j = 0; j < f.uplinks_per_leaf; ++j) {
      net.connect_switches(leaves[i], f.hosts_per_leaf + j, spines[j], i);
    }
  }
  attach_terminals(net, f, leaves);
  install_provider(net, f);
  return f;
}

Fabric build_fat_tree(net::Network& net, std::size_t nodes, std::size_t radix,
                      std::size_t oversub) {
  Fabric f = resolve_shape(Kind::kFatTree, nodes, radix, oversub);
  const std::size_t h = f.hosts_per_leaf;
  const std::size_t u = f.uplinks_per_leaf;

  if (nodes <= radix * h) {
    // Two levels suffice: structurally the leaf-spine wiring, kept under
    // the fat-tree name so the same CLI/topology key scales through the
    // 2→3 level transition without re-selection.
    f.levels = 2;
    f.capacity = radix * h * h;  // named limit is the 3-level ceiling
    std::vector<int> leaves;
    leaves.reserve(f.num_leaves);
    for (std::size_t i = 0; i < f.num_leaves; ++i) leaves.push_back(net.add_switch(radix));
    std::vector<int> spines;
    spines.reserve(u);
    for (std::size_t j = 0; j < u; ++j) spines.push_back(net.add_switch(radix));
    for (std::size_t i = 0; i < f.num_leaves; ++i) {
      for (std::size_t j = 0; j < u; ++j) {
        net.connect_switches(leaves[i], h + j, spines[j], i);
      }
    }
    attach_terminals(net, f, leaves);
    install_provider(net, f);
    return f;
  }

  // Three-level k-ary folded Clos: pods of h leaves and u aggregation
  // switches; agg j of every pod is cabled to core column
  // [j·u, (j+1)·u). Core port index = pod index, so pods ≤ radix.
  f.levels = 3;
  f.leaves_per_pod = h;
  f.capacity = radix * h * h;
  check_capacity(f);
  f.num_pods = (f.num_leaves + h - 1) / h;

  std::vector<int> leaves;
  leaves.reserve(f.num_leaves);
  for (std::size_t i = 0; i < f.num_leaves; ++i) leaves.push_back(net.add_switch(radix));
  std::vector<int> aggs;  // pod-major: agg[p * u + j]
  aggs.reserve(f.num_pods * u);
  for (std::size_t p = 0; p < f.num_pods; ++p) {
    for (std::size_t j = 0; j < u; ++j) aggs.push_back(net.add_switch(radix));
  }
  std::vector<int> cores;  // core[j * u + m]
  cores.reserve(u * u);
  for (std::size_t c = 0; c < u * u; ++c) cores.push_back(net.add_switch(radix));

  for (std::size_t L = 0; L < f.num_leaves; ++L) {
    const std::size_t p = L / h;
    const std::size_t l = L % h;  // agg down-port
    for (std::size_t j = 0; j < u; ++j) {
      net.connect_switches(leaves[L], h + j, aggs[p * u + j], l);
    }
  }
  for (std::size_t p = 0; p < f.num_pods; ++p) {
    for (std::size_t j = 0; j < u; ++j) {
      for (std::size_t m = 0; m < u; ++m) {
        net.connect_switches(aggs[p * u + j], h + m, cores[j * u + m], p);
      }
    }
  }
  attach_terminals(net, f, leaves);
  install_provider(net, f);
  return f;
}

}  // namespace nicbar::fabric
