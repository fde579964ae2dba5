#include "rcnet/rcnet.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/hash.hpp"

namespace gnntrans::rcnet {

// The content hash is the FNV word fold + splitmix64 finalizer of
// core/hash.hpp. Doubles fold by raw bit pattern: cache hits must be *bitwise*
// identical to recomputation, so the key must distinguish values that differ
// in even one ULP.
using core::fnv_fold;
using core::splitmix64_finalize;

bool RcNet::is_tree() const {
  if (node_count() == 0) return false;
  return resistors.size() == node_count() - 1 && is_connected(*this);
}

double RcNet::total_ground_cap() const noexcept {
  return std::accumulate(ground_cap.begin(), ground_cap.end(), 0.0);
}

double RcNet::total_coupling_cap() const noexcept {
  double acc = 0.0;
  for (const CouplingCap& c : couplings) acc += c.farads;
  return acc;
}

double RcNet::total_resistance() const noexcept {
  double acc = 0.0;
  for (const Resistor& r : resistors) acc += r.ohms;
  return acc;
}

std::vector<std::string> RcNet::validate(std::uint64_t* content_hash) const {
  std::vector<std::string> errors;
  std::uint64_t hash = core::kFnvBasis;
  const std::size_t n = node_count();
  fnv_fold(hash, static_cast<std::uint64_t>(n));
  fnv_fold(hash, static_cast<std::uint64_t>(source));
  fnv_fold(hash, static_cast<std::uint64_t>(sinks.size()));
  if (n == 0) {
    errors.push_back("net has no nodes");
    if (content_hash != nullptr) *content_hash = splitmix64_finalize(hash);
    return errors;
  }
  if (source >= n) errors.push_back("source node out of range");
  if (sinks.empty()) errors.push_back("net has no sinks");
  std::vector<bool> sink_seen(n, false);
  for (NodeId s : sinks) {
    fnv_fold(hash, static_cast<std::uint64_t>(s));
    if (s >= n) {
      errors.push_back("sink node out of range");
    } else {
      if (s == source) errors.push_back("sink coincides with source");
      if (sink_seen[s])
        errors.push_back("duplicate sink node " + std::to_string(s));
      sink_seen[s] = true;
    }
  }
  std::vector<std::pair<NodeId, NodeId>> edge_keys;
  edge_keys.reserve(resistors.size());
  fnv_fold(hash, static_cast<std::uint64_t>(resistors.size()));
  for (std::size_t i = 0; i < resistors.size(); ++i) {
    const Resistor& r = resistors[i];
    fnv_fold(hash, (static_cast<std::uint64_t>(r.a) << 32) |
                   static_cast<std::uint64_t>(r.b));
    fnv_fold(hash, r.ohms);
    if (r.a >= n || r.b >= n)
      errors.push_back("resistor " + std::to_string(i) + " endpoint out of range");
    else if (r.a == r.b)
      errors.push_back("resistor " + std::to_string(i) + " is a self loop");
    else
      edge_keys.push_back(std::minmax(r.a, r.b));
    if (!(r.ohms > 0.0))
      errors.push_back("resistor " + std::to_string(i) + " has non-positive value");
  }
  // Parallel resistors between one node pair mean the extractor emitted the
  // same segment twice — a malformed netlist, not a legitimate loop.
  std::sort(edge_keys.begin(), edge_keys.end());
  for (std::size_t i = 1; i < edge_keys.size(); ++i)
    if (edge_keys[i] == edge_keys[i - 1])
      errors.push_back("duplicate resistor between nodes " +
                       std::to_string(edge_keys[i].first) + " and " +
                       std::to_string(edge_keys[i].second));
  for (std::size_t i = 0; i < n; ++i) {
    fnv_fold(hash, ground_cap[i]);
    if (!(ground_cap[i] > 0.0))
      errors.push_back("node " + std::to_string(i) + " has non-positive ground cap");
  }
  fnv_fold(hash, static_cast<std::uint64_t>(couplings.size()));
  for (std::size_t i = 0; i < couplings.size(); ++i) {
    fnv_fold(hash, static_cast<std::uint64_t>(couplings[i].victim_node));
    fnv_fold(hash, couplings[i].farads);
    fnv_fold(hash, couplings[i].aggressor_seed);
    if (couplings[i].victim_node >= n)
      errors.push_back("coupling " + std::to_string(i) + " victim out of range");
    if (!(couplings[i].farads > 0.0))
      errors.push_back("coupling " + std::to_string(i) + " has non-positive value");
  }
  if (content_hash != nullptr) *content_hash = splitmix64_finalize(hash);
  if (errors.empty()) {
    // Loop sanity: a connected graph has resistors >= n-1; the surplus is the
    // independent-loop count. A mesh denser than one loop per node is outside
    // anything extraction produces and would blow up path enumeration.
    const std::size_t loops = resistors.size() - (n - 1);
    if (resistors.size() >= n && loops > n)
      errors.push_back("implausible loop count " + std::to_string(loops) +
                       " for " + std::to_string(n) + " nodes");

    // Per-node reachability from the source: name dangling nodes and each
    // unreachable sink individually rather than one generic message.
    const Adjacency adj = build_adjacency(*this);
    std::vector<bool> seen(n, false);
    std::vector<NodeId> stack{source};
    seen[source] = true;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const Neighbor& nb : adj[v])
        if (!seen[nb.node]) {
          seen[nb.node] = true;
          stack.push_back(nb.node);
        }
    }
    for (NodeId s : sinks)
      if (!seen[s])
        errors.push_back("sink " + std::to_string(s) +
                         " unreachable from source");
    for (std::size_t v = 0; v < n; ++v) {
      if (seen[v]) continue;
      if (adj[v].empty())
        errors.push_back("node " + std::to_string(v) +
                         " is dangling (no resistor attached)");
      else if (!sink_seen[v])
        errors.push_back("node " + std::to_string(v) +
                         " disconnected from source");
    }
  }
  return errors;
}

Adjacency build_adjacency(const RcNet& net) {
  Adjacency adj(net.node_count());
  for (std::size_t i = 0; i < net.resistors.size(); ++i) {
    const Resistor& r = net.resistors[i];
    adj[r.a].push_back({r.b, static_cast<std::uint32_t>(i)});
    adj[r.b].push_back({r.a, static_cast<std::uint32_t>(i)});
  }
  return adj;
}

bool is_connected(const RcNet& net) {
  const std::size_t n = net.node_count();
  if (n == 0) return true;
  const Adjacency adj = build_adjacency(net);
  std::vector<bool> seen(n, false);
  std::vector<NodeId> stack{net.source < n ? net.source : NodeId{0}};
  seen[stack.back()] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (const Neighbor& nb : adj[v]) {
      if (!seen[nb.node]) {
        seen[nb.node] = true;
        ++visited;
        stack.push_back(nb.node);
      }
    }
  }
  return visited == n;
}

}  // namespace gnntrans::rcnet
