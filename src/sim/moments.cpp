#include "sim/moments.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"

namespace gnntrans::sim {

using rcnet::NodeId;
using rcnet::RcNet;

namespace {

constexpr std::uint32_t kUnseen = std::uint32_t(-1);

/// A spanning tree of the resistor graph rooted at the source, plus the
/// resistors it leaves out (one per independent loop).
struct SpanningTree {
  std::vector<NodeId> order;         ///< breadth-first from the source
  std::vector<std::uint32_t> up;     ///< per node: its resistor toward the source
  std::vector<std::uint32_t> loops;  ///< indices of the off-tree resistors
};

/// Breadth-first spanning tree over a flat incidence list (resistor indices
/// grouped by node). Throws when a node is unreachable from the source.
SpanningTree spanning_tree(const RcNet& net) {
  const std::size_t n = net.node_count();
  const std::vector<rcnet::Resistor>& res = net.resistors;
  // first[v] .. first[v + 1] delimit node v's slots once the fill is done.
  std::vector<std::uint32_t> first(n + 1, 0);
  for (const rcnet::Resistor& r : res) ++first[r.a], ++first[r.b];
  for (std::size_t v = 1; v < n; ++v) first[v] += first[v - 1];
  first[n] = static_cast<std::uint32_t>(2 * res.size());
  std::vector<std::uint32_t> slot(2 * res.size());
  for (std::size_t i = res.size(); i-- > 0;) {
    slot[--first[res[i].a]] = static_cast<std::uint32_t>(i);
    slot[--first[res[i].b]] = static_cast<std::uint32_t>(i);
  }

  SpanningTree t{{net.source}, std::vector<std::uint32_t>(n, kUnseen), {}};
  t.order.reserve(n);
  t.up[net.source] = kUnseen - 1;
  for (std::size_t head = 0; head < t.order.size(); ++head) {
    const NodeId v = t.order[head];
    for (std::uint32_t s = first[v]; s < first[v + 1]; ++s) {
      const NodeId u = res[slot[s]].a ^ res[slot[s]].b ^ v;
      if (t.up[u] != kUnseen) continue;
      t.up[u] = slot[s];
      t.order.push_back(u);
    }
  }
  if (t.order.size() != n)
    throw std::runtime_error("compute_moments: net '" + net.name + "' is disconnected");
  for (std::uint32_t i = 0; i < res.size(); ++i)
    if (t.up[res[i].a] != i && t.up[res[i].b] != i) t.loops.push_back(i);
  return t;
}

/// Solves G_T x = b in place, G_T being the tree's conductance matrix with
/// the source grounded: subtree currents summed toward the source, then
/// R_edge * I drops accumulated away from it. With b = C this is Elmore path
/// tracing. \p current is scratch of the same size.
void tree_solve(const RcNet& net, const SpanningTree& t, std::span<double> x,
                std::vector<double>& current) {
  std::copy(x.begin(), x.end(), current.begin());
  for (std::size_t i = t.order.size(); i-- > 1;) {
    const NodeId v = t.order[i];
    const rcnet::Resistor& r = net.resistors[t.up[v]];
    current[r.a ^ r.b ^ v] += current[v];
  }
  x[t.order[0]] = 0.0;
  for (std::size_t i = 1; i < t.order.size(); ++i) {
    const NodeId v = t.order[i];
    const rcnet::Resistor& r = net.resistors[t.up[v]];
    x[v] = x[r.a ^ r.b ^ v] + r.ohms * current[v];
  }
}

}  // namespace

Moments compute_moments(const RcNet& net) {
  const SpanningTree tree = spanning_tree(net);
  const std::size_t n = net.node_count();
  const std::size_t k = tree.loops.size();
  std::vector<double> current(n);

  // Loop j adds g_j u_j u_j^T to G_T, with u_j = e_a - e_b. Sherman-Morrison-
  // Woodbury: G^-1 b = y - Z S^-1 U^T y, with y = G_T^-1 b, Z = G_T^-1 U and
  // the k x k SPD system S = diag(R_loop) + U^T Z.
  auto across = [&](std::span<const double> x, std::size_t j) {
    const rcnet::Resistor& r = net.resistors[tree.loops[j]];
    return x[r.a] - x[r.b];
  };
  std::vector<double> z(k * n, 0.0);
  linalg::Matrix s(k, k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::span<double> col(z.data() + j * n, n);
    const rcnet::Resistor& r = net.resistors[tree.loops[j]];
    col[r.a] += 1.0;
    col[r.b] -= 1.0;
    tree_solve(net, tree, col, current);
    s(j, j) = r.ohms;
    for (std::size_t i = 0; i < k; ++i) s(i, j) += across(col, i);
  }
  const auto chol = linalg::CholeskyFactor::factor(s);
  if (!chol)
    throw std::runtime_error("compute_moments: loop system of net '" + net.name +
                             "' is not SPD");
  std::vector<double> t(k);
  auto solve = [&](std::vector<double>& x) {
    tree_solve(net, tree, x, current);
    if (k == 0) return;
    for (std::size_t j = 0; j < k; ++j) t[j] = across(x, j);
    const std::vector<double> w = chol->solve(t);
    for (std::size_t j = 0; j < k; ++j)
      for (std::size_t v = 0; v < n; ++v) x[v] -= z[j * n + v] * w[j];
  };

  // m_{k+1} = G^-1 (C .* m_k), with m_0 = all-ones; coupling caps grounded.
  std::vector<double> caps = net.ground_cap;
  for (const rcnet::CouplingCap& cc : net.couplings) caps[cc.victim_node] += cc.farads;
  Moments out;
  out.m1 = caps;
  solve(out.m1);
  out.m2 = out.m1;
  for (std::size_t v = 0; v < n; ++v) out.m2[v] *= caps[v];
  solve(out.m2);
  out.m3 = out.m2;
  for (std::size_t v = 0; v < n; ++v) out.m3[v] *= caps[v];
  solve(out.m3);
  return out;
}

std::vector<double> d2m_from_moments(const Moments& moments) {
  constexpr double kLn2 = 0.693147180559945309;
  std::vector<double> d2m(moments.m1.size(), 0.0);
  for (std::size_t i = 0; i < d2m.size(); ++i) {
    const double m2 = moments.m2[i];
    d2m[i] = (m2 > 0.0) ? kLn2 * moments.m1[i] * moments.m1[i] / std::sqrt(m2) : 0.0;
  }
  return d2m;
}

}  // namespace gnntrans::sim
