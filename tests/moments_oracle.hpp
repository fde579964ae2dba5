// Shared by the moment differential tests: the dense MNA solve
// sim::compute_moments replaced (O(n^3) Cholesky on the reduced conductance
// matrix), an oracle-free residual check, and the error measure the tests
// bound.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "rcnet/rcnet.hpp"
#include "sim/moments.hpp"

namespace moments_oracle {

using gnntrans::rcnet::RcNet;
using gnntrans::sim::Moments;

// At least 113 mantissa bits where the compiler has them (long double is
// IEEE quad on, e.g., AArch64 Linux).
#if defined(__SIZEOF_FLOAT128__)
using Quad = __float128;
#else
using Quad = long double;
#endif

/// Node capacitance with coupling caps grounded (Miller-0).
inline std::vector<double> node_caps(const RcNet& net) {
  std::vector<double> c = net.ground_cap;
  for (const auto& cc : net.couplings) c[cc.victim_node] += cc.farads;
  return c;
}

/// The oracle: dense reduced conductance matrix (source row and column
/// dropped), one Cholesky factorization, three solves. Its forward error
/// grows with cond(G): on nets mixing 1e-6 ohm shorts with a 10^6 R range it
/// is off by up to ~5e-5. \p refine_steps > 0 adds that many steps of
/// iterative refinement, which brings it to ~1e-16 there.
inline Moments dense(const RcNet& net, int refine_steps = 0) {
  namespace linalg = gnntrans::linalg;
  const std::size_t n = net.node_count();
  std::vector<std::size_t> index(n, std::size_t(-1));
  std::size_t next = 0;
  for (std::size_t v = 0; v < n; ++v)
    if (v != net.source) index[v] = next++;
  linalg::Matrix g(n - 1, n - 1);
  for (const auto& r : net.resistors) {
    const double cond = 1.0 / r.ohms;
    const std::size_t ia = index[r.a];
    const std::size_t ib = index[r.b];
    if (ia != std::size_t(-1)) g(ia, ia) += cond;
    if (ib != std::size_t(-1)) g(ib, ib) += cond;
    if (ia != std::size_t(-1) && ib != std::size_t(-1)) {
      g(ia, ib) -= cond;
      g(ib, ia) -= cond;
    }
  }
  const auto chol = linalg::CholeskyFactor::factor(g);
  if (!chol) throw std::runtime_error("moments_oracle::dense: G not SPD");
  const std::vector<double> caps = node_caps(net);
  std::vector<double> c(n - 1);
  for (std::size_t v = 0; v < n; ++v)
    if (index[v] != std::size_t(-1)) c[index[v]] = caps[v];

  // Refinement: solve for the correction to the residual b - G x, computed
  // from the resistor list in quad precision. Each step shrinks the error by
  // about cond(G) * eps, so it converges on any net with cond(G) < 1e15.
  auto solve = [&](const std::vector<double>& b) {
    std::vector<double> x = chol->solve(b);
    for (int step = 0; step < refine_steps; ++step) {
      std::vector<Quad> r(b.begin(), b.end());
      for (const auto& res : net.resistors) {
        const std::size_t ia = index[res.a];
        const std::size_t ib = index[res.b];
        const Quad va = ia != std::size_t(-1) ? x[ia] : 0.0;
        const Quad vb = ib != std::size_t(-1) ? x[ib] : 0.0;
        const Quad i = (va - vb) / static_cast<Quad>(res.ohms);
        if (ia != std::size_t(-1)) r[ia] -= i;
        if (ib != std::size_t(-1)) r[ib] += i;
      }
      const std::vector<double> dx = chol->solve(std::vector<double>(r.begin(), r.end()));
      for (std::size_t i = 0; i < x.size(); ++i) x[i] += dx[i];
    }
    return x;
  };
  std::vector<double> rhs = c;
  const std::vector<double> m1r = solve(rhs);
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = c[i] * m1r[i];
  const std::vector<double> m2r = solve(rhs);
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = c[i] * m2r[i];
  const std::vector<double> m3r = solve(rhs);

  Moments out;
  out.m1.assign(n, 0.0);
  out.m2.assign(n, 0.0);
  out.m3.assign(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    if (index[v] == std::size_t(-1)) continue;
    out.m1[v] = m1r[index[v]];
    out.m2[v] = m2r[index[v]];
    out.m3[v] = m3r[index[v]];
  }
  return out;
}

/// max_v |a[v] - b[v]| / max_v |b[v]|: the error relative to the moment
/// vector's own scale (node values span decades, so per-node relative error
/// would over-weight the near-source nodes).
inline double relative_error(const std::vector<double>& a, const std::vector<double>& b) {
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t v = 0; v < b.size(); ++v) {
    diff = std::max(diff, std::abs(a[v] - b[v]));
    scale = std::max(scale, std::abs(b[v]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

/// Worst relative_error over m1, m2 and m3.
inline double worst_error(const Moments& got, const Moments& want) {
  return std::max({relative_error(got.m1, want.m1), relative_error(got.m2, want.m2),
                   relative_error(got.m3, want.m3)});
}

/// Oracle-free check: the normwise MNA residual
///   ||G m_{k+1} - C m_k||_inf / (||G||_inf ||m_{k+1}||_inf)
/// over the non-source rows, worst over k = 0, 1, 2 (m_0 = 1). A backward-
/// stable solve keeps it at a small multiple of machine epsilon whatever the
/// conditioning of G, so it judges a solve where the dense oracle itself is
/// inaccurate.
inline double residual(const RcNet& net, const Moments& m) {
  const std::size_t n = net.node_count();
  const std::vector<double> caps = node_caps(net);
  std::vector<double> g_norm(n, 0.0);
  for (const auto& r : net.resistors) {  // diagonal plus off-diagonal |G_ij|
    g_norm[r.a] += (r.b == net.source ? 1.0 : 2.0) / r.ohms;
    g_norm[r.b] += (r.a == net.source ? 1.0 : 2.0) / r.ohms;
  }
  g_norm[net.source] = 0.0;
  const double g_inf = *std::max_element(g_norm.begin(), g_norm.end());
  const std::vector<double> ones(n, 1.0);
  const std::vector<const std::vector<double>*> chain{&ones, &m.m1, &m.m2, &m.m3};
  double worst = 0.0;
  for (std::size_t k = 0; k < 3; ++k) {
    const std::vector<double>& prev = *chain[k];
    const std::vector<double>& x = *chain[k + 1];
    std::vector<double> r(n, 0.0);
    for (const auto& res : net.resistors) {
      const double i = (x[res.a] - x[res.b]) / res.ohms;
      r[res.a] += i;
      r[res.b] -= i;
    }
    double r_inf = 0.0;
    double x_inf = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      if (v == net.source) continue;
      r_inf = std::max(r_inf, std::abs(r[v] - caps[v] * prev[v]));
      x_inf = std::max(x_inf, std::abs(x[v]));
    }
    worst = std::max(worst, r_inf / (g_inf * x_inf));
  }
  return worst;
}

}  // namespace moments_oracle
