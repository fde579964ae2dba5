// Shared by the attention differential tests (test_tensor, test_autograd):
// the unfused chain tensor::attention replaces, the libm softmax it replaced
// in turn, bitwise comparison, and the sizes and masks the tests sweep.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace attention_oracle {

using gnntrans::tensor::Tensor;

inline const std::vector<std::size_t> kSizes{1, 2, 3, 5, 16, 40, 127, 300};
inline const std::vector<std::size_t> kWidths{1, 3, 4, 8};

/// The oracle: the op chain SelfAttentionLayer ran before the fused kernel.
inline Tensor chain(const Tensor& q, const Tensor& k, const Tensor& v, float s,
                    const std::vector<std::uint8_t>& mask) {
  namespace t = gnntrans::tensor;
  const Tensor scores = t::scale(t::matmul_nt(q, k), s);
  return t::matmul(mask.empty() ? t::softmax_rows(scores)
                                : t::masked_softmax_rows(scores, mask),
                   v);
}

/// The softmax numerics before the owned exp (test-only reference): libm
/// std::exp and a denominator summed in key order, masked entries 0 and fully
/// masked rows all zero. No autograd.
inline Tensor libm_softmax_rows(const Tensor& a, const std::vector<std::uint8_t>& mask) {
  const std::size_t n = a.rows(), m = a.cols();
  Tensor out(n, m);
  for (std::size_t r = 0; r < n; ++r) {
    const float* x = a.values().data() + r * m;
    float* y = out.values().data() + r * m;
    auto on = [&](std::size_t c) { return mask.empty() || mask[r * m + c] != 0; };
    float max_v = -std::numeric_limits<float>::infinity();
    bool any = false;
    for (std::size_t c = 0; c < m; ++c)
      if (on(c)) {
        max_v = std::max(max_v, x[c]);
        any = true;
      }
    if (!any) continue;
    float denom = 0.0f;
    for (std::size_t c = 0; c < m; ++c)
      if (on(c)) {
        y[c] = std::exp(x[c] - max_v);
        denom += y[c];
      }
    for (std::size_t c = 0; c < m; ++c) y[c] /= denom;
  }
  return out;
}

/// The chain with libm_softmax_rows in place of the current softmax.
inline Tensor libm_chain(const Tensor& q, const Tensor& k, const Tensor& v, float s,
                         const std::vector<std::uint8_t>& mask) {
  namespace t = gnntrans::tensor;
  return t::matmul(libm_softmax_rows(t::scale(t::matmul_nt(q, k), s), mask), v);
}

/// Bit-for-bit equality of two float ranges: +0 and -0 differ, as do NaN
/// payloads. Reports the first differing element.
inline ::testing::AssertionResult bitwise_equal(std::span<const float> a,
                                                std::span<const float> b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "sizes " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint32_t ua = 0, ub = 0;
    std::memcpy(&ua, &a[i], sizeof ua);
    std::memcpy(&ub, &b[i], sizeof ub);
    if (ua != ub)
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " (0x" << std::hex << ua << ") vs "
             << b[i] << " (0x" << ub << ")";
  }
  return ::testing::AssertionSuccess();
}

inline Tensor uniform(std::size_t rows, std::size_t cols, float lo, float hi,
                      std::mt19937_64& rng, bool requires_grad = false) {
  std::uniform_real_distribution<float> dist(lo, hi);
  Tensor t(rows, cols, requires_grad);
  for (float& v : t.values()) v = dist(rng);
  return t;
}

/// Random n*m neighbour-style mask: about half the entries on, and every
/// fourth row (rows 1, 5, 9, ...) fully masked.
inline std::vector<std::uint8_t> random_mask(std::size_t n, std::size_t m,
                                             std::mt19937_64& rng) {
  std::bernoulli_distribution on(0.5);
  std::vector<std::uint8_t> mask(n * m);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < m; ++c) mask[r * m + c] = r % 4 != 1 && on(rng) ? 1 : 0;
  return mask;
}

}  // namespace attention_oracle
