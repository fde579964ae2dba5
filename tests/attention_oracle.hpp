// Shared by the attention differential tests (test_tensor, test_autograd):
// the unfused chain tensor::attention replaces, bitwise comparison, and the
// sizes and masks the tests sweep.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
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
