// Finite-difference gradient verification for every differentiable op and for
// the composite layers used by the models. This is the load-bearing test file
// for training correctness: any backward-formula bug fails here.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <random>
#include <string>

#include "attention_oracle.hpp"
#include "nn/layers.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace gnntrans::tensor;

/// Central-difference check of d(loss)/d(param) for every element of every
/// parameter. `loss_fn` must re-run the full forward pass on each call.
void check_gradients(const std::function<Tensor()>& loss_fn,
                     std::vector<Tensor> params, float eps = 1e-2f,
                     float tol = 2e-2f) {
  // Analytic gradients.
  for (Tensor& p : params) p.zero_grad();
  Tensor loss = loss_fn();
  loss.backward();

  std::vector<std::vector<float>> analytic;
  for (Tensor& p : params) {
    ASSERT_FALSE(p.grad().empty());
    analytic.emplace_back(p.grad().begin(), p.grad().end());
  }

  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& p = params[pi];
    for (std::size_t i = 0; i < p.size(); ++i) {
      const float saved = p.values()[i];
      float plus, minus;
      {
        NoGradGuard guard;
        p.values()[i] = saved + eps;
        plus = loss_fn().item();
        p.values()[i] = saved - eps;
        minus = loss_fn().item();
        p.values()[i] = saved;
      }
      const float numeric = (plus - minus) / (2 * eps);
      const float exact = analytic[pi][i];
      const float denom = std::max({1.0f, std::abs(numeric), std::abs(exact)});
      EXPECT_NEAR(numeric / denom, exact / denom, tol)
          << "param " << pi << " element " << i;
    }
  }
}

Tensor rand_tensor(std::size_t r, std::size_t c, std::mt19937_64& rng,
                   bool grad = true) {
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  Tensor t(r, c, grad);
  for (float& v : t.values()) v = dist(rng);
  return t;
}

TEST(GradCheck, Matmul) {
  std::mt19937_64 rng(1);
  Tensor a = rand_tensor(3, 4, rng), b = rand_tensor(4, 2, rng);
  check_gradients([&] { return sum_all(matmul(a, b)); }, {a, b});
}

TEST(GradCheck, MatmulNt) {
  std::mt19937_64 rng(2);
  Tensor a = rand_tensor(3, 4, rng), b = rand_tensor(5, 4, rng);
  check_gradients([&] { return sum_all(mul(matmul_nt(a, b), matmul_nt(a, b))); },
                  {a, b});
}

TEST(GradCheck, Transpose) {
  std::mt19937_64 rng(3);
  Tensor a = rand_tensor(3, 4, rng);
  Tensor w = rand_tensor(3, 4, rng);
  check_gradients([&] { return sum_all(mul(transpose(a), transpose(w))); }, {a, w});
}

TEST(GradCheck, AddSubMulScale) {
  std::mt19937_64 rng(4);
  Tensor a = rand_tensor(3, 3, rng), b = rand_tensor(3, 3, rng);
  check_gradients(
      [&] { return sum_all(mul(add(a, b), sub(scale(a, 0.5f), b))); }, {a, b});
}

TEST(GradCheck, AddRowBroadcast) {
  std::mt19937_64 rng(5);
  Tensor a = rand_tensor(4, 3, rng), bias = rand_tensor(1, 3, rng);
  check_gradients(
      [&] {
        const Tensor y = add_row_broadcast(a, bias);
        return sum_all(mul(y, y));
      },
      {a, bias});
}

TEST(GradCheck, OuterSum) {
  std::mt19937_64 rng(6);
  Tensor s = rand_tensor(4, 1, rng), t = rand_tensor(3, 1, rng);
  check_gradients(
      [&] {
        const Tensor e = outer_sum(s, t);
        return sum_all(mul(e, e));
      },
      {s, t});
}

TEST(GradCheck, ReluAtNonKinkPoints) {
  std::mt19937_64 rng(7);
  Tensor a = rand_tensor(4, 4, rng);
  // Keep values away from the kink so finite differences are valid.
  for (float& v : a.values())
    if (std::abs(v) < 0.1f) v = 0.3f;
  check_gradients([&] { return sum_all(mul(relu(a), relu(a))); }, {a});
}

TEST(GradCheck, LeakyRelu) {
  std::mt19937_64 rng(8);
  Tensor a = rand_tensor(4, 4, rng);
  for (float& v : a.values())
    if (std::abs(v) < 0.1f) v = -0.4f;
  check_gradients([&] { return sum_all(mul(leaky_relu(a), leaky_relu(a))); }, {a});
}

TEST(GradCheck, SigmoidAndTanh) {
  std::mt19937_64 rng(9);
  Tensor a = rand_tensor(3, 3, rng);
  check_gradients([&] { return sum_all(mul(sigmoid(a), tanh_op(a))); }, {a},
                  5e-3f);
}

TEST(GradCheck, SoftmaxRows) {
  std::mt19937_64 rng(10);
  Tensor a = rand_tensor(3, 5, rng);
  Tensor w = rand_tensor(3, 5, rng);
  check_gradients([&] { return sum_all(mul(softmax_rows(a), w)); }, {a}, 5e-3f);
}

TEST(GradCheck, MaskedSoftmaxRows) {
  std::mt19937_64 rng(11);
  Tensor a = rand_tensor(3, 4, rng);
  Tensor w = rand_tensor(3, 4, rng);
  const std::vector<std::uint8_t> mask{1, 1, 0, 1,  0, 1, 1, 0,  1, 0, 0, 1};
  check_gradients([&] { return sum_all(mul(masked_softmax_rows(a, mask), w)); },
                  {a}, 5e-3f);
}

TEST(GradCheck, Attention) {
  std::mt19937_64 rng(27);
  Tensor q = rand_tensor(5, 3, rng), k = rand_tensor(5, 3, rng),
         v = rand_tensor(5, 2, rng);
  Tensor w = rand_tensor(5, 2, rng, /*grad=*/false);
  check_gradients([&] { return sum_all(mul(attention(q, k, v, 0.8f, {}), w)); },
                  {q, k, v}, 5e-3f);
}

TEST(GradCheck, MaskedAttention) {
  std::mt19937_64 rng(28);
  Tensor q = rand_tensor(3, 2, rng), k = rand_tensor(4, 2, rng),
         v = rand_tensor(4, 3, rng);
  Tensor w = rand_tensor(3, 3, rng, /*grad=*/false);
  // Row 1 is fully masked.
  const std::vector<std::uint8_t> mask{1, 0, 1, 1,  0, 0, 0, 0,  0, 1, 1, 0};
  check_gradients([&] { return sum_all(mul(attention(q, k, v, 0.8f, mask), w)); },
                  {q, k, v}, 5e-3f);
}

TEST(GradCheck, ConcatCols) {
  std::mt19937_64 rng(12);
  Tensor a = rand_tensor(3, 2, rng), b = rand_tensor(3, 4, rng),
         c = rand_tensor(3, 1, rng);
  check_gradients(
      [&] {
        const Tensor y = concat_cols({a, b, c});
        return sum_all(mul(y, y));
      },
      {a, b, c});
}

TEST(GradCheck, GatherRows) {
  std::mt19937_64 rng(13);
  Tensor a = rand_tensor(4, 3, rng);
  const std::vector<std::uint32_t> idx{0, 2, 2, 3};
  check_gradients(
      [&] {
        const Tensor y = gather_rows(a, idx);
        return sum_all(mul(y, y));
      },
      {a});
}

TEST(GradCheck, Spmm) {
  std::mt19937_64 rng(14);
  GraphMatrix m(3, 4);
  m.add(0, 1, 0.7f);
  m.add(0, 3, -0.5f);
  m.add(1, 0, 1.2f);
  m.add(2, 2, 0.4f);
  m.add(2, 3, 0.9f);
  Tensor x = rand_tensor(4, 3, rng);
  check_gradients(
      [&] {
        const Tensor y = spmm(m, x);
        return sum_all(mul(y, y));
      },
      {x});
}

TEST(GradCheck, MseLoss) {
  std::mt19937_64 rng(15);
  Tensor pred = rand_tensor(5, 1, rng);
  Tensor target = rand_tensor(5, 1, rng, /*grad=*/false);
  check_gradients([&] { return mse_loss(pred, target); }, {pred});
}

TEST(GradCheck, MeanAll) {
  std::mt19937_64 rng(16);
  Tensor a = rand_tensor(4, 4, rng);
  check_gradients([&] { return mean_all(mul(a, a)); }, {a});
}

// ---- Composite layers: gradients flow through entire blocks ----

TEST(GradCheck, LinearLayer) {
  std::mt19937_64 rng(20);
  gnntrans::nn::Linear layer(4, 3, rng);
  Tensor x = rand_tensor(5, 4, rng, /*grad=*/false);
  std::vector<Tensor> params;
  layer.collect_parameters(params);
  check_gradients(
      [&] {
        const Tensor y = layer.forward(x);
        return sum_all(mul(y, y));
      },
      params);
}

TEST(GradCheck, MlpTwoHidden) {
  std::mt19937_64 rng(21);
  gnntrans::nn::Mlp mlp({3, 6, 6, 1}, rng);
  Tensor x = rand_tensor(4, 3, rng, /*grad=*/false);
  std::vector<Tensor> params;
  mlp.collect_parameters(params);
  // Wider tolerance: hidden ReLU kinks make central differences noisy.
  check_gradients([&] { return sum_all(mlp.forward(x)); }, params, 5e-3f, 8e-2f);
}

TEST(GradCheck, SageConv) {
  std::mt19937_64 rng(22);
  gnntrans::nn::SageConv conv(3, 4, rng);
  GraphMatrix agg(4, 4);
  agg.add(0, 1, 1.0f);
  agg.add(1, 0, 0.5f);
  agg.add(1, 2, 0.5f);
  agg.add(2, 1, 0.6f);
  agg.add(3, 2, 1.0f);
  Tensor x = rand_tensor(4, 3, rng, /*grad=*/false);
  std::vector<Tensor> params;
  conv.collect_parameters(params);
  check_gradients(
      [&] {
        const Tensor y = conv.forward(x, agg);
        return sum_all(mul(y, y));
      },
      params, 1e-2f, 3e-2f);
}

TEST(GradCheck, SelfAttentionGlobal) {
  std::mt19937_64 rng(23);
  gnntrans::nn::SelfAttentionLayer attn(4, 2, rng);
  Tensor x = rand_tensor(5, 4, rng, /*grad=*/false);
  std::vector<Tensor> params;
  attn.collect_parameters(params);
  static const std::vector<std::uint8_t> kNoMask;
  check_gradients(
      [&] {
        const Tensor y = attn.forward(x, kNoMask);
        return sum_all(mul(y, y));
      },
      params, 5e-3f, 3e-2f);
}

TEST(GradCheck, GatLayer) {
  std::mt19937_64 rng(24);
  gnntrans::nn::GatLayer gat(3, 4, 2, rng);
  Tensor x = rand_tensor(4, 3, rng, /*grad=*/false);
  std::vector<std::uint8_t> mask(16, 0);
  for (std::size_t i = 0; i < 4; ++i) mask[i * 4 + i] = 1;
  mask[0 * 4 + 1] = mask[1 * 4 + 0] = 1;
  mask[2 * 4 + 3] = mask[3 * 4 + 2] = 1;
  std::vector<Tensor> params;
  gat.collect_parameters(params);
  check_gradients(
      [&] {
        const Tensor y = gat.forward(x, mask);
        return sum_all(mul(y, y));
      },
      params, 5e-3f, 4e-2f);
}

TEST(GradCheck, GcniiLayer) {
  std::mt19937_64 rng(25);
  gnntrans::nn::GcniiLayer layer(4, 0.1f, 0.4f, rng);
  GraphMatrix prop(3, 3);
  prop.add(0, 0, 0.5f);
  prop.add(0, 1, 0.5f);
  prop.add(1, 1, 0.4f);
  prop.add(1, 0, 0.3f);
  prop.add(1, 2, 0.3f);
  prop.add(2, 2, 0.6f);
  prop.add(2, 1, 0.4f);
  Tensor x = rand_tensor(3, 4, rng, /*grad=*/false);
  Tensor x0 = rand_tensor(3, 4, rng, /*grad=*/false);
  std::vector<Tensor> params;
  layer.collect_parameters(params);
  check_gradients(
      [&] {
        const Tensor y = layer.forward(x, x0, prop);
        return sum_all(mul(y, y));
      },
      params, 1e-2f, 3e-2f);
}

TEST(GradCheck, FeedForward) {
  std::mt19937_64 rng(26);
  gnntrans::nn::FeedForward ffn(4, 8, rng);
  Tensor x = rand_tensor(3, 4, rng, /*grad=*/false);
  std::vector<Tensor> params;
  ffn.collect_parameters(params);
  check_gradients(
      [&] {
        const Tensor y = ffn.forward(x);
        return sum_all(mul(y, y));
      },
      params, 1e-2f, 3e-2f);
}

// ---- Fused attention: gradients bitwise equal to the unfused chain ----

namespace oracle = attention_oracle;

using AttentionFn = std::function<Tensor(const Tensor&, const Tensor&, const Tensor&,
                                         float, const std::vector<std::uint8_t>&)>;

/// Backpropagates sum(f(q, k, v) * w) and returns the grads of q, k and v
/// (empty for an input that does not require grad); clears them afterwards.
std::vector<std::vector<float>> qkv_grads(const AttentionFn& f, Tensor q, Tensor k,
                                          Tensor v, float s,
                                          const std::vector<std::uint8_t>& mask,
                                          const Tensor& w) {
  Tensor loss = sum_all(mul(f(q, k, v, s, mask), w));
  loss.backward();
  std::vector<std::vector<float>> grads;
  for (Tensor* t : {&q, &k, &v}) {
    grads.emplace_back(t->grad().begin(), t->grad().end());
    t->zero_grad();
  }
  return grads;
}

/// Fused and chain gradients for one case, with the inputs flagged in
/// \p needs_grad requiring grad.
void expect_grads_bitwise(std::size_t n, std::size_t dk, std::size_t dv, bool masked,
                          std::array<bool, 3> needs_grad, float s, std::mt19937_64& rng) {
  Tensor q = oracle::uniform(n, dk, -1.5f, 1.5f, rng, needs_grad[0]);
  Tensor k = oracle::uniform(n, dk, -1.5f, 1.5f, rng, needs_grad[1]);
  Tensor v = oracle::uniform(n, dv, -1.0f, 1.0f, rng, needs_grad[2]);
  const Tensor w = oracle::uniform(n, dv, -1.0f, 1.0f, rng);
  const std::vector<std::uint8_t> mask =
      masked ? oracle::random_mask(n, n, rng) : std::vector<std::uint8_t>{};
  // The recorded forward must match too: it is the path training runs.
  EXPECT_TRUE(oracle::bitwise_equal(attention(q, k, v, s, mask).values(),
                                    oracle::chain(q, k, v, s, mask).values()));
  const auto fused = qkv_grads(attention, q, k, v, s, mask, w);
  const auto chain = qkv_grads(oracle::chain, q, k, v, s, mask, w);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fused[i].empty(), !needs_grad[i]);
    EXPECT_TRUE(oracle::bitwise_equal(fused[i], chain[i]))
        << "grad of " << "qkv"[i] << ", N=" << n << " dk=" << dk << " dv=" << dv
        << (masked ? " masked" : " global");
  }
}

TEST(AttentionGrad, QkvGradientsBitwiseEqualChain) {
  std::mt19937_64 rng(51);
  for (const std::size_t n : oracle::kSizes)
    for (const std::size_t dk : oracle::kWidths)
      for (const std::size_t dv : oracle::kWidths)
        for (const bool masked : {false, true})
          expect_grads_bitwise(n, dk, dv, masked, {true, true, true},
                               1.0f / std::sqrt(static_cast<float>(dk)), rng);
}

TEST(AttentionGrad, UnderflowedWeightsBitwiseEqualChain) {
  // At this scale most attention weights underflow to 0 or to subnormals.
  std::mt19937_64 rng(54);
  for (const std::size_t n : oracle::kSizes)
    for (const bool masked : {false, true})
      expect_grads_bitwise(n, 4, 3, masked, {true, true, true}, 300.0f, rng);
}

TEST(AttentionGrad, PartialRequiresGradBitwiseEqualChain) {
  std::mt19937_64 rng(52);
  for (const std::size_t n : {1, 5, 40})
    for (const bool masked : {false, true})
      for (const std::array<bool, 3> needs :
           {std::array{true, false, false}, std::array{false, true, false},
            std::array{false, false, true}, std::array{false, true, true}})
        expect_grads_bitwise(n, 3, 4, masked, needs, 0.6f, rng);
}

TEST(AttentionGrad, LayerParameterGradientsBitwiseEqualChain) {
  // SelfAttentionLayer at the CLI's shape (dim 16, 4 heads) against the same
  // parameters wired through the unfused chain, as the layer was before the
  // fused op. The input's gradient collects from the residual and from every
  // head's q, k and v projections, so it also pins the tape's accumulation
  // order.
  for (const std::size_t n : {1, 5, 40, 127})
    for (const bool masked : {false, true}) {
      std::mt19937_64 rng(53 + n);
      const std::size_t dim = 16, heads = 4;
      gnntrans::nn::SelfAttentionLayer layer(dim, heads, rng);
      std::vector<Tensor> params;
      layer.collect_parameters(params);
      Tensor x = oracle::uniform(n, dim, -1.0f, 1.0f, rng, /*requires_grad=*/true);
      const Tensor w = oracle::uniform(n, dim, -1.0f, 1.0f, rng);
      const std::vector<std::uint8_t> mask =
          masked ? oracle::random_mask(n, n, rng) : std::vector<std::uint8_t>{};

      const auto chain_forward = [&] {
        const float s = 1.0f / std::sqrt(static_cast<float>(dim / heads));
        std::vector<Tensor> outputs;
        for (std::size_t h = 0; h < heads; ++h)
          outputs.push_back(oracle::chain(matmul(x, params[3 * h]),
                                          matmul(x, params[3 * h + 1]),
                                          matmul(x, params[3 * h + 2]), s, mask));
        return add(x, matmul(concat_cols(outputs), params.back()));
      };
      const auto grads = [&](const Tensor& y) {
        Tensor loss = sum_all(mul(y, w));
        loss.backward();
        std::vector<std::vector<float>> out;
        for (Tensor& t : params) {
          out.emplace_back(t.grad().begin(), t.grad().end());
          t.zero_grad();
        }
        out.emplace_back(x.grad().begin(), x.grad().end());
        x.zero_grad();
        return out;
      };

      const Tensor fused_y = layer.forward(x, mask);
      const Tensor chain_y = chain_forward();
      EXPECT_TRUE(oracle::bitwise_equal(fused_y.values(), chain_y.values()));
      const auto fused = grads(fused_y);
      const auto chain = grads(chain_y);
      ASSERT_EQ(fused.size(), chain.size());
      for (std::size_t i = 0; i < fused.size(); ++i)
        EXPECT_TRUE(oracle::bitwise_equal(fused[i], chain[i]))
            << (i + 1 == fused.size() ? "input" : "parameter " + std::to_string(i))
            << ", N=" << n << (masked ? " masked" : " global");
    }
}

}  // namespace
