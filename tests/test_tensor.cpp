// Forward-value tests for tensor ops, optimizer behaviour, serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>

#include "attention_oracle.hpp"
#include "tensor/arena.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "tensor/optim.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace gnntrans::tensor;

Tensor t2x2(float a, float b, float c, float d, bool grad = false) {
  return Tensor::from_data({a, b, c, d}, 2, 2, grad);
}

TEST(Tensor, ConstructionAndShape) {
  const Tensor t(3, 4);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 4u);
  EXPECT_EQ(t.size(), 12u);
  for (float v : t.values()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_THROW(Tensor::from_data({1.0f, 2.0f}, 2, 2), std::invalid_argument);
}

TEST(Ops, MatmulHandChecked) {
  const Tensor a = t2x2(1, 2, 3, 4);
  const Tensor b = t2x2(5, 6, 7, 8);
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19);
  EXPECT_FLOAT_EQ(c(0, 1), 22);
  EXPECT_FLOAT_EQ(c(1, 0), 43);
  EXPECT_FLOAT_EQ(c(1, 1), 50);
}

TEST(Ops, MatmulNtMatchesExplicitTranspose) {
  std::mt19937_64 rng(1);
  const Tensor a = xavier_uniform(3, 5, rng);
  const Tensor b = xavier_uniform(4, 5, rng);
  const Tensor direct = matmul_nt(a, b);
  const Tensor via_t = matmul(a, transpose(b));
  ASSERT_EQ(direct.size(), via_t.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_NEAR(direct.values()[i], via_t.values()[i], 1e-6);
}

TEST(Ops, ShapeMismatchThrows) {
  const Tensor a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  EXPECT_THROW(add(a, Tensor(3, 2)), std::invalid_argument);
  EXPECT_THROW(add_row_broadcast(a, Tensor(1, 4)), std::invalid_argument);
}

TEST(Ops, AddSubMulScale) {
  const Tensor a = t2x2(1, 2, 3, 4);
  const Tensor b = t2x2(10, 20, 30, 40);
  EXPECT_FLOAT_EQ(add(a, b)(1, 1), 44);
  EXPECT_FLOAT_EQ(sub(b, a)(0, 0), 9);
  EXPECT_FLOAT_EQ(mul(a, b)(0, 1), 40);
  EXPECT_FLOAT_EQ(scale(a, -2.0f)(1, 0), -6);
}

TEST(Ops, AddRowBroadcast) {
  const Tensor a = t2x2(1, 2, 3, 4);
  const Tensor bias = Tensor::from_data({10, 100}, 1, 2);
  const Tensor y = add_row_broadcast(a, bias);
  EXPECT_FLOAT_EQ(y(0, 0), 11);
  EXPECT_FLOAT_EQ(y(0, 1), 102);
  EXPECT_FLOAT_EQ(y(1, 0), 13);
  EXPECT_FLOAT_EQ(y(1, 1), 104);
}

TEST(Ops, OuterSum) {
  const Tensor s = Tensor::from_data({1, 2}, 2, 1);
  const Tensor t = Tensor::from_data({10, 20, 30}, 3, 1);
  const Tensor e = outer_sum(s, t);
  EXPECT_EQ(e.rows(), 2u);
  EXPECT_EQ(e.cols(), 3u);
  EXPECT_FLOAT_EQ(e(0, 0), 11);
  EXPECT_FLOAT_EQ(e(1, 2), 32);
}

TEST(Ops, Nonlinearities) {
  const Tensor x = Tensor::from_data({-2, -0.5, 0, 3}, 1, 4);
  const Tensor r = relu(x);
  EXPECT_FLOAT_EQ(r(0, 0), 0);
  EXPECT_FLOAT_EQ(r(0, 3), 3);
  const Tensor l = leaky_relu(x, 0.1f);
  EXPECT_FLOAT_EQ(l(0, 0), -0.2f);
  EXPECT_FLOAT_EQ(l(0, 3), 3);
  const Tensor s = sigmoid(Tensor::from_data({0}, 1, 1));
  EXPECT_NEAR(s(0, 0), 0.5f, 1e-6);
  const Tensor th = tanh_op(Tensor::from_data({0.5f}, 1, 1));
  EXPECT_NEAR(th(0, 0), std::tanh(0.5f), 1e-6);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  std::mt19937_64 rng(2);
  const Tensor x = xavier_uniform(4, 6, rng);
  const Tensor y = softmax_rows(x);
  for (std::size_t r = 0; r < 4; ++r) {
    float sum = 0;
    for (std::size_t c = 0; c < 6; ++c) {
      EXPECT_GT(y(r, c), 0.0f);
      sum += y(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(Ops, SoftmaxIsShiftInvariant) {
  const Tensor a = Tensor::from_data({1, 2, 3}, 1, 3);
  const Tensor b = Tensor::from_data({101, 102, 103}, 1, 3);
  const Tensor ya = softmax_rows(a), yb = softmax_rows(b);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(ya(0, c), yb(0, c), 1e-6);
}

TEST(Ops, MaskedSoftmaxZerosMaskedEntries) {
  const Tensor x = Tensor::from_data({1, 5, 2, 1, 1, 1}, 2, 3);
  const std::vector<std::uint8_t> mask{1, 0, 1, 0, 0, 0};
  const Tensor y = masked_softmax_rows(x, mask);
  EXPECT_FLOAT_EQ(y(0, 1), 0.0f);
  EXPECT_NEAR(y(0, 0) + y(0, 2), 1.0f, 1e-6);
  // Fully masked row stays zero.
  for (std::size_t c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(y(1, c), 0.0f);
}

// ---- Fused attention: forward bitwise equal to the unfused chain ----

namespace oracle = attention_oracle;

/// Runs fused and chain on one case under NoGradGuard (the inference path)
/// and expects identical bits.
void expect_forward_bitwise(const Tensor& q, const Tensor& k, const Tensor& v, float s,
                            const std::vector<std::uint8_t>& mask) {
  NoGradGuard guard;
  const Tensor fused = attention(q, k, v, s, mask);
  const Tensor chain = oracle::chain(q, k, v, s, mask);
  EXPECT_TRUE(oracle::bitwise_equal(fused.values(), chain.values()))
      << "N=" << q.rows() << " dk=" << q.cols() << " dv=" << v.cols()
      << (mask.empty() ? " global" : " masked");
}

TEST(Attention, ForwardBitwiseEqualsUnfusedChain) {
  std::mt19937_64 rng(41);
  for (const std::size_t n : oracle::kSizes)
    for (const std::size_t dk : oracle::kWidths)
      for (const std::size_t dv : oracle::kWidths) {
        const Tensor q = oracle::uniform(n, dk, -1.5f, 1.5f, rng);
        const Tensor k = oracle::uniform(n, dk, -1.5f, 1.5f, rng);
        const Tensor v = oracle::uniform(n, dv, -1.0f, 1.0f, rng);
        const float s = 1.0f / std::sqrt(static_cast<float>(dk));
        expect_forward_bitwise(q, k, v, s, {});
        expect_forward_bitwise(q, k, v, s, oracle::random_mask(n, n, rng));
        expect_forward_bitwise(q, k, v, s, std::vector<std::uint8_t>(n * n, 0));
      }
}

TEST(Attention, UnderflowedWeightsSignedZerosAndInfBitwise) {
  // A large scale spreads each score row over hundreds of units, so most
  // weights underflow to exactly 0 (or to subnormals). V mixes +0, -0, tiny
  // values and +inf: an inf behind a zero weight is what the zero-weight skip
  // keeps out of the output (0 * inf is NaN). One V column is all -0, where
  // only the +0 start of each accumulator fixes the output's sign.
  std::mt19937_64 rng(42);
  std::size_t zero_weights = 0;
  for (const std::size_t n : oracle::kSizes)
    for (const std::size_t dk : oracle::kWidths)
      for (const std::size_t dv : oracle::kWidths) {
        const Tensor q = oracle::uniform(n, dk, -1.0f, 1.0f, rng);
        const Tensor k = oracle::uniform(n, dk, -1.0f, 1.0f, rng);
        Tensor v = oracle::uniform(n, dv, -1.0f, 1.0f, rng);
        const float pick[] = {0.0f, -0.0f, 1e-30f, -1e-30f,
                              std::numeric_limits<float>::infinity()};
        std::uniform_int_distribution<int> which(0, 9);
        for (std::size_t i = 0; i < v.size(); ++i) {
          const int w = which(rng);
          if (i % dv == dv - 1)
            v.values()[i] = -0.0f;
          else if (w < 5)
            v.values()[i] = pick[w];
        }
        const float s = 300.0f;
        expect_forward_bitwise(q, k, v, s, {});
        expect_forward_bitwise(q, k, v, s, oracle::random_mask(n, n, rng));
        NoGradGuard guard;
        const Tensor weights = softmax_rows(scale(matmul_nt(q, k), s));
        for (const float w : weights.values()) zero_weights += w == 0.0f ? 1 : 0;
      }
  EXPECT_GT(zero_weights, 10000u) << "the sweep no longer produces underflowed weights";
}

TEST(Attention, InferenceScratchComesFromTheArenaAndIsLinear) {
  // Under an arena scope the op draws two buffers, its output and one O(N)
  // scratch block, and its high-water mark stays far below one N x N matrix;
  // the unfused chain peaks above two of them.
  std::mt19937_64 rng(43);
  const std::size_t n = 300, d = 4;
  const Tensor q = oracle::uniform(n, d, -1.0f, 1.0f, rng);
  const Tensor k = oracle::uniform(n, d, -1.0f, 1.0f, rng);
  const Tensor v = oracle::uniform(n, d, -1.0f, 1.0f, rng);
  const std::size_t nxn_bytes = n * n * sizeof(float);
  ScratchArena fused_arena, chain_arena;
  {
    ScratchArena::Scope scope(fused_arena);
    NoGradGuard guard;
    const Tensor out = attention(q, k, v, 0.5f, {});
  }
  {
    ScratchArena::Scope scope(chain_arena);
    NoGradGuard guard;
    const Tensor out = oracle::chain(q, k, v, 0.5f, {});
  }
  const ScratchArena::Stats fused = fused_arena.stats();
  EXPECT_EQ(fused.allocated + fused.reused, 2u);
  EXPECT_LT(fused.peak_bytes, nxn_bytes / 8);
  EXPECT_GT(chain_arena.stats().peak_bytes, 2 * nxn_bytes);
}

TEST(Attention, ShapeAndMaskMismatchThrow) {
  const Tensor q(3, 2), k(4, 2), v(4, 5), bad_k(4, 3), bad_v(3, 5);
  EXPECT_EQ(attention(q, k, v, 1.0f, {}).rows(), 3u);
  EXPECT_EQ(attention(q, k, v, 1.0f, {}).cols(), 5u);
  EXPECT_THROW((void)attention(q, bad_k, v, 1.0f, {}), std::invalid_argument);
  EXPECT_THROW((void)attention(q, k, bad_v, 1.0f, {}), std::invalid_argument);
  EXPECT_THROW((void)attention(q, k, v, 1.0f, std::vector<std::uint8_t>(9, 1)),
               std::invalid_argument);
}

TEST(Attention, NonSquareForwardBitwise) {
  std::mt19937_64 rng(44);
  const Tensor q = oracle::uniform(7, 3, -1.0f, 1.0f, rng);
  const Tensor k = oracle::uniform(10, 3, -1.0f, 1.0f, rng);
  const Tensor v = oracle::uniform(10, 5, -1.0f, 1.0f, rng);
  expect_forward_bitwise(q, k, v, 0.7f, {});
  expect_forward_bitwise(q, k, v, 0.7f, oracle::random_mask(7, 10, rng));
}

// The owned softmax (exp_f32, lane-strided denominator) against the libm,
// key-order softmax it replaced: each output element within
// kRelTol * sum_j a_j |v_j| of the libm chain, a_j its weights. That sum
// bounds what a relative weight error can move the output by.
TEST(Attention, WithinRelativeToleranceOfLibmKeyOrderChain) {
  constexpr float kRelTol = 2e-6f;
  std::mt19937_64 rng(45);
  float worst = 0.0f;
  for (const std::size_t n : oracle::kSizes)
    for (const std::size_t dk : oracle::kWidths)
      for (const std::size_t dv : oracle::kWidths) {
        const Tensor q = oracle::uniform(n, dk, -1.5f, 1.5f, rng);
        const Tensor k = oracle::uniform(n, dk, -1.5f, 1.5f, rng);
        const Tensor v = oracle::uniform(n, dv, -1.0f, 1.0f, rng);
        Tensor abs_v(n, dv);
        for (std::size_t i = 0; i < v.size(); ++i) abs_v.values()[i] = std::fabs(v.values()[i]);
        const float s = 1.0f / std::sqrt(static_cast<float>(dk));
        for (const auto& mask : {std::vector<std::uint8_t>{}, oracle::random_mask(n, n, rng),
                                 std::vector<std::uint8_t>(n * n, 0)}) {
          NoGradGuard guard;
          const Tensor fused = attention(q, k, v, s, mask);
          const Tensor ref = oracle::libm_chain(q, k, v, s, mask);
          const Tensor weights =
              oracle::libm_softmax_rows(scale(matmul_nt(q, k), s), mask);
          const Tensor magnitude = matmul(weights, abs_v);
          for (std::size_t i = 0; i < fused.size(); ++i) {
            const float err = std::fabs(fused.values()[i] - ref.values()[i]);
            const float bound = magnitude.values()[i];
            ASSERT_LE(err, kRelTol * bound) << "N=" << n << " dk=" << dk << " dv=" << dv;
            if (bound > 0.0f) worst = std::max(worst, err / bound);
          }
        }
      }
  std::ostringstream worst_text;
  worst_text << worst;
  RecordProperty("worst_relative_error", worst_text.str());
}

TEST(Ops, ConcatColsLayout) {
  const Tensor a = t2x2(1, 2, 3, 4);
  const Tensor b = Tensor::from_data({9, 10}, 2, 1);
  const Tensor c = concat_cols({a, b});
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_FLOAT_EQ(c(0, 2), 9);
  EXPECT_FLOAT_EQ(c(1, 0), 3);
}

TEST(Ops, GatherRowsWithDuplicates) {
  const Tensor a = t2x2(1, 2, 3, 4);
  const Tensor g = gather_rows(a, {1, 1, 0});
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_FLOAT_EQ(g(0, 0), 3);
  EXPECT_FLOAT_EQ(g(2, 1), 2);
  EXPECT_THROW(gather_rows(a, {5}), std::invalid_argument);
}

TEST(Ops, SpmmAppliesFixedWeights) {
  GraphMatrix m(2, 3);
  m.add(0, 0, 1.0f);
  m.add(0, 2, 2.0f);
  m.add(1, 1, -1.0f);
  const Tensor x = Tensor::from_data({1, 10, 2, 20, 3, 30}, 3, 2);
  const Tensor y = spmm(m, x);
  EXPECT_FLOAT_EQ(y(0, 0), 1 + 2 * 3);
  EXPECT_FLOAT_EQ(y(0, 1), 10 + 2 * 30);
  EXPECT_FLOAT_EQ(y(1, 0), -2);
}

TEST(Ops, GraphMatrixRowNormalize) {
  GraphMatrix m(2, 2);
  m.add(0, 0, 2.0f);
  m.add(0, 1, 6.0f);
  m.add(1, 0, 0.0f);  // zero-sum row left untouched
  m.row_normalize();
  EXPECT_FLOAT_EQ(m.values[0], 0.25f);
  EXPECT_FLOAT_EQ(m.values[1], 0.75f);
  EXPECT_FLOAT_EQ(m.values[2], 0.0f);
}

TEST(Ops, Reductions) {
  const Tensor a = t2x2(1, 2, 3, 4);
  EXPECT_FLOAT_EQ(sum_all(a).item(), 10);
  EXPECT_FLOAT_EQ(mean_all(a).item(), 2.5);
}

TEST(Ops, MseLoss) {
  const Tensor pred = Tensor::from_data({1, 2}, 2, 1);
  const Tensor target = Tensor::from_data({0, 4}, 2, 1);
  EXPECT_FLOAT_EQ(mse_loss(pred, target).item(), (1 + 4) / 2.0f);
}

TEST(Autograd, NoGradGuardSuppressesTape) {
  std::mt19937_64 rng(3);
  const Tensor w = xavier_uniform(2, 2, rng);
  const Tensor x = t2x2(1, 0, 0, 1);
  {
    NoGradGuard guard;
    const Tensor y = matmul(x, w);
    EXPECT_FALSE(y.requires_grad());
  }
  const Tensor y = matmul(x, w);
  EXPECT_TRUE(y.requires_grad());
}

TEST(Autograd, BackwardRequiresScalar) {
  Tensor w(2, 2, true);
  EXPECT_THROW(w.backward(), std::logic_error);
}

TEST(Autograd, GradAccumulatesAcrossBackwardCalls) {
  const Tensor w = Tensor::from_data({2}, 1, 1, true);
  Tensor loss1 = scale(w, 3.0f);
  loss1.backward();
  EXPECT_FLOAT_EQ(w.grad()[0], 3.0f);
  Tensor loss2 = scale(w, 3.0f);
  loss2.backward();
  EXPECT_FLOAT_EQ(w.grad()[0], 6.0f);
}

TEST(Autograd, DiamondGraphGradSumsBothBranches) {
  // y = sum(w * w_detached_path + w): shared node used twice.
  const Tensor w = Tensor::from_data({1, 2, 3, 4}, 2, 2, true);
  Tensor y = sum_all(add(w, w));
  y.backward();
  for (float g : w.grad()) EXPECT_FLOAT_EQ(g, 2.0f);
}

TEST(Adam, ConvergesOnQuadraticBowl) {
  // minimize ||w - target||^2.
  Tensor w(1, 4, true);
  const Tensor target = Tensor::from_data({1, -2, 3, 0.5f}, 1, 4);
  Adam::Config cfg;
  cfg.learning_rate = 0.05f;
  Adam opt({w}, cfg);
  for (int step = 0; step < 500; ++step) {
    opt.zero_grad();
    Tensor loss = mse_loss(w, target);
    loss.backward();
    opt.step();
  }
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(w.values()[i], target.values()[i], 1e-2);
}

TEST(Adam, RejectsNonGradParameters) {
  Tensor frozen(2, 2, false);
  EXPECT_THROW(Adam({frozen}), std::invalid_argument);
}

TEST(Adam, ClipGradNormScalesDown) {
  Tensor w = Tensor::from_data({3, 4}, 1, 2, true);
  Tensor loss = sum_all(mul(w, w));
  loss.backward();  // grad = (6, 8), norm 10
  std::vector<Tensor> params{w};
  const double pre = clip_grad_norm(params, 5.0);
  EXPECT_NEAR(pre, 10.0, 1e-5);
  EXPECT_NEAR(w.grad()[0], 3.0f, 1e-5);
  EXPECT_NEAR(w.grad()[1], 4.0f, 1e-5);
}

TEST(Serialize, TensorRoundTrip) {
  std::mt19937_64 rng(4);
  const Tensor t = he_normal(5, 7, rng);
  std::stringstream buf;
  write_tensor(buf, t);
  const Tensor back = read_tensor(buf);
  ASSERT_EQ(back.rows(), 5u);
  ASSERT_EQ(back.cols(), 7u);
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_EQ(t.values()[i], back.values()[i]);
}

TEST(Serialize, HeaderMismatchThrows) {
  std::stringstream buf;
  write_header(buf, "MAGIC_A", 1);
  EXPECT_THROW(check_header(buf, "MAGIC_B", 1), std::runtime_error);
  std::stringstream buf2;
  write_header(buf2, "MAGIC_A", 1);
  EXPECT_THROW(check_header(buf2, "MAGIC_A", 2), std::runtime_error);
}

TEST(Serialize, TruncatedStreamThrows) {
  std::stringstream buf;
  const Tensor t(4, 4);
  write_tensor(buf, t);
  std::string payload = buf.str();
  payload.resize(payload.size() / 2);
  std::stringstream cut(payload);
  EXPECT_THROW(read_tensor(cut), std::runtime_error);
}

TEST(Serialize, DoublesRoundTrip) {
  std::stringstream buf;
  write_doubles(buf, {1.5, -2.25, 1e-15});
  const auto back = read_doubles(buf);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_DOUBLE_EQ(back[2], 1e-15);
}

TEST(Init, XavierBoundsRespected) {
  std::mt19937_64 rng(5);
  const Tensor t = xavier_uniform(10, 10, rng);
  const float limit = std::sqrt(6.0f / 20.0f);
  for (float v : t.values()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
  EXPECT_TRUE(t.requires_grad());
}

}  // namespace
