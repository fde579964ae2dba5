// Fused scaled dot-product attention (ops.hpp: tensor::attention).
//
// The kernel streams one query row at a time through a row buffer of scores
// and never materializes an N x M tensor on the inference path. Every output
// element sees exactly the arithmetic, in the same order, of the unfused chain
//   matmul(masked_softmax_rows(scale(matmul_nt(q, k), s), mask), v)
// so results are bitwise identical to it (DESIGN.md §3k gives the argument).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>

#include "tensor/arena.hpp"
#include "tensor/ops.hpp"

namespace gnntrans::tensor {

namespace {

using Impl = std::shared_ptr<TensorImpl>;

// Four float lanes (SSE2 on the x86-64 baseline). Lane arithmetic is the same
// IEEE single-precision add, multiply and divide as the scalar code.
typedef float F32x4 __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 4;

F32x4 load4(const float* p) {
  F32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, F32x4 v) { std::memcpy(p, &v, sizeof v); }

/// Shapes of one attention call: n query rows, m keys, dk and dv widths.
struct Dims {
  std::size_t n, m, dk, dv;
};

/// Forward kernel. \p out (n x dv) arrives zeroed; \p mask is null for global
/// attention; \p stash, when non-null, receives the n x m attention matrix.
void attention_forward(const float* q, const float* k, const float* v, float s,
                       const std::uint8_t* mask, Dims d, float* out, float* stash) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  const std::size_t mpad = (d.m + kLanes - 1) / kLanes * kLanes;
  // Scratch: K transposed (dk rows of mpad keys, zero padded) + one row.
  ScratchBuffer scratch(d.dk * mpad + mpad);
  float* kt = scratch.data();
  float* row = kt + d.dk * mpad;
  for (std::size_t j = 0; j < d.m; ++j)
    for (std::size_t c = 0; c < d.dk; ++c) kt[c * mpad + j] = k[j * d.dk + c];

  for (std::size_t r = 0; r < d.n; ++r) {
    const float* qr = q + r * d.dk;
    const std::uint8_t* mr = mask ? mask + r * d.m : nullptr;

    // Scores s * (q_r . k_j): the matmul_nt dot in dk order, then scale.
    for (std::size_t j = 0; j < mpad; j += kLanes) {
      F32x4 acc = {0.0f, 0.0f, 0.0f, 0.0f};
      for (std::size_t c = 0; c < d.dk; ++c) acc += qr[c] * load4(kt + c * mpad + j);
      store4(row + j, s * acc);
    }

    // Masked keys and padding read -inf, which never wins the max below, so
    // the max is softmax_rows' max over the unmasked keys.
    bool any = mr == nullptr;
    if (mr)
      for (std::size_t j = 0; j < d.m; ++j) {
        if (mr[j])
          any = true;
        else
          row[j] = kNegInf;
      }
    if (!any) continue;  // fully masked row: attention and output stay zero
    for (std::size_t j = d.m; j < mpad; ++j) row[j] = kNegInf;

    // Row max, lane-wise with std::max's (a < b ? b : a), then across lanes.
    // Only a tie between +0 and -0 can resolve differently from the scalar
    // scan, and x - (+0) and x - (-0) have the same exp.
    F32x4 lane_max = {kNegInf, kNegInf, kNegInf, kNegInf};
    for (std::size_t j = 0; j < mpad; j += kLanes) {
      const F32x4 x = load4(row + j);
      lane_max = lane_max < x ? x : lane_max;
    }
    float max_v = kNegInf;
    for (std::size_t l = 0; l < kLanes; ++l) max_v = std::max(max_v, lane_max[l]);

    // exp and its denominator, scalar and in key order.
    float denom = 0.0f;
    for (std::size_t j = 0; j < d.m; ++j) {
      if (mr && !mr[j]) {
        row[j] = 0.0f;
        continue;
      }
      row[j] = std::exp(row[j] - max_v);
      denom += row[j];
    }
    for (std::size_t j = d.m; j < mpad; ++j) row[j] = 0.0f;
    for (std::size_t j = 0; j < mpad; j += kLanes)
      store4(row + j, load4(row + j) / denom);
    if (stash) std::copy(row, row + d.m, stash + r * d.m);

    // attn . V in key order, skipping zero weights as matmul does; the
    // accumulators live in registers rather than in the output row.
    float* orow = out + r * d.dv;
    std::size_t c0 = 0;
    for (; c0 + kLanes <= d.dv; c0 += kLanes) {
      F32x4 acc = {0.0f, 0.0f, 0.0f, 0.0f};
      for (std::size_t j = 0; j < d.m; ++j) {
        const float av = row[j];
        if (av == 0.0f) continue;
        acc += av * load4(v + j * d.dv + c0);
      }
      store4(orow + c0, acc);
    }
    for (; c0 < d.dv; ++c0) {
      float acc = 0.0f;
      for (std::size_t j = 0; j < d.m; ++j) {
        const float av = row[j];
        if (av == 0.0f) continue;
        acc += av * v[j * d.dv + c0];
      }
      orow[c0] = acc;
    }
  }
}

/// The unfused chain's backward loops, in its order (matmul -> softmax ->
/// scale -> matmul_nt), over the stashed attention matrix \p attn, so
/// gradients are bitwise those of the chain.
void attention_backward(TensorImpl& q, TensorImpl& k, TensorImpl& v, float s,
                        const std::vector<std::uint8_t>& mask,
                        const std::vector<float>& attn, Dims d,
                        const std::vector<float>& dy) {
  const std::size_t n = d.n, m = d.m, dk = d.dk, dv = d.dv;
  // matmul(attn, v): dV += attn^T dY.
  if (v.requires_grad) {
    v.ensure_grad();
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t j = 0; j < dv; ++j) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < n; ++i) acc += attn[i * m + r] * dy[i * dv + j];
        v.grad[r * dv + j] += acc;
      }
  }
  if (!q.requires_grad && !k.requires_grad) return;
  // matmul(attn, v): dAttn = dY V^T.
  std::vector<float> d_attn(n * m, 0.0f);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < m; ++c) {
      float acc = 0.0f;
      for (std::size_t j = 0; j < dv; ++j) acc += dy[r * dv + j] * v.value[c * dv + j];
      d_attn[r * m + c] += acc;
    }
  // softmax_rows / masked_softmax_rows.
  std::vector<float> d_scores(n * m, 0.0f);
  for (std::size_t r = 0; r < n; ++r) {
    const float* y = attn.data() + r * m;
    const float* g = d_attn.data() + r * m;
    float dot = 0.0f;
    for (std::size_t c = 0; c < m; ++c) dot += g[c] * y[c];
    for (std::size_t c = 0; c < m; ++c) {
      if (!mask.empty() && !mask[r * m + c]) continue;
      d_scores[r * m + c] += y[c] * (g[c] - dot);
    }
  }
  // scale.
  std::vector<float> d_raw(n * m, 0.0f);
  for (std::size_t i = 0; i < n * m; ++i) d_raw[i] += s * d_scores[i];
  // matmul_nt(q, k): dQ += dRaw K, dK += dRaw^T Q.
  if (q.requires_grad) {
    q.ensure_grad();
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < dk; ++c) {
        float acc = 0.0f;
        for (std::size_t j = 0; j < m; ++j) acc += d_raw[r * m + j] * k.value[j * dk + c];
        q.grad[r * dk + c] += acc;
      }
  }
  if (k.requires_grad) {
    k.ensure_grad();
    for (std::size_t j = 0; j < m; ++j)
      for (std::size_t c = 0; c < dk; ++c) {
        float acc = 0.0f;
        for (std::size_t r = 0; r < n; ++r) acc += d_raw[r * m + j] * q.value[r * dk + c];
        k.grad[j * dk + c] += acc;
      }
  }
}

}  // namespace

Tensor attention(const Tensor& q, const Tensor& k, const Tensor& v, float scale,
                 const std::vector<std::uint8_t>& mask) {
  if (q.cols() != k.cols() || k.rows() != v.rows())
    throw std::invalid_argument("tensor op: attention shape mismatch");
  const Dims d{q.rows(), k.rows(), q.cols(), v.cols()};
  if (!mask.empty() && mask.size() != d.n * d.m)
    throw std::invalid_argument("tensor op: mask size mismatch");

  Impl iq = q.impl(), ik = k.impl(), iv = v.impl();
  std::vector<Impl> parents{iq, ik, iv};
  std::shared_ptr<std::vector<float>> stash;
  std::function<void(const TensorImpl&)> backward;
  if (records_backward(parents)) {
    // Training: the forward also fills the attention matrix the backward reads.
    stash = std::make_shared<std::vector<float>>(d.n * d.m, 0.0f);
    backward = [iq, ik, iv, stash, mask, scale, d](const TensorImpl& self) {
      attention_backward(*iq, *ik, *iv, scale, mask, *stash, d, self.grad);
    };
  }

  Tensor out = make_op_result(d.n, d.dv, std::move(parents), std::move(backward));
  attention_forward(q.values().data(), k.values().data(), v.values().data(), scale,
                    mask.empty() ? nullptr : mask.data(), d, out.values().data(),
                    stash ? stash->data() : nullptr);
  return out;
}

}  // namespace gnntrans::tensor
