// Fused scaled dot-product attention (ops.hpp: tensor::attention).
//
// The kernel streams blocks of four query rows through row buffers of scores
// and never materializes an N x M tensor on the inference path. Every output
// element sees exactly the arithmetic, in the same order, of the unfused chain
//   matmul(masked_softmax_rows(scale(matmul_nt(q, k), s), mask), v)
// so results are bitwise identical to it (DESIGN.md §3k gives the argument).
#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

#include "tensor/arena.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

namespace gnntrans::tensor {

namespace {

using Impl = std::shared_ptr<TensorImpl>;

/// Query rows per attn . V pass.
constexpr std::size_t kRowBlock = 4;

/// Shapes of one attention call: n query rows, m keys, dk and dv widths.
struct Dims {
  std::size_t n, m, dk, dv;
};

/// Attention weights of query row \p qr into \p row: the scores
/// s * (q_r . k_j) against the transposed keys \p kt (mpad keys per row),
/// masked keys set to -inf, then softmax_row. A fully masked row (\p mr all
/// zero) comes out all zero.
void weights_row(const float* qr, const float* kt, float s, const std::uint8_t* mr,
                 Dims d, std::size_t mpad, float* row) {
  // The matmul_nt dot in dk order, then scale.
  for (std::size_t j = 0; j < mpad; j += kLanes) {
    F32x4 acc = {0.0f, 0.0f, 0.0f, 0.0f};
    for (std::size_t c = 0; c < d.dk; ++c) acc += qr[c] * load4(kt + c * mpad + j);
    store4(row + j, s * acc);
  }
  bool any = mr == nullptr;
  if (mr)
    for (std::size_t j = 0; j < d.m; ++j) {
      if (mr[j])
        any = true;
      else
        row[j] = -std::numeric_limits<float>::infinity();
    }
  if (any)
    softmax_row(row, d.m);
  else
    std::fill(row, row + d.m, 0.0f);
}

/// attn . V for one query row with weights \p w, in key order, skipping zero
/// weights as matmul does; the accumulators live in registers rather than in
/// the output row.
void attend_row(const float* w, const float* v, Dims d, float* orow) {
  std::size_t c0 = 0;
  for (; c0 + kLanes <= d.dv; c0 += kLanes) {
    F32x4 acc = {0.0f, 0.0f, 0.0f, 0.0f};
    for (std::size_t j = 0; j < d.m; ++j) {
      if (w[j] == 0.0f) continue;
      acc += w[j] * load4(v + j * d.dv + c0);
    }
    store4(orow + c0, acc);
  }
  for (; c0 < d.dv; ++c0) {
    float acc = 0.0f;
    for (std::size_t j = 0; j < d.m; ++j) {
      if (w[j] == 0.0f) continue;
      acc += w[j] * v[j * d.dv + c0];
    }
    orow[c0] = acc;
  }
}

/// attend_row for kRowBlock consecutive rows whose weights lie \p stride
/// floats apart, dv a multiple of the lane count. Each row keeps its own
/// key-order chain, so the bits are attend_row's; running four independent
/// chains in one pass hides the add latency.
void attend_row_block(const float* w, std::size_t stride, const float* v, Dims d,
                      float* out) {
  const float *w0 = w, *w1 = w + stride, *w2 = w + 2 * stride, *w3 = w + 3 * stride;
  for (std::size_t c0 = 0; c0 < d.dv; c0 += kLanes) {
    F32x4 a0 = {}, a1 = {}, a2 = {}, a3 = {};
    for (std::size_t j = 0; j < d.m; ++j) {
      const F32x4 vj = load4(v + j * d.dv + c0);
      if (w0[j] != 0.0f) a0 += w0[j] * vj;
      if (w1[j] != 0.0f) a1 += w1[j] * vj;
      if (w2[j] != 0.0f) a2 += w2[j] * vj;
      if (w3[j] != 0.0f) a3 += w3[j] * vj;
    }
    store4(out + c0, a0);
    store4(out + d.dv + c0, a1);
    store4(out + 2 * d.dv + c0, a2);
    store4(out + 3 * d.dv + c0, a3);
  }
}

/// Forward kernel. \p out (n x dv) arrives zeroed; \p mask is null for global
/// attention; \p stash, when non-null, receives the n x m attention matrix.
void attention_forward(const float* q, const float* k, const float* v, float s,
                       const std::uint8_t* mask, Dims d, float* out, float* stash) {
  const std::size_t mpad = (d.m + kLanes - 1) / kLanes * kLanes;
  // Scratch: K transposed (dk rows of mpad keys, zero padded) + a block of rows.
  ScratchBuffer scratch(d.dk * mpad + kRowBlock * mpad);
  float* kt = scratch.data();
  float* rows = kt + d.dk * mpad;
  for (std::size_t j = 0; j < d.m; ++j)
    for (std::size_t c = 0; c < d.dk; ++c) kt[c * mpad + j] = k[j * d.dk + c];

  for (std::size_t r0 = 0; r0 < d.n; r0 += kRowBlock) {
    const std::size_t nr = std::min(kRowBlock, d.n - r0);
    for (std::size_t i = 0; i < nr; ++i) {
      const std::size_t r = r0 + i;
      float* row = rows + i * mpad;
      weights_row(q + r * d.dk, kt, s, mask ? mask + r * d.m : nullptr, d, mpad, row);
      if (stash) std::copy(row, row + d.m, stash + r * d.m);
    }
    if (nr == kRowBlock && d.dv % kLanes == 0)
      attend_row_block(rows, mpad, v, d, out + r0 * d.dv);
    else
      for (std::size_t i = 0; i < nr; ++i)
        attend_row(rows + i * mpad, v, d, out + (r0 + i) * d.dv);
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
