#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "tensor/simd.hpp"

namespace gnntrans::tensor {

namespace {

void require(bool cond, const std::string& what) {
  if (!cond) throw std::invalid_argument("tensor op: " + what);
}

using Impl = std::shared_ptr<TensorImpl>;

}  // namespace

void GraphMatrix::row_normalize() {
  std::vector<double> row_sum(rows, 0.0);
  for (std::size_t k = 0; k < nnz(); ++k) row_sum[row_index[k]] += values[k];
  for (std::size_t k = 0; k < nnz(); ++k) {
    const double s = row_sum[row_index[k]];
    if (s > 0.0) values[k] = static_cast<float>(values[k] / s);
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  require(a.cols() == b.rows(), "matmul shape mismatch");
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  Impl ia = a.impl(), ib = b.impl();

  Tensor out = make_op_result(n, m, {ia, ib}, [ia, ib, n, k, m](const TensorImpl& self) {
    if (ia->requires_grad) {
      ia->ensure_grad();
      // dA += dY @ B^T
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < k; ++c) {
          float acc = 0.0f;
          for (std::size_t j = 0; j < m; ++j)
            acc += self.grad[r * m + j] * ib->value[c * m + j];
          ia->grad[r * k + c] += acc;
        }
    }
    if (ib->requires_grad) {
      ib->ensure_grad();
      // dB += A^T @ dY
      for (std::size_t r = 0; r < k; ++r)
        for (std::size_t j = 0; j < m; ++j) {
          float acc = 0.0f;
          for (std::size_t i = 0; i < n; ++i)
            acc += ia->value[i * k + r] * self.grad[i * m + j];
          ib->grad[r * m + j] += acc;
        }
    }
  });

  auto v = out.values();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < k; ++c) {
      const float av = a.values()[r * k + c];
      if (av == 0.0f) continue;
      const float* brow = b.values().data() + c * m;
      float* orow = v.data() + r * m;
      for (std::size_t j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  require(a.cols() == b.cols(), "matmul_nt shape mismatch");
  const std::size_t n = a.rows(), k = a.cols(), m = b.rows();
  Impl ia = a.impl(), ib = b.impl();

  Tensor out = make_op_result(n, m, {ia, ib}, [ia, ib, n, k, m](const TensorImpl& self) {
    if (ia->requires_grad) {
      ia->ensure_grad();
      // dA += dY @ B
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < k; ++c) {
          float acc = 0.0f;
          for (std::size_t j = 0; j < m; ++j)
            acc += self.grad[r * m + j] * ib->value[j * k + c];
          ia->grad[r * k + c] += acc;
        }
    }
    if (ib->requires_grad) {
      ib->ensure_grad();
      // dB += dY^T @ A
      for (std::size_t j = 0; j < m; ++j)
        for (std::size_t c = 0; c < k; ++c) {
          float acc = 0.0f;
          for (std::size_t r = 0; r < n; ++r)
            acc += self.grad[r * m + j] * ia->value[r * k + c];
          ib->grad[j * k + c] += acc;
        }
    }
  });

  auto v = out.values();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t j = 0; j < m; ++j) {
      float acc = 0.0f;
      const float* arow = a.values().data() + r * k;
      const float* brow = b.values().data() + j * k;
      for (std::size_t c = 0; c < k; ++c) acc += arow[c] * brow[c];
      v[r * m + j] = acc;
    }
  return out;
}

Tensor transpose(const Tensor& a) {
  const std::size_t n = a.rows(), m = a.cols();
  Impl ia = a.impl();
  Tensor out = make_op_result(m, n, {ia}, [ia, n, m](const TensorImpl& self) {
    if (!ia->requires_grad) return;
    ia->ensure_grad();
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t c = 0; c < n; ++c) ia->grad[c * m + r] += self.grad[r * n + c];
  });
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < m; ++c) out.values()[c * n + r] = a.values()[r * m + c];
  return out;
}

Tensor spmm(const GraphMatrix& m, const Tensor& x) {
  require(m.cols == x.rows(), "spmm shape mismatch");
  const std::size_t d = x.cols();
  Impl ix = x.impl();
  std::vector<Impl> parents{ix};
  // The structure matrix is captured by value (nets are immutable per sample),
  // and only when the backward is recorded.
  GraphMatrix mc = records_backward(parents) ? m : GraphMatrix{};

  Tensor out =
      make_op_result(m.rows, d, std::move(parents), [ix, mc, d](const TensorImpl& self) {
        if (!ix->requires_grad) return;
        ix->ensure_grad();
        for (std::size_t k = 0; k < mc.nnz(); ++k) {
          const std::size_t r = mc.row_index[k], c = mc.col_index[k];
          const float v = mc.values[k];
          for (std::size_t j = 0; j < d; ++j)
            ix->grad[c * d + j] += v * self.grad[r * d + j];
        }
      });

  for (std::size_t k = 0; k < m.nnz(); ++k) {
    const std::size_t r = m.row_index[k], c = m.col_index[k];
    const float v = m.values[k];
    for (std::size_t j = 0; j < d; ++j)
      out.values()[r * d + j] += v * x.values()[c * d + j];
  }
  return out;
}

namespace {

/// Shared helper for same-shape binary ops with constant-coefficient backward.
Tensor binary_same_shape(const Tensor& a, const Tensor& b, float ca, float cb) {
  require(a.rows() == b.rows() && a.cols() == b.cols(), "binary shape mismatch");
  Impl ia = a.impl(), ib = b.impl();
  Tensor out =
      make_op_result(a.rows(), a.cols(), {ia, ib}, [ia, ib, ca, cb](const TensorImpl& self) {
        if (ia->requires_grad) {
          ia->ensure_grad();
          for (std::size_t i = 0; i < self.grad.size(); ++i)
            ia->grad[i] += ca * self.grad[i];
        }
        if (ib->requires_grad) {
          ib->ensure_grad();
          for (std::size_t i = 0; i < self.grad.size(); ++i)
            ib->grad[i] += cb * self.grad[i];
        }
      });
  for (std::size_t i = 0; i < out.size(); ++i)
    out.values()[i] = ca * a.values()[i] + cb * b.values()[i];
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) { return binary_same_shape(a, b, 1.0f, 1.0f); }
Tensor sub(const Tensor& a, const Tensor& b) { return binary_same_shape(a, b, 1.0f, -1.0f); }

Tensor mul(const Tensor& a, const Tensor& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(), "mul shape mismatch");
  Impl ia = a.impl(), ib = b.impl();
  Tensor out = make_op_result(a.rows(), a.cols(), {ia, ib}, [ia, ib](const TensorImpl& self) {
    if (ia->requires_grad) {
      ia->ensure_grad();
      for (std::size_t i = 0; i < self.grad.size(); ++i)
        ia->grad[i] += ib->value[i] * self.grad[i];
    }
    if (ib->requires_grad) {
      ib->ensure_grad();
      for (std::size_t i = 0; i < self.grad.size(); ++i)
        ib->grad[i] += ia->value[i] * self.grad[i];
    }
  });
  for (std::size_t i = 0; i < out.size(); ++i)
    out.values()[i] = a.values()[i] * b.values()[i];
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Impl ia = a.impl();
  Tensor out = make_op_result(a.rows(), a.cols(), {ia}, [ia, s](const TensorImpl& self) {
    if (!ia->requires_grad) return;
    ia->ensure_grad();
    for (std::size_t i = 0; i < self.grad.size(); ++i) ia->grad[i] += s * self.grad[i];
  });
  for (std::size_t i = 0; i < out.size(); ++i) out.values()[i] = s * a.values()[i];
  return out;
}

Tensor add_row_broadcast(const Tensor& a, const Tensor& bias) {
  require(bias.rows() == 1 && bias.cols() == a.cols(), "bias shape mismatch");
  const std::size_t n = a.rows(), d = a.cols();
  Impl ia = a.impl(), ib = bias.impl();
  Tensor out = make_op_result(n, d, {ia, ib}, [ia, ib, n, d](const TensorImpl& self) {
    if (ia->requires_grad) {
      ia->ensure_grad();
      for (std::size_t i = 0; i < self.grad.size(); ++i) ia->grad[i] += self.grad[i];
    }
    if (ib->requires_grad) {
      ib->ensure_grad();
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c) ib->grad[c] += self.grad[r * d + c];
    }
  });
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < d; ++c)
      out.values()[r * d + c] = a.values()[r * d + c] + bias.values()[c];
  return out;
}

Tensor outer_sum(const Tensor& s, const Tensor& t) {
  require(s.cols() == 1 && t.cols() == 1, "outer_sum expects column vectors");
  const std::size_t n = s.rows(), m = t.rows();
  Impl is = s.impl(), it = t.impl();
  Tensor out = make_op_result(n, m, {is, it}, [is, it, n, m](const TensorImpl& self) {
    if (is->requires_grad) {
      is->ensure_grad();
      for (std::size_t i = 0; i < n; ++i) {
        float acc = 0.0f;
        for (std::size_t j = 0; j < m; ++j) acc += self.grad[i * m + j];
        is->grad[i] += acc;
      }
    }
    if (it->requires_grad) {
      it->ensure_grad();
      for (std::size_t j = 0; j < m; ++j) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < n; ++i) acc += self.grad[i * m + j];
        it->grad[j] += acc;
      }
    }
  });
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j)
      out.values()[i * m + j] = s.values()[i] + t.values()[j];
  return out;
}

namespace {

/// Unary elementwise op: forward f, backward df given (input value, output value).
template <typename F, typename DF>
Tensor unary(const Tensor& a, F f, DF df) {
  Impl ia = a.impl();
  Tensor out = make_op_result(a.rows(), a.cols(), {ia}, [ia, df](const TensorImpl& self) {
    if (!ia->requires_grad) return;
    ia->ensure_grad();
    for (std::size_t i = 0; i < self.grad.size(); ++i)
      ia->grad[i] += df(ia->value[i], self.value[i]) * self.grad[i];
  });
  for (std::size_t i = 0; i < out.size(); ++i) out.values()[i] = f(a.values()[i]);
  return out;
}

}  // namespace

Tensor relu(const Tensor& a) {
  return unary(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor leaky_relu(const Tensor& a, float negative_slope) {
  return unary(
      a, [negative_slope](float x) { return x > 0.0f ? x : negative_slope * x; },
      [negative_slope](float x, float) { return x > 0.0f ? 1.0f : negative_slope; });
}

Tensor sigmoid(const Tensor& a) {
  return unary(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor tanh_op(const Tensor& a) {
  return unary(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

namespace {

Tensor softmax_impl(const Tensor& a, const std::vector<std::uint8_t>* mask) {
  const std::size_t n = a.rows(), m = a.cols();
  if (mask) require(mask->size() == n * m, "mask size mismatch");
  Impl ia = a.impl();
  std::vector<Impl> parents{ia};
  // The backward reads the mask, so it is copied only when one is recorded.
  std::vector<std::uint8_t> mask_copy =
      mask && records_backward(parents) ? *mask : std::vector<std::uint8_t>{};

  Tensor out = make_op_result(
      n, m, std::move(parents), [ia, n, m, mask_copy](const TensorImpl& self) {
        if (!ia->requires_grad) return;
        ia->ensure_grad();
        for (std::size_t r = 0; r < n; ++r) {
          const float* y = self.value.data() + r * m;
          const float* dy = self.grad.data() + r * m;
          float dot = 0.0f;
          for (std::size_t c = 0; c < m; ++c) dot += dy[c] * y[c];
          for (std::size_t c = 0; c < m; ++c) {
            if (!mask_copy.empty() && !mask_copy[r * m + c]) continue;
            ia->grad[r * m + c] += y[c] * (dy[c] - dot);
          }
        }
      });

  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  for (std::size_t r = 0; r < n; ++r) {
    const float* x = a.values().data() + r * m;
    float* y = out.values().data() + r * m;
    bool any = mask == nullptr;
    for (std::size_t c = 0; c < m; ++c) {
      if (mask && !(*mask)[r * m + c]) {
        y[c] = kNegInf;
        continue;
      }
      y[c] = x[c];
      any = true;
    }
    if (any)
      softmax_row(y, m);
    else
      std::fill(y, y + m, 0.0f);  // fully masked row stays zero
  }
  return out;
}

}  // namespace

void softmax_row(float* row, std::size_t m) {
  if (m == 0) return;
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  const std::size_t full = m / kLanes * kLanes, tail = m - full;
  F32x4 last = {kNegInf, kNegInf, kNegInf, kNegInf};
  for (std::size_t l = 0; l < tail; ++l) last[l] = row[full + l];

  // Row max, lane-wise with std::max's (a < b ? b : a). Only a tie between +0
  // and -0 depends on the order, and x - (+0) and x - (-0) have the same exp.
  F32x4 lane_max = last;
  for (std::size_t j = 0; j < full; j += kLanes) {
    const F32x4 x = load4(row + j);
    lane_max = lane_max < x ? x : lane_max;
  }
  const float max_v =
      std::max(std::max(lane_max[0], lane_max[1]), std::max(lane_max[2], lane_max[3]));

  F32x4 lane_sum = {0.0f, 0.0f, 0.0f, 0.0f};
  for (std::size_t j = 0; j < full; j += kLanes) {
    const F32x4 e = exp_f32(load4(row + j) - max_v);
    store4(row + j, e);
    lane_sum += e;
  }
  last = exp_f32(last - max_v);
  lane_sum += last;
  const float denom = (lane_sum[0] + lane_sum[1]) + (lane_sum[2] + lane_sum[3]);

  for (std::size_t j = 0; j < full; j += kLanes) store4(row + j, load4(row + j) / denom);
  last /= denom;
  for (std::size_t l = 0; l < tail; ++l) row[full + l] = last[l];
}

Tensor softmax_rows(const Tensor& a) { return softmax_impl(a, nullptr); }

Tensor masked_softmax_rows(const Tensor& a, const std::vector<std::uint8_t>& mask) {
  return softmax_impl(a, &mask);
}

Tensor concat_cols(const std::vector<Tensor>& parts) {
  require(!parts.empty(), "concat_cols: empty input");
  const std::size_t n = parts.front().rows();
  std::size_t total = 0;
  std::vector<Impl> impls;
  for (const Tensor& p : parts) {
    require(p.rows() == n, "concat_cols row mismatch");
    total += p.cols();
    impls.push_back(p.impl());
  }

  Tensor out = make_op_result(n, total, {impls}, [impls, n, total](const TensorImpl& self) {
    std::size_t offset = 0;
    for (const Impl& p : impls) {
      const std::size_t d = p->cols;
      if (p->requires_grad) {
        p->ensure_grad();
        for (std::size_t r = 0; r < n; ++r)
          for (std::size_t c = 0; c < d; ++c)
            p->grad[r * d + c] += self.grad[r * total + offset + c];
      }
      offset += d;
    }
  });

  std::size_t offset = 0;
  for (const Tensor& p : parts) {
    const std::size_t d = p.cols();
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < d; ++c)
        out.values()[r * total + offset + c] = p.values()[r * d + c];
    offset += d;
  }
  return out;
}

Tensor gather_rows(const Tensor& a, const std::vector<std::uint32_t>& indices) {
  const std::size_t d = a.cols();
  for (std::uint32_t idx : indices)
    require(idx < a.rows(), "gather_rows index out of range");
  Impl ia = a.impl();
  std::vector<std::uint32_t> idx_copy = indices;

  Tensor out =
      make_op_result(indices.size(), d, {ia}, [ia, idx_copy, d](const TensorImpl& self) {
        if (!ia->requires_grad) return;
        ia->ensure_grad();
        for (std::size_t r = 0; r < idx_copy.size(); ++r)
          for (std::size_t c = 0; c < d; ++c)
            ia->grad[idx_copy[r] * d + c] += self.grad[r * d + c];
      });
  for (std::size_t r = 0; r < indices.size(); ++r)
    for (std::size_t c = 0; c < d; ++c)
      out.values()[r * d + c] = a.values()[indices[r] * d + c];
  return out;
}

Tensor sum_all(const Tensor& a) {
  Impl ia = a.impl();
  Tensor out = make_op_result(1, 1, {ia}, [ia](const TensorImpl& self) {
    if (!ia->requires_grad) return;
    ia->ensure_grad();
    for (float& g : ia->grad) g += self.grad[0];
  });
  float acc = 0.0f;
  for (float v : a.values()) acc += v;
  out.values()[0] = acc;
  return out;
}

Tensor mean_all(const Tensor& a) {
  return scale(sum_all(a), 1.0f / static_cast<float>(a.size()));
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  require(pred.rows() == target.rows() && pred.cols() == target.cols(),
          "mse_loss shape mismatch");
  const float inv_n = 1.0f / static_cast<float>(pred.size());
  Impl ip = pred.impl(), it = target.impl();
  Tensor out = make_op_result(1, 1, {ip}, [ip, it, inv_n](const TensorImpl& self) {
    if (!ip->requires_grad) return;
    ip->ensure_grad();
    for (std::size_t i = 0; i < ip->grad.size(); ++i)
      ip->grad[i] += 2.0f * inv_n * (ip->value[i] - it->value[i]) * self.grad[0];
  });
  float acc = 0.0f;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const float d = pred.values()[i] - target.values()[i];
    acc += d * d;
  }
  out.values()[0] = acc * inv_n;
  return out;
}

}  // namespace gnntrans::tensor
