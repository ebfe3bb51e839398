#ifndef XFC_TESTS_NN_TEST_UTIL_HPP
#define XFC_TESTS_NN_TEST_UTIL_HPP

/// Helpers shared by the NN tests: graph builders whose parameters live in
/// an nn::Model and are initialised the way CfnnModel initialises its own
/// (Xavier weights, zero biases), and the naive double-accumulating
/// reference kernels the optimised ones are cross-checked against.

#include <cstddef>
#include <vector>

#include "core/rng.hpp"
#include "nn/autodiff.hpp"
#include "nn/graph.hpp"
#include "nn/tensor.hpp"

namespace xfc::nn::test {

inline Tensor random_tensor(std::size_t n, std::size_t c, std::size_t h,
                            std::size_t w, Rng& rng, double scale = 1.0) {
  Tensor t(n, c, h, w);
  for (auto& v : t.vec()) v = static_cast<float>(rng.normal(0.0, scale));
  return t;
}

/// Grouped "same" convolution of `x` to `out` channels. Adds the weight
/// [out][in/groups][k][k] and (unless `bias` is false) the bias to `m`.
inline NodeRef conv(Graph& g, Model& m, NodeRef x, std::size_t out,
                    std::size_t k, std::size_t groups, Rng& rng,
                    bool bias = true) {
  const std::size_t icg = g.shape(x).c / groups, k2 = k * k;
  auto& w = m.add_xavier(out * icg * k2, icg * k2, (out / groups) * k2, rng);
  const NodeRef wn = g.param(w, {out, icg, k, k});
  const NodeRef bn = bias ? g.param(m.add(out), {1, out, 1, 1}) : NodeRef{};
  return g.conv2d(x, wn, out, k, groups, bn);
}

/// Channel attention over `x`. Adds w1 [mid][c], b1, w2 [c][mid], b2 to
/// `m`, mid = c / reduction.
inline NodeRef attention(Graph& g, Model& m, NodeRef x, std::size_t reduction,
                         Rng& rng) {
  const std::size_t c = g.shape(x).c, mid = c / reduction;
  auto& w1 = m.add_xavier(mid * c, c, mid, rng);
  auto& b1 = m.add(mid);
  auto& w2 = m.add_xavier(c * mid, mid, c, rng);
  auto& b2 = m.add(c);
  const NodeRef n1 = g.param(w1, {mid, c, 1, 1});
  const NodeRef n2 = g.param(b1, {1, mid, 1, 1});
  const NodeRef n3 = g.param(w2, {c, mid, 1, 1});
  const NodeRef n4 = g.param(b2, {1, c, 1, 1});
  return g.channel_attention(x, n1, n2, n3, n4, reduction);
}

/// Naive triple-loop GEMM with double accumulation; same interface as
/// nn::sgemm (row-major, op(A) m x k, op(B) k x n).
inline void sgemm_ref(bool trans_a, bool trans_b, std::size_t m,
                      std::size_t n, std::size_t k, float alpha,
                      const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float beta, float* c,
                      std::size_t ldc) {
  const auto at = [](const float* x, std::size_t ld, bool trans,
                     std::size_t row, std::size_t col) {
    return trans ? x[col * ld + row] : x[row * ld + col];
  };
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p)
        acc += static_cast<double>(at(a, lda, trans_a, i, p)) *
               at(b, ldb, trans_b, p, j);
      float& out = c[i * ldc + j];
      out = alpha * static_cast<float>(acc) +
            (beta == 0.0f ? 0.0f : beta * out);
    }
  }
}

/// Naive six-loop "same" convolution forward: weight layout
/// [out_ch][in_ch/groups][k][k], bias may be null.
inline Tensor conv2d_ref_forward(const Tensor& x,
                                 const std::vector<float>& weight,
                                 const float* bias, std::size_t out_ch,
                                 std::size_t k, std::size_t groups) {
  const std::size_t B = x.n(), H = x.h(), W = x.w();
  const std::size_t icg = x.c() / groups;
  const std::size_t ocg = out_ch / groups;
  const std::size_t pad = k / 2;
  Tensor y(B, out_ch, H, W);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t oc = 0; oc < out_ch; ++oc) {
      const std::size_t g = oc / ocg;
      float* out = y.plane(b, oc);
      const float* wbase = weight.data() + oc * icg * k * k;
      const float bv = bias != nullptr ? bias[oc] : 0.0f;
      for (std::size_t oy = 0; oy < H; ++oy) {
        for (std::size_t ox = 0; ox < W; ++ox) {
          double acc = bv;
          for (std::size_t ic = 0; ic < icg; ++ic) {
            const float* in = x.plane(b, g * icg + ic);
            const float* wk = wbase + ic * k * k;
            for (std::size_t ky = 0; ky < k; ++ky) {
              const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(H)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(W)) continue;
                acc += wk[ky * k + kx] * in[iy * W + ix];
              }
            }
          }
          out[oy * W + ox] = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

/// Naive reference backward. Accumulates (+=) into grad_weight/grad_bias
/// like the graph's conv backward does; grad_bias may be null. Returns
/// dL/dx.
inline Tensor conv2d_ref_backward(const Tensor& x, const Tensor& grad_out,
                                  const std::vector<float>& weight,
                                  std::size_t out_ch, std::size_t k,
                                  std::size_t groups,
                                  std::vector<float>& grad_weight,
                                  float* grad_bias) {
  const std::size_t B = x.n(), H = x.h(), W = x.w();
  const std::size_t icg = x.c() / groups;
  const std::size_t ocg = out_ch / groups;
  const std::size_t pad = k / 2;

  Tensor gx(B, x.c(), H, W);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t oc = 0; oc < out_ch; ++oc) {
      const std::size_t g = oc / ocg;
      const float* go = grad_out.plane(b, oc);
      float* gw = grad_weight.data() + oc * icg * k * k;
      double gb = 0.0;
      for (std::size_t ic = 0; ic < icg; ++ic) {
        const float* in = x.plane(b, g * icg + ic);
        float* gxi = gx.plane(b, g * icg + ic);
        const float* wk = weight.data() + (oc * icg + ic) * k * k;
        float* gwk = gw + ic * k * k;
        for (std::size_t oy = 0; oy < H; ++oy) {
          for (std::size_t ox = 0; ox < W; ++ox) {
            const float g0 = go[oy * W + ox];
            if (g0 == 0.0f) continue;
            for (std::size_t ky = 0; ky < k; ++ky) {
              const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(H)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(W)) continue;
                gxi[iy * W + ix] += g0 * wk[ky * k + kx];
                gwk[ky * k + kx] += g0 * in[iy * W + ix];
              }
            }
          }
        }
      }
      if (grad_bias != nullptr) {
        for (std::size_t i = 0; i < H * W; ++i) gb += go[i];
        grad_bias[oc] += static_cast<float>(gb);
      }
    }
  }
  return gx;
}

}  // namespace xfc::nn::test

#endif  // XFC_TESTS_NN_TEST_UTIL_HPP
