#ifndef XFC_TESTS_NN_TEST_UTIL_HPP
#define XFC_TESTS_NN_TEST_UTIL_HPP

/// Graph-building helpers shared by the NN tests. Parameters live in an
/// nn::Model and are initialised the way CfnnModel initialises its own
/// (Xavier weights, zero biases).

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

}  // namespace xfc::nn::test

#endif  // XFC_TESTS_NN_TEST_UTIL_HPP
