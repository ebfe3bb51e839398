// Tests for the CNN framework's graph ops as a model uses them: op
// semantics on hand-set weights, finite-difference checks of input and
// parameter gradients, the MSE head, the parameter bag, and optimizer
// convergence. (Op-level CheckGrad coverage lives in test_autodiff.cpp;
// the CFNN's own graph and byte layout in test_cfnn.cpp.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "cfnn/cfnn.hpp"
#include "core/rng.hpp"
#include "nn/autodiff.hpp"
#include "nn/graph.hpp"
#include "nn/optimizer.hpp"
#include "nn_test_util.hpp"

namespace xfc::nn {
namespace {

using test::attention;
using test::conv;
using test::random_tensor;

/// Appends a network to `g` with `x` as input and returns its output.
using BuildFn = std::function<NodeRef(Graph&, NodeRef)>;

/// Builds an inference graph and runs x through it.
Tensor run(const BuildFn& build, const Tensor& x) {
  Graph g(Graph::Mode::kInfer);
  const NodeRef in = g.input({x.n(), x.c(), x.h(), x.w()});
  const NodeRef out = build(g, in);
  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.forward();
  const GShape s = g.shape(out);
  Tensor y(s.n, s.c, s.h, s.w);
  std::copy(exec.value(out), exec.value(out) + y.size(), y.data());
  return y;
}

/// Scalar loss used by the gradient checks: sum of elementwise products
/// with a fixed random "probe" tensor (gives dense, nontrivial gradients).
double probe_loss(const float* y, const Tensor& probe) {
  double s = 0;
  for (std::size_t i = 0; i < probe.size(); ++i)
    s += static_cast<double>(y[i]) * probe.vec()[i];
  return s;
}

/// Checks dL/d(input) and dL/d(params) of a graph definition against
/// central finite differences, seeding backward with the probe.
void check_gradients(const BuildFn& build, Tensor x, double tol = 2e-2,
                     double fd_eps = 1e-3) {
  Rng rng(12345);
  Graph g(Graph::Mode::kTrain);
  const NodeRef in =
      g.input({x.n(), x.c(), x.h(), x.w()}, /*needs_grad=*/true);
  const NodeRef out = build(g, in);
  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.forward();

  const GShape os = g.shape(out);
  Tensor probe = random_tensor(os.n, os.c, os.h, os.w, rng);
  g.zero_grad();
  exec.backward_from(out, probe.vec().data());

  const std::vector<float> gx(exec.grad(in), exec.grad(in) + x.size());
  auto params = g.params();
  std::vector<std::vector<float>> analytic;
  for (const Param& p : params) analytic.push_back(*p.grad);

  const auto loss_now = [&] {
    exec.forward();
    return probe_loss(exec.value(out), probe);
  };

  // Input gradient check on a sample of coordinates.
  for (std::size_t trial = 0; trial < 24; ++trial) {
    const std::size_t i = rng.uniform_index(x.size());
    const float orig = x.vec()[i];
    x.vec()[i] = orig + static_cast<float>(fd_eps);
    const double lp = loss_now();
    x.vec()[i] = orig - static_cast<float>(fd_eps);
    const double lm = loss_now();
    x.vec()[i] = orig;
    const double fd = (lp - lm) / (2 * fd_eps);
    EXPECT_NEAR(gx[i], fd, tol * std::max(1.0, std::abs(fd)))
        << "input grad at " << i;
  }

  // Parameter gradient check.
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    std::vector<float>& v = *params[pi].value;
    for (std::size_t trial = 0; trial < 12 && trial < v.size(); ++trial) {
      const std::size_t i = rng.uniform_index(v.size());
      const float orig = v[i];
      v[i] = orig + static_cast<float>(fd_eps);
      const double lp = loss_now();
      v[i] = orig - static_cast<float>(fd_eps);
      const double lm = loss_now();
      v[i] = orig;
      const double fd = (lp - lm) / (2 * fd_eps);
      EXPECT_NEAR(analytic[pi][i], fd, tol * std::max(1.0, std::abs(fd)))
          << "param " << pi << " grad at " << i;
    }
  }
}

TEST(Tensor, ShapeAndIndexing) {
  Tensor t(2, 3, 4, 5);
  EXPECT_EQ(t.size(), 120u);
  t(1, 2, 3, 4) = 9.0f;
  EXPECT_EQ(t.vec()[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
  EXPECT_EQ(t.plane(1, 2)[3 * 5 + 4], 9.0f);
}

NodeRef relu_of(Graph& g, NodeRef in) { return g.relu(in); }

TEST(ReLUOp, ForwardClampsNegatives) {
  Tensor x(1, 1, 1, 4);
  x.vec() = {-1.0f, 0.0f, 2.0f, -0.5f};
  const Tensor y = run(relu_of, x);
  EXPECT_EQ(y.vec(), (std::vector<float>{0.0f, 0.0f, 2.0f, 0.0f}));
}

TEST(ReLUOp, BackwardMasks) {
  Tensor x(1, 1, 1, 4);
  x.vec() = {-1.0f, 0.5f, 2.0f, -3.0f};
  Graph g(Graph::Mode::kTrain);
  const NodeRef in = g.input({1, 1, 1, 4}, /*needs_grad=*/true);
  const NodeRef out = g.relu(in);
  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.forward();
  const std::vector<float> seed{1.0f, 1.0f, 1.0f, 1.0f};
  exec.backward_from(out, seed.data());
  const float* gx = exec.grad(in);
  EXPECT_EQ(std::vector<float>(gx, gx + 4),
            (std::vector<float>{0.0f, 1.0f, 1.0f, 0.0f}));
}

/// Bias-free convolution with caller-set weights [out][in/groups][k][k].
BuildFn fixed_conv(std::vector<float>& w, std::size_t out, std::size_t k,
                   std::size_t groups) {
  return [&w, out, k, groups](Graph& g, NodeRef in) {
    const std::size_t icg = g.shape(in).c / groups;
    return g.conv2d(in, g.param(w, {out, icg, k, k}), out, k, groups);
  };
}

TEST(Conv2DOp, IdentityKernelPassesThrough) {
  Rng rng(3);
  std::vector<float> w(9, 0.0f);
  w[4] = 1.0f;  // centre tap
  Tensor x = random_tensor(1, 1, 5, 7, rng);
  const Tensor y = run(fixed_conv(w, 1, 3, 1), x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y.vec()[i], x.vec()[i], 1e-6);
}

TEST(Conv2DOp, KnownSmallConvolution) {
  std::vector<float> w(9, 1.0f);
  Tensor x(1, 1, 3, 3);
  for (std::size_t i = 0; i < 9; ++i) x.vec()[i] = 1.0f;
  const Tensor y = run(fixed_conv(w, 1, 3, 1), x);
  // Centre sees all 9 ones, corner sees 4 (zero padding).
  EXPECT_FLOAT_EQ(y(0, 0, 1, 1), 9.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 1), 6.0f);
}

TEST(Conv2DOp, PointwiseMixesChannelsOnly) {
  std::vector<float> w{2.0f, -1.0f};
  Tensor x(1, 2, 2, 2);
  for (std::size_t i = 0; i < 4; ++i) x.plane(0, 0)[i] = 3.0f;
  for (std::size_t i = 0; i < 4; ++i) x.plane(0, 1)[i] = 5.0f;
  const Tensor y = run(fixed_conv(w, 1, 1, 1), x);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_FLOAT_EQ(y.plane(0, 0)[i], 2.0f * 3.0f - 1.0f * 5.0f);
}

TEST(Conv2DOp, DepthwiseKeepsChannelsIndependent) {
  Rng rng(6);
  // Channel 0: identity; channel 1: zero.
  std::vector<float> w(2 * 9, 0.0f);
  w[4] = 1.0f;
  Tensor x = random_tensor(1, 2, 4, 4, rng);
  const Tensor y = run(fixed_conv(w, 2, 3, 2), x);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(y.plane(0, 0)[i], x.plane(0, 0)[i], 1e-6);
    EXPECT_EQ(y.plane(0, 1)[i], 0.0f);
  }
}

/// Gradient check of one Xavier-initialised conv with bias on an
/// (n, c, h, w) input.
void check_conv(std::uint64_t seed, std::size_t out, std::size_t k,
                std::size_t groups, std::size_t n, std::size_t c,
                std::size_t h, std::size_t w) {
  Rng rng(seed);
  Model m;
  check_gradients(
      [&](Graph& g, NodeRef in) {
        return conv(g, m, in, out, k, groups, rng);
      },
      random_tensor(n, c, h, w, rng));
}

TEST(Conv2DOp, GradientCheckStandard) { check_conv(7, 4, 3, 1, 2, 3, 5, 6); }

TEST(Conv2DOp, GradientCheckDepthwise) { check_conv(8, 4, 3, 4, 2, 4, 5, 5); }

TEST(Conv2DOp, GradientCheckGrouped) { check_conv(9, 6, 3, 2, 1, 4, 6, 4); }

TEST(Conv2DOp, GradientCheckPointwise) {
  check_conv(10, 3, 1, 1, 2, 5, 4, 4);
}

// The k=5 / batched-grouped cases route through every conv code path (wide
// halo, grouped weight blocks, per-image weight-grad GEMMs).

TEST(Conv2DOp, GradientCheckKernel5) { check_conv(30, 3, 5, 1, 2, 2, 7, 6); }

TEST(Conv2DOp, GradientCheckGroupedBatched) {
  check_conv(31, 4, 3, 2, 3, 6, 5, 7);
}

TEST(Conv2DOp, RejectsBadHyperparameters) {
  Graph g(Graph::Mode::kInfer);
  const NodeRef in = g.input({1, 3, 5, 5});
  std::vector<float> w_even(4 * 3 * 2 * 2), w_split(4 * 3 * 3 * 3);
  const NodeRef even = g.param(w_even, {4, 3, 2, 2});
  const NodeRef split = g.param(w_split, {4, 3, 3, 3});
  EXPECT_THROW(g.conv2d(in, even, 4, 2, 1), InvalidArgument);   // even k
  EXPECT_THROW(g.conv2d(in, split, 4, 3, 2), InvalidArgument);  // 3 % 2
}

TEST(Conv2DOp, NoBiasGradientCheck) {
  Rng rng(21);
  Model m;
  check_gradients(
      [&](Graph& g, NodeRef in) {
        const NodeRef y = conv(g, m, in, 3, 3, 1, rng, /*bias=*/false);
        EXPECT_EQ(g.params().size(), 1u);
        return y;
      },
      random_tensor(1, 2, 5, 5, rng));
}

TEST(ChannelAttentionOp, OutputIsScaledInput) {
  Rng rng(12);
  Model m;
  Tensor x = random_tensor(2, 4, 6, 6, rng);
  const Tensor y = run(
      [&](Graph& g, NodeRef in) { return attention(g, m, in, 2, rng); }, x);
  // Each output plane must be a scalar multiple of its input plane,
  // with the scalar in (0, 1) (sigmoid output).
  for (std::size_t b = 0; b < 2; ++b)
    for (std::size_t c = 0; c < 4; ++c) {
      const float* xi = x.plane(b, c);
      const float* yi = y.plane(b, c);
      // find a nonzero reference element
      std::size_t r = 0;
      while (r < 36 && std::abs(xi[r]) < 1e-3) ++r;
      ASSERT_LT(r, 36u);
      const float s = yi[r] / xi[r];
      EXPECT_GT(s, 0.0f);
      EXPECT_LT(s, 1.0f);
      for (std::size_t i = 0; i < 36; ++i)
        EXPECT_NEAR(yi[i], xi[i] * s, 1e-4);
    }
}

TEST(ChannelAttentionOp, GradientCheck) {
  Rng rng(13);
  Model m;
  check_gradients(
      [&](Graph& g, NodeRef in) { return attention(g, m, in, 2, rng); },
      random_tensor(2, 4, 5, 5, rng), 4e-2);
}

TEST(ChannelAttentionOp, RejectsIndivisibleReduction) {
  Graph g(Graph::Mode::kInfer);
  const NodeRef in = g.input({1, 5, 4, 4});
  std::vector<float> w1(2 * 5), b1(2), w2(5 * 2), b2(5);
  const NodeRef n1 = g.param(w1, {2, 5, 1, 1});
  const NodeRef n2 = g.param(b1, {1, 2, 1, 1});
  const NodeRef n3 = g.param(w2, {5, 2, 1, 1});
  const NodeRef n4 = g.param(b2, {1, 5, 1, 1});
  EXPECT_THROW(g.channel_attention(in, n1, n2, n3, n4, 2), InvalidArgument);
}

TEST(CfnnGraph, GradientCheckThroughStack) {
  // conv -> relu -> depthwise -> pointwise -> relu -> attention -> conv:
  // input and parameter gradients of the CFNN's own graph definition.
  Rng rng(15);
  CfnnModel model(2, 1, CfnnConfig{4, 2, 3}, 15);
  check_gradients([&](Graph& g, NodeRef in) { return model.append(g, in); },
                  random_tensor(1, 2, 6, 6, rng), 5e-2);
}

TEST(ParamBag, ParamCountSumsTensors) {
  Rng rng(16);
  Model m;
  auto& cw = m.add_xavier(3 * 2 * 9, 2 * 9, 3 * 9, rng);  // 54
  auto& cb = m.add(3);                                     // + 3 = 57
  auto& lw = m.add_xavier(2 * 4, 4, 2, rng);               // 8
  auto& lb = m.add(2);                                     // + 2 = 10
  EXPECT_EQ(m.size(), 4u);
  EXPECT_EQ(m.param_count(), 67u);
  EXPECT_EQ(m.values(1), std::vector<float>(3, 0.0f));

  Graph g(Graph::Mode::kTrain);
  g.param(cw, {3, 2, 3, 3});
  g.param(cb, {1, 3, 1, 1});
  g.param(lw, {2, 4, 1, 1});
  g.param(lb, {1, 2, 1, 1});
  EXPECT_EQ(g.param_count(), 67u);
}

TEST(MseLoss, ValueAndGradient) {
  Tensor a(1, 1, 1, 2), b(1, 1, 1, 2);
  a.vec() = {1.0f, 3.0f};
  b.vec() = {0.0f, 1.0f};
  Graph g(Graph::Mode::kTrain);
  const NodeRef pred = g.input({1, 1, 1, 2}, /*needs_grad=*/true);
  const NodeRef tgt = g.input({1, 1, 1, 2});
  g.mse_loss(pred, tgt);
  GraphExec exec(g, tls_workspace());
  exec.bind(pred, a.data());
  exec.bind(tgt, b.data());
  exec.forward();
  EXPECT_DOUBLE_EQ(exec.loss(), (1.0 + 4.0) / 2.0);
  exec.backward();
  EXPECT_FLOAT_EQ(exec.grad(pred)[0], 2.0f * 1.0f / 2.0f);
  EXPECT_FLOAT_EQ(exec.grad(pred)[1], 2.0f * 2.0f / 2.0f);
}

TEST(MseLoss, RejectsMismatchedShapes) {
  Graph g(Graph::Mode::kInfer);
  const NodeRef a = g.input({1, 1, 2, 2});
  const NodeRef b = g.input({1, 1, 2, 3});
  EXPECT_THROW(g.mse_loss(a, b), InvalidArgument);
}

TEST(AdamOptimizer, ConvergesOnQuadratic) {
  // Minimise ||w - target||^2 using the Param plumbing directly.
  std::vector<float> w{5.0f, -3.0f, 8.0f};
  std::vector<float> g(3, 0.0f);
  const std::vector<float> target{1.0f, 2.0f, -1.0f};
  Adam adam({{&w, &g}}, {.lr = 0.05});
  for (int it = 0; it < 2000; ++it) {
    for (std::size_t i = 0; i < 3; ++i) g[i] = 2.0f * (w[i] - target[i]);
    adam.step();
  }
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(w[i], target[i], 1e-2);
}

TEST(AdamOptimizer, TrainsTinyCnnToFitMapping) {
  Rng rng(17);
  Model m;
  Graph g(Graph::Mode::kTrain);
  const NodeRef in = g.input({4, 1, 8, 8});
  const NodeRef tgt = g.input({4, 1, 8, 8});
  const NodeRef h = g.relu(conv(g, m, in, 4, 3, 1, rng));
  g.mse_loss(conv(g, m, h, 1, 3, 1, rng), tgt);

  // Learn a 2x blur-free scaling: y = 2x (learnable by convs).
  Tensor x = random_tensor(4, 1, 8, 8, rng, 0.5);
  Tensor y = x;
  for (auto& v : y.vec()) v *= 2.0f;

  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.bind(tgt, y.data());

  Adam adam(g.params(), {.lr = 2e-2});
  double first = 0, last = 0;
  for (int epoch = 0; epoch < 150; ++epoch) {
    g.zero_grad();
    exec.forward();
    exec.backward();
    adam.step();
    if (epoch == 0) first = exec.loss();
    last = exec.loss();
  }
  EXPECT_LT(last, first * 0.05);
}

TEST(AdamOptimizer, DecoupledWeightDecayShrinksWeights) {
  std::vector<float> w{10.0f, -10.0f};
  std::vector<float> g(2, 0.0f);  // zero gradient: only decay acts
  Adam adam({{&w, &g}}, {.lr = 0.1, .weight_decay = 0.1});
  for (int it = 0; it < 100; ++it) adam.step();
  EXPECT_LT(std::abs(w[0]), 10.0f);
  EXPECT_LT(std::abs(w[1]), 10.0f);
  EXPECT_GT(w[0], 0.0f);  // decay shrinks, never flips sign this fast
}

TEST(AdamOptimizer, IterationCounter) {
  std::vector<float> w{1.0f};
  std::vector<float> g{0.0f};
  Adam adam({{&w, &g}}, AdamOptions{});
  EXPECT_EQ(adam.iterations(), 0u);
  adam.step();
  adam.step();
  EXPECT_EQ(adam.iterations(), 2u);
}

TEST(GraphParams, ZeroGradClearsAllParams) {
  Rng rng(22);
  Model m;
  Graph g(Graph::Mode::kTrain);
  const NodeRef in = g.input({1, 1, 6, 6});
  const NodeRef out = attention(g, m, conv(g, m, in, 2, 3, 1, rng), 2, rng);
  Tensor x = random_tensor(1, 1, 6, 6, rng);
  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.forward();
  const GShape os = g.shape(out);
  Tensor probe = random_tensor(os.n, os.c, os.h, os.w, rng);
  exec.backward_from(out, probe.vec().data());

  bool any_nonzero = false;
  for (auto& p : g.params())
    for (float v : *p.grad)
      if (v != 0.0f) any_nonzero = true;
  ASSERT_TRUE(any_nonzero);

  g.zero_grad();
  for (auto& p : g.params())
    for (float v : *p.grad) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace xfc::nn
