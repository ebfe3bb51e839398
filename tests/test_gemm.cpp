// Cross-checks for the lowered NN compute core: blocked SGEMM vs the naive
// reference, im2col against its index definition, and the graph's conv op
// (im2col+GEMM forward, derived backward via GraphExec::backward_from)
// against the retained naive kernels — across odd shapes, groups > 1,
// batch > 1, and k in {1,3,5}.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rng.hpp"
#include "nn/autodiff.hpp"
#include "nn/gemm.hpp"
#include "nn/graph.hpp"
#include "nn/im2col.hpp"
#include "nn/workspace.hpp"
#include "nn_test_util.hpp"

namespace xfc::nn {
namespace {

constexpr double kRelTol = 1e-4;

void expect_near_rel(float got, float want, const char* what, std::size_t i) {
  const double tol =
      kRelTol * std::max(1.0, std::abs(static_cast<double>(want)));
  EXPECT_NEAR(got, want, tol) << what << " mismatch at flat index " << i;
}

std::vector<float> random_vec(std::size_t n, Rng& rng, double scale = 1.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, scale));
  return v;
}

using test::random_tensor;

void check_sgemm(bool ta, bool tb, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, float beta, Rng& rng) {
  const std::size_t lda = ta ? m : k;
  const std::size_t ldb = tb ? k : n;
  std::vector<float> a = random_vec((ta ? k : m) * lda, rng);
  std::vector<float> b = random_vec((tb ? n : k) * ldb, rng);
  std::vector<float> c0 = random_vec(m * n, rng);
  std::vector<float> c_blocked = c0, c_ref = c0;
  sgemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
        c_blocked.data(), n);
  sgemm_ref(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
            c_ref.data(), n);
  for (std::size_t i = 0; i < c_ref.size(); ++i)
    expect_near_rel(c_blocked[i], c_ref[i], "sgemm", i);
}

TEST(Sgemm, MatchesReferenceAcrossShapes) {
  Rng rng(101);
  // Odd, tiny, register-tile-straddling shapes.
  const std::size_t dims[] = {1, 2, 3, 5, 7, 8, 13, 17, 70};
  for (std::size_t m : dims)
    for (std::size_t n : dims)
      for (std::size_t k : {std::size_t{1}, std::size_t{6}, std::size_t{70}})
        check_sgemm(false, false, m, n, k, 1.0f, 0.0f, rng);
}

TEST(Sgemm, MatchesReferenceTransposed) {
  Rng rng(102);
  for (bool ta : {false, true})
    for (bool tb : {false, true})
      for (std::size_t m : {std::size_t{1}, std::size_t{9}, std::size_t{40}})
        for (std::size_t n : {std::size_t{3}, std::size_t{31}})
          check_sgemm(ta, tb, m, n, 25, 1.0f, 0.0f, rng);
}

TEST(Sgemm, AlphaBetaAccumulate) {
  Rng rng(103);
  check_sgemm(false, false, 11, 23, 17, 0.5f, 1.0f, rng);
  check_sgemm(true, false, 12, 9, 30, 2.0f, -0.5f, rng);
  check_sgemm(false, true, 7, 19, 41, 1.0f, 1.0f, rng);
}

TEST(Sgemm, BlockingBoundariesExact) {
  // Spans the KC=240 / MC=72 / NC=1024 block edges so multi-block
  // accumulation (beta0 handling) is exercised.
  Rng rng(104);
  check_sgemm(false, false, 73, 90, 250, 1.0f, 0.0f, rng);
  check_sgemm(false, false, 6, 1030, 241, 1.0f, 1.0f, rng);
}

TEST(Im2col, MatchesIndexDefinition) {
  Rng rng(105);
  for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    const std::size_t icg = 3, H = 6, W = 7;
    const Tensor x = random_tensor(1, icg, H, W, rng);
    const std::size_t pad = k / 2;
    std::vector<float> col(icg * k * k * H * W, -42.0f);
    im2col(x.data(), icg, H, W, k, col.data());
    for (std::size_t ic = 0; ic < icg; ++ic)
      for (std::size_t ky = 0; ky < k; ++ky)
        for (std::size_t kx = 0; kx < k; ++kx)
          for (std::size_t oy = 0; oy < H; ++oy)
            for (std::size_t ox = 0; ox < W; ++ox) {
              const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                        static_cast<std::ptrdiff_t>(pad);
              const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox + kx) -
                                        static_cast<std::ptrdiff_t>(pad);
              const bool inside =
                  iy >= 0 && iy < static_cast<std::ptrdiff_t>(H) && ix >= 0 &&
                  ix < static_cast<std::ptrdiff_t>(W);
              const float want =
                  inside ? x(0, ic, static_cast<std::size_t>(iy),
                             static_cast<std::size_t>(ix))
                         : 0.0f;
              const std::size_t row = (ic * k + ky) * k + kx;
              EXPECT_EQ(col[row * H * W + oy * W + ox], want)
                  << "k=" << k << " row=" << row << " oy=" << oy
                  << " ox=" << ox;
            }
  }
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), c> == <x, col2im(c)> characterises the scatter-add
  // inverse exactly (both sides are sums of the same products).
  Rng rng(106);
  const std::size_t icg = 2, H = 5, W = 6, k = 3;
  const Tensor x = random_tensor(1, icg, H, W, rng);
  const std::size_t cn = icg * k * k * H * W;
  const std::vector<float> c = random_vec(cn, rng);
  std::vector<float> col(cn);
  im2col(x.data(), icg, H, W, k, col.data());
  std::vector<float> back(icg * H * W, 0.0f);
  col2im(c.data(), icg, H, W, k, back.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cn; ++i)
    lhs += static_cast<double>(col[i]) * c[i];
  for (std::size_t i = 0; i < back.size(); ++i)
    rhs += static_cast<double>(x.vec()[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::abs(lhs)));
}

struct ConvCase {
  std::size_t batch, in_ch, out_ch, k, groups, h, w;
};

const ConvCase kConvCases[] = {
    {1, 1, 1, 3, 1, 5, 7},    // minimal, odd plane
    {2, 3, 4, 3, 1, 7, 9},    // batch > 1, standard
    {2, 4, 4, 3, 4, 6, 5},    // depthwise
    {1, 4, 6, 5, 2, 9, 7},    // grouped, k=5
    {3, 5, 3, 1, 1, 4, 11},   // pointwise, batch > 1
    {2, 6, 4, 3, 2, 8, 8},    // grouped, even plane
    {1, 2, 2, 5, 1, 5, 5},    // kernel as large as the plane
    {2, 8, 8, 3, 2, 33, 17},  // straddles GEMM register tiles
    {1, 2, 3, 5, 1, 4, 1},    // plane narrower than the padding (w <= pad)
    {1, 1, 2, 5, 1, 1, 6},    // single-row plane, wide halo
};

TEST(Conv2DGemm, ForwardMatchesNaiveReference) {
  for (const ConvCase& cc : kConvCases) {
    Rng rng(200 + cc.in_ch + cc.out_ch + cc.k);
    Model m;
    Graph g(Graph::Mode::kInfer);
    const NodeRef in = g.input({cc.batch, cc.in_ch, cc.h, cc.w});
    const NodeRef out =
        test::conv(g, m, in, cc.out_ch, cc.k, cc.groups, rng);
    Tensor x = random_tensor(cc.batch, cc.in_ch, cc.h, cc.w, rng);

    GraphExec exec(g, tls_workspace());
    exec.bind(in, x.data());
    exec.forward();
    const float* got = exec.value(out);

    const Tensor want = conv2d_ref_forward(x, m.values(0),
                                           m.values(1).data(), cc.out_ch,
                                           cc.k, cc.groups);
    ASSERT_EQ(g.shape(out).size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      expect_near_rel(got[i], want.vec()[i], "conv forward", i);
  }
}

TEST(Conv2DGemm, BackwardMatchesNaiveReference) {
  for (const ConvCase& cc : kConvCases) {
    Rng rng(300 + cc.in_ch + cc.out_ch + cc.k);
    Model m;
    Graph g(Graph::Mode::kTrain);
    const NodeRef in =
        g.input({cc.batch, cc.in_ch, cc.h, cc.w}, /*needs_grad=*/true);
    const NodeRef out =
        test::conv(g, m, in, cc.out_ch, cc.k, cc.groups, rng);
    Tensor x = random_tensor(cc.batch, cc.in_ch, cc.h, cc.w, rng);
    Tensor go = random_tensor(cc.batch, cc.out_ch, cc.h, cc.w, rng);

    GraphExec exec(g, tls_workspace());
    exec.bind(in, x.data());
    exec.forward();
    g.zero_grad();
    exec.backward_from(out, go.data());

    // Graph params in registration order: weight then bias.
    auto params = g.params();
    ASSERT_EQ(params.size(), 2u);
    const std::size_t icg = cc.in_ch / cc.groups;
    std::vector<float> gw_ref(cc.out_ch * icg * cc.k * cc.k, 0.0f);
    std::vector<float> gb_ref(cc.out_ch, 0.0f);
    const Tensor gx_ref = conv2d_ref_backward(
        x, go, m.values(0), cc.out_ch, cc.k, cc.groups, gw_ref,
        gb_ref.data());

    const float* gx = exec.grad(in);
    ASSERT_NE(gx, nullptr);
    for (std::size_t i = 0; i < gx_ref.size(); ++i)
      expect_near_rel(gx[i], gx_ref.vec()[i], "conv dX", i);
    for (std::size_t i = 0; i < gw_ref.size(); ++i)
      expect_near_rel((*params[0].grad)[i], gw_ref[i], "conv dW", i);
    for (std::size_t i = 0; i < gb_ref.size(); ++i)
      expect_near_rel((*params[1].grad)[i], gb_ref[i], "conv dB", i);
  }
}

TEST(WorkspaceArena, ReusesSlabsAcrossScopes) {
  Workspace ws;
  float* first = nullptr;
  {
    const ScratchScope scope(ws);
    first = ws.acquire(1024);
    ASSERT_NE(first, nullptr);
  }
  {
    const ScratchScope scope(ws);
    // Same acquire order, same (not-reallocated) slab.
    EXPECT_EQ(ws.acquire(1024), first);
    // Nested scope stacks on top instead of clobbering.
    float* inner_before;
    {
      const ScratchScope inner(ws);
      inner_before = ws.acquire(16);
      EXPECT_NE(inner_before, first);
    }
    {
      const ScratchScope inner(ws);
      EXPECT_EQ(ws.acquire(16), inner_before);
    }
  }
  EXPECT_GE(ws.floats_reserved(), 1024u + 16u);
  ws.clear();
  EXPECT_EQ(ws.floats_reserved(), 0u);
}

TEST(WorkspaceArena, GrowsSlabWhenAskedForMore) {
  Workspace ws;
  const ScratchScope scope(ws);
  ws.acquire(8);
  ws.rewind(0);
  float* q = ws.acquire(4096);  // same slot, grown
  // After growth the slab must hold 4096 writable floats.
  for (std::size_t i = 0; i < 4096; ++i) q[i] = 1.0f;
  EXPECT_GE(ws.floats_reserved(), 4096u);
}

TEST(WorkspaceArena, TypedAcquiresShareTheSlabSequence) {
  // The decode paths take bytes and int64 scratch from the same arena the
  // NN path takes floats from; acquire order, not element type, names the
  // slab.
  Workspace ws;
  std::uint8_t* bytes = nullptr;
  std::int64_t* words = nullptr;
  {
    const ScratchScope scope(ws);
    bytes = ws.acquire_bytes(1000);
    words = ws.acquire_as<std::int64_t>(100);
    ASSERT_NE(bytes, nullptr);
    ASSERT_NE(words, nullptr);
    for (std::size_t i = 0; i < 1000; ++i) bytes[i] = 0xAB;
    for (std::size_t i = 0; i < 100; ++i) words[i] = -7;
  }
  {
    const ScratchScope scope(ws);
    // Same acquire order, same slabs — even at different types.
    EXPECT_EQ(ws.acquire_as<float>(250),
              reinterpret_cast<float*>(bytes));
    EXPECT_EQ(ws.acquire_bytes(800), reinterpret_cast<std::uint8_t*>(words));
  }
  EXPECT_GE(ws.bytes_reserved(), 1000u + 100 * sizeof(std::int64_t));
}

}  // namespace
}  // namespace xfc::nn
