// Cross-checks for the NN compute core: the test-only blocked SGEMM vs the
// naive reference, im2col against its index definition, the direct conv
// forward and backward bit for bit against the im2col + SGEMM (+ col2im)
// lowering whose order they freeze, the ReLU backward's bytes, and the
// graph's conv op (forward, derived backward via GraphExec::backward_from)
// against the naive kernels — across odd shapes, groups > 1, batch > 1,
// and k in {1,3,5}.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "nn/autodiff.hpp"
#include "lowering/gemm.hpp"
#include "lowering/im2col.hpp"
#include "nn/conv.hpp"
#include "nn/graph.hpp"
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

using test::col2im;
using test::conv2d_ref_backward;
using test::conv2d_ref_forward;
using test::im2col;
using test::random_tensor;
using test::sgemm;
using test::sgemm_ref;

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

// ----------------------------------------- direct conv == im2col + sgemm --

/// The conv forward the direct kernel replaced: per (image, group) im2col
/// (skipped for k == 1) and one blocked sgemm, then a separate bias pass.
/// Its per-element order is the frozen one conv2d_forward must reproduce.
void im2col_sgemm_forward(const float* x, const float* w, const float* bias,
                          std::size_t batch, std::size_t in_ch,
                          std::size_t h, std::size_t wd, std::size_t out_ch,
                          std::size_t k, std::size_t groups, float* y) {
  const std::size_t hw = h * wd, icg = in_ch / groups;
  const std::size_t ocg = out_ch / groups, kk = icg * k * k;
  std::vector<float> col(k == 1 ? 0 : kk * hw);
  for (std::size_t b = 0; b < batch; ++b)
    for (std::size_t g = 0; g < groups; ++g) {
      const float* xg = x + (b * in_ch + g * icg) * hw;
      const float* wg = w + g * ocg * kk;
      float* yg = y + (b * out_ch + g * ocg) * hw;
      if (k != 1) im2col(xg, icg, h, wd, k, col.data());
      sgemm(false, false, ocg, hw, kk, 1.0f, wg, kk,
            k == 1 ? xg : col.data(), hw, 0.0f, yg, hw);
    }
  if (bias != nullptr)
    for (std::size_t bc = 0; bc < batch * out_ch; ++bc)
      for (std::size_t i = 0; i < hw; ++i) y[bc * hw + i] += bias[bc % out_ch];
}

struct DirectCase {
  std::size_t batch, in_ch, out_ch, k, groups, h, w;
};

std::string describe(const DirectCase& c) {
  std::ostringstream os;
  os << "B=" << c.batch << " C=" << c.in_ch << "->" << c.out_ch
     << " k=" << c.k << " groups=" << c.groups << " H=" << c.h
     << " W=" << c.w;
  return os.str();
}

/// Requires identical bytes (NaN payloads and signed zeros included), not
/// closeness. `nan_any_payload` relaxes exactly one thing: a NaN may differ
/// from a NaN.
void expect_bytes_equal(const float* want, const float* got, std::size_t n,
                        const std::string& what,
                        bool nan_any_payload = false) {
  if (std::memcmp(want, got, n * sizeof(float)) == 0) return;
  std::size_t i = 0;
  while (i < n && (std::memcmp(&want[i], &got[i], sizeof(float)) == 0 ||
                   (nan_any_payload && std::isnan(want[i]) &&
                    std::isnan(got[i]))))
    ++i;
  if (i == n) return;
  std::uint32_t wbits, gbits;
  std::memcpy(&wbits, &want[i], sizeof wbits);
  std::memcpy(&gbits, &got[i], sizeof gbits);
  ADD_FAILURE() << what << ": first differing element " << i << " want 0x"
                << std::hex << wbits << " got 0x" << gbits;
}

/// Runs both forwards on the same data and requires identical bytes.
void expect_same_bits(const DirectCase& c, const std::vector<float>& x,
                      const std::vector<float>& w, const float* bias,
                      bool nan_any_payload = false) {
  const std::size_t n = c.batch * c.out_ch * c.h * c.w;
  std::vector<float> want(n, -1.0f), got(n, -2.0f);
  im2col_sgemm_forward(x.data(), w.data(), bias, c.batch, c.in_ch, c.h, c.w,
                       c.out_ch, c.k, c.groups, want.data());
  conv2d_forward(x.data(), w.data(), bias, c.batch, c.in_ch, c.h, c.w,
                 c.out_ch, c.k, c.groups, got.data());
  expect_bytes_equal(want.data(), got.data(), n, describe(c),
                     nan_any_payload);
}

void expect_same_bits_random(const DirectCase& c, Rng& rng,
                             bool with_bias = true) {
  const std::size_t wn = c.out_ch * (c.in_ch / c.groups) * c.k * c.k;
  const std::vector<float> x =
      random_vec(c.batch * c.in_ch * c.h * c.w, rng);
  const std::vector<float> w = random_vec(wn, rng);
  const std::vector<float> bias = random_vec(c.out_ch, rng);
  expect_same_bits(c, x, w, with_bias ? bias.data() : nullptr);
}

TEST(DirectConv, BitIdenticalToIm2colSgemmAcrossShapes) {
  // Ragged register blocks (W not a multiple of 8, 1-wide planes, planes
  // narrower than the halo), partial row bands (H = 3, 64 = 8 bands) and
  // channel-block tails (5 outputs = 4 + 1).
  Rng rng(401);
  constexpr std::size_t kC = 3;
  for (std::size_t k : {1, 3, 5})
    for (bool depthwise : {false, true})
      for (std::size_t batch : {1, 3})
        for (std::size_t w : {1, 2, 7, 8, 9, 257})
          for (std::size_t h : {1, 3, 64}) {
            const std::size_t groups = depthwise ? kC : 1;
            const std::size_t out = depthwise ? kC : 5;
            expect_same_bits_random({batch, kC, out, k, groups, h, w}, rng);
          }
  expect_same_bits_random({2, 4, 6, 3, 1, 9, 11}, rng, /*with_bias=*/false);
}

TEST(DirectConv, BitIdenticalAcrossTheKcBlockEdge) {
  // icg*k*k terms around and past the GEMM's KC = 240 K-block, where a
  // second partial sum starts from +0.0f and is added onto the first. With
  // k = 3 and 5 the edge falls inside one input channel's kernel window.
  Rng rng(402);
  const DirectCase cases[] = {
      {2, 239, 6, 1, 1, 5, 9},   // 239 terms
      {2, 240, 6, 1, 1, 5, 9},   // 240: exactly one block
      {2, 241, 6, 1, 1, 5, 9},   // 241: one-term second block
      {1, 486, 5, 1, 1, 3, 17},  // 486: three blocks
      {1, 54, 5, 3, 1, 6, 10},   // 486 = 54 * 9
      {2, 27, 6, 3, 1, 5, 9},    // 243: edge after tap 6 of channel 26
      {1, 10, 3, 5, 1, 7, 12},   // 250: edge after tap 15 of channel 9
      {2, 482, 4, 1, 2, 4, 9},   // 241 per group, two groups
  };
  for (const DirectCase& c : cases) expect_same_bits_random(c, rng);
}

TEST(DirectConv, NonFiniteValuesPropagateIdentically) {
  // NaN and +-Inf in inputs (corners, interior) and weights. An Inf weight
  // on a tap that reads the zero halo contributes Inf * 0 = NaN, so the
  // direct kernel must not skip out-of-plane taps.
  //
  // When two NaNs with different bits meet in one add, IEEE 754 does not
  // say which survives, and the compiler may commute the operands. So the
  // byte-exact runs inject the NaN the hardware itself makes for Inf * 0:
  // every NaN in the computation then has the same bits. The runs with
  // the other encoding (quiet_NaN has the opposite sign on x86) still
  // require every element bit-identical except NaN against NaN.
  Rng rng(403);
  const float inf = std::numeric_limits<float>::infinity();
  const volatile float zero = 0.0f;
  const float default_nan = inf * zero;
  const float other_nan = std::numeric_limits<float>::quiet_NaN();
  const DirectCase cases[] = {
      {2, 3, 5, 3, 1, 7, 9},
      {2, 3, 3, 3, 3, 7, 9},
      {1, 2, 4, 5, 1, 4, 6},
      {1, 241, 3, 1, 1, 3, 10},
  };
  for (const DirectCase& c : cases) {
    const std::size_t xn = c.batch * c.in_ch * c.h * c.w;
    const std::size_t wn = c.out_ch * (c.in_ch / c.groups) * c.k * c.k;
    const std::vector<float> x0 = random_vec(xn, rng);
    const std::vector<float> w0 = random_vec(wn, rng);
    const std::vector<float> bias = random_vec(c.out_ch, rng);
    for (const float nan : {default_nan, other_nan}) {
      const bool exact = std::memcmp(&nan, &default_nan, sizeof nan) == 0;
      std::vector<float> x = x0, w = w0;
      x[0] = nan;
      x[xn / 2] = inf;
      x[xn - 1] = -inf;
      w[0] = inf;
      w[wn / 2] = nan;
      w[wn - 1] = -inf;
      expect_same_bits(c, x, w0, bias.data(), !exact);  // inputs
      expect_same_bits(c, x0, w, bias.data(), !exact);  // weights
      expect_same_bits(c, x, w, bias.data(), !exact);   // both
    }
  }
}

// ------------------------- direct conv backward == im2col + sgemm + col2im --

/// The conv backward the direct kernels replaced, per (image, group): the
/// data gradient through the transposed GEMM (then col2im for k > 1), the
/// weight gradient through im2col and a GEMM into a per-image accumulator
/// (images added onto gw in order), and the bias as a double sum. For k = 1
/// and !first the GEMM's sum is added as sum + gx (the lowering itself
/// overwrote gx there, dropping the other consumer's gradient).
void lowered_conv_backward(const float* x, const float* w, const float* go,
                           const DirectCase& c, bool first, float* gx,
                           float* gw, float* gb) {
  const std::size_t hw = c.h * c.w, icg = c.in_ch / c.groups;
  const std::size_t ocg = c.out_ch / c.groups, kk = icg * c.k * c.k;
  const std::size_t wsize = c.out_ch * kk;
  if (gx != nullptr && c.k > 1 && first)
    std::fill(gx, gx + c.batch * c.in_ch * hw, 0.0f);
  std::vector<float> col(kk * hw), acc(c.batch * wsize, 0.0f);
  for (std::size_t b = 0; b < c.batch; ++b)
    for (std::size_t g = 0; g < c.groups; ++g) {
      const float* xg = x + (b * c.in_ch + g * icg) * hw;
      const float* gog = go + (b * c.out_ch + g * ocg) * hw;
      const float* wg = w + g * ocg * kk;
      if (gx != nullptr) {
        float* gxg = gx + (b * c.in_ch + g * icg) * hw;
        if (c.k == 1 && first) {
          sgemm(true, false, icg, hw, ocg, 1.0f, wg, icg, gog, hw, 0.0f, gxg,
                hw);
        } else if (c.k == 1) {
          sgemm(true, false, icg, hw, ocg, 1.0f, wg, icg, gog, hw, 0.0f,
                col.data(), hw);
          for (std::size_t i = 0; i < icg * hw; ++i) gxg[i] = col[i] + gxg[i];
        } else {
          sgemm(true, false, kk, hw, ocg, 1.0f, wg, kk, gog, hw, 0.0f,
                col.data(), hw);
          col2im(col.data(), icg, c.h, c.w, c.k, gxg);
        }
      }
      if (gw != nullptr) {
        if (c.k > 1) im2col(xg, icg, c.h, c.w, c.k, col.data());
        sgemm(false, true, ocg, kk, hw, 1.0f, gog, hw,
              c.k == 1 ? xg : col.data(), hw, 1.0f,
              acc.data() + b * wsize + g * ocg * kk, kk);
      }
    }
  if (gw != nullptr)
    for (std::size_t b = 0; b < c.batch; ++b)
      for (std::size_t i = 0; i < wsize; ++i) gw[i] += acc[b * wsize + i];
  if (gb != nullptr)
    for (std::size_t oc = 0; oc < c.out_ch; ++oc) {
      double s = 0.0;
      for (std::size_t b = 0; b < c.batch; ++b)
        for (std::size_t i = 0; i < hw; ++i)
          s += go[(b * c.out_ch + oc) * hw + i];
      gb[oc] += static_cast<float>(s);
    }
}

/// The tensors of one backward call: x, w, go and the prior contents of
/// gx (used when !first), gw and gb.
struct BackwardData {
  std::vector<float> x, w, go, gx0, gw0, gb0;
};

BackwardData random_backward_data(const DirectCase& c, Rng& rng) {
  const std::size_t xn = c.batch * c.in_ch * c.h * c.w;
  const std::size_t wn = c.out_ch * (c.in_ch / c.groups) * c.k * c.k;
  BackwardData d{random_vec(xn, rng), random_vec(wn, rng),
                 random_vec(c.batch * c.out_ch * c.h * c.w, rng),
                 random_vec(xn, rng), random_vec(wn, rng),
                 random_vec(c.out_ch, rng)};
  // Signed zeros: -0.0 prior gradients only survive an accumulation that
  // adds nothing onto them, and zero operands make zero products.
  for (std::size_t i = 0; i < xn; i += 7) d.gx0[i] = -0.0f;
  for (std::size_t i = 3; i < xn; i += 11) d.x[i] = -0.0f;
  for (std::size_t i = 5; i < d.go.size(); i += 13) d.go[i] = 0.0f;
  return d;
}

/// Runs the direct and the lowered backward on the same data, for the
/// given outputs (a null-skipped gradient is skipped by both), and
/// requires identical bytes for every gradient.
void expect_same_backward(const DirectCase& c, const BackwardData& d,
                          bool first, bool want_gx, bool want_gw,
                          bool nan_any_payload = false) {
  // A first write must not read gx: start it from a poison value.
  std::vector<float> gx_want = first ? std::vector<float>(d.gx0.size(), 7.5f)
                                     : d.gx0;
  std::vector<float> gx_got = gx_want;
  std::vector<float> gw_want = d.gw0, gw_got = d.gw0;
  std::vector<float> gb_want = d.gb0, gb_got = d.gb0;
  lowered_conv_backward(d.x.data(), d.w.data(), d.go.data(), c, first,
                        want_gx ? gx_want.data() : nullptr,
                        want_gw ? gw_want.data() : nullptr, gb_want.data());
  conv2d_backward(d.x.data(), d.w.data(), d.go.data(), c.batch, c.in_ch,
                  c.h, c.w, c.out_ch, c.k, c.groups, first,
                  want_gx ? gx_got.data() : nullptr,
                  want_gw ? gw_got.data() : nullptr, gb_got.data());
  const std::string at =
      describe(c) + (first ? " first" : " accumulate") + " gradient of ";
  expect_bytes_equal(gx_want.data(), gx_got.data(), gx_want.size(), at + "x",
                     nan_any_payload);
  expect_bytes_equal(gw_want.data(), gw_got.data(), gw_want.size(), at + "w",
                     nan_any_payload);
  expect_bytes_equal(gb_want.data(), gb_got.data(), gb_want.size(), at + "b",
                     nan_any_payload);
}

void expect_same_backward_random(const DirectCase& c, Rng& rng) {
  const BackwardData d = random_backward_data(c, rng);
  for (bool first : {true, false})
    expect_same_backward(c, d, first, /*want_gx=*/true, /*want_gw=*/true);
}

TEST(DirectConvBackward, BitIdenticalToLoweringAcrossShapes) {
  // Channel layouts for each weight-gradient lane choice: lanes over output
  // channels (4 -> 10: a full and a partial 8-lane block), over input
  // channels (10 -> 3), two groups of 3 -> 2, and depthwise over 4 and 9
  // channels. Widths give ragged pixel runs and planes narrower than the
  // halo; W = 257 puts the 240-pixel block edge mid-row.
  struct Channels {
    std::size_t in, out, groups;
  };
  const Channels layouts[] = {
      {4, 10, 1}, {10, 3, 1}, {6, 4, 2}, {4, 4, 4}, {9, 9, 9}};
  Rng rng(411);
  for (std::size_t k : {1, 3, 5})
    for (const Channels& ch : layouts)
      for (std::size_t batch : {1, 3})
        for (std::size_t w : {1, 2, 7, 8, 9, 257})
          for (std::size_t h : {1, 3})
            expect_same_backward_random(
                {batch, ch.in, ch.out, k, ch.groups, h, w}, rng);
}

TEST(DirectConvBackward, BitIdenticalAcrossTheBlockEdges) {
  // Planes of 239, 240, 241 and 481 pixels around the 240-pixel block of
  // the weight gradient, and more than 240 output channels for the data
  // gradient's oc blocks (k = 1 through the forward kernel, k = 3 through
  // the row sums).
  Rng rng(412);
  const DirectCase cases[] = {
      {2, 3, 5, 3, 1, 1, 239},  {2, 3, 5, 3, 1, 16, 15},
      {2, 3, 5, 3, 1, 1, 241},  {1, 5, 3, 3, 1, 13, 37},
      {2, 4, 4, 3, 4, 16, 15},  {1, 9, 9, 3, 9, 13, 37},
      {1, 2, 250, 1, 1, 4, 9},  {1, 2, 250, 3, 1, 4, 9},
      {2, 4, 490, 1, 2, 3, 5},  {1, 3, 481, 1, 1, 1, 241},
  };
  for (const DirectCase& c : cases) expect_same_backward_random(c, rng);
}

TEST(DirectConvBackward, SkippedGradientsStaySkipped) {
  // A null gx (the network input) or a null gw: the other gradients still
  // come out byte-identical, first and accumulating.
  Rng rng(413);
  const DirectCase cases[] = {
      {2, 6, 24, 3, 1, 9, 11}, {3, 24, 2, 3, 1, 9, 11},
      {2, 24, 24, 3, 24, 9, 11}, {2, 24, 24, 1, 1, 9, 11}};
  for (const DirectCase& c : cases) {
    const BackwardData d = random_backward_data(c, rng);
    for (bool first : {true, false}) {
      expect_same_backward(c, d, first, /*want_gx=*/false, /*want_gw=*/true);
      expect_same_backward(c, d, first, /*want_gx=*/true, /*want_gw=*/false);
    }
  }
}

TEST(DirectConvBackward, ZeroTapsKeepTheSignOfZero) {
  // go = 0 everywhere and gx = -0.0 before an accumulating write: every tap
  // value is a sum from +0.0f of +-0 products, so it is +0.0f and turns
  // each -0.0 into +0.0. A tap that skipped the +0.0f start would add the
  // product's -0.0 and leave -0.0 behind.
  Rng rng(416);
  const DirectCase cases[] = {
      {2, 3, 4, 3, 1, 5, 7}, {2, 4, 4, 3, 4, 5, 7}, {2, 3, 4, 1, 1, 5, 7}};
  for (const DirectCase& c : cases) {
    BackwardData d = random_backward_data(c, rng);
    std::fill(d.go.begin(), d.go.end(), 0.0f);
    std::fill(d.gx0.begin(), d.gx0.end(), -0.0f);
    expect_same_backward(c, d, /*first=*/false, true, true);
  }
}

TEST(DirectConvBackward, NonFiniteValuesPropagateIdentically) {
  // NaN and +-Inf in x, go and w. An Inf in go meets the zero halo in the
  // weight gradient (Inf * 0 = NaN must still be added); an Inf weight on
  // a tap whose output pixel is off the plane must still be skipped by the
  // data gradient. Same NaN convention as the forward test above.
  Rng rng(414);
  const float inf = std::numeric_limits<float>::infinity();
  const volatile float zero = 0.0f;
  const float default_nan = inf * zero;
  const float other_nan = std::numeric_limits<float>::quiet_NaN();
  const DirectCase cases[] = {
      {2, 3, 10, 3, 1, 7, 9}, {2, 10, 3, 3, 1, 7, 9}, {2, 9, 9, 3, 9, 7, 9},
      {1, 4, 6, 5, 2, 4, 6},  {2, 5, 3, 1, 1, 3, 10},
  };
  for (const DirectCase& c : cases) {
    const BackwardData d0 = random_backward_data(c, rng);
    for (const float nan : {default_nan, other_nan}) {
      const bool exact = std::memcmp(&nan, &default_nan, sizeof nan) == 0;
      for (int which = 0; which < 3; ++which) {
        BackwardData d = d0;
        std::vector<float>& v = which == 0 ? d.x : which == 1 ? d.go : d.w;
        v[0] = nan;
        v[v.size() / 2] = inf;
        v[v.size() - 1] = -inf;
        for (bool first : {true, false})
          expect_same_backward(c, d, first, true, true, !exact);
      }
    }
  }
}

TEST(DirectConvBackward, ReluBackwardBytes) {
  // Both passes, against their definitions, over NaN, +-0 and +-Inf
  // inputs and a length that spans several pool tasks.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {-0.0f, 0.0f, nan, inf, -inf, 1e-40f, -1e-40f};
  const std::size_t n = 70001;
  Rng rng(415);
  std::vector<float> x = random_vec(n, rng), go = random_vec(n, rng);
  std::vector<float> gx0 = random_vec(n, rng);
  for (std::size_t i = 0; i < n; i += 3) x[i] = specials[(i / 3) % 7];
  for (std::size_t i = 1; i < n; i += 5) gx0[i] = -0.0f;
  for (std::size_t i = 2; i < n; i += 9) go[i] = specials[(i / 9) % 7];

  std::vector<float> want(n), got(n, 7.5f);
  for (std::size_t i = 0; i < n; ++i) want[i] = x[i] <= 0.0f ? 0.0f : go[i];
  relu_backward(x.data(), go.data(), n, /*first=*/true, got.data());
  expect_bytes_equal(want.data(), got.data(), n, "relu first");

  got = gx0;
  for (std::size_t i = 0; i < n; ++i) {
    want[i] = gx0[i];
    if (x[i] > 0.0f) want[i] += go[i];
  }
  relu_backward(x.data(), go.data(), n, /*first=*/false, got.data());
  expect_bytes_equal(want.data(), got.data(), n, "relu accumulate");
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
