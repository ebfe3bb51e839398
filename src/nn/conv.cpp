#include "nn/conv.hpp"

#include <algorithm>
#include <cstring>

#include "core/utils.hpp"
#include "nn/workspace.hpp"

namespace xfc::nn {
namespace {

// Register block: RB output channels x NB output columns of accumulators,
// 8 SSE registers at RB = 4 (a 6 x 8 block spills on baseline x86-64).
constexpr std::size_t RB = 4;
constexpr std::size_t NB = 8;
// Terms per partial sum: the K-block of the GEMM these kernels replaced.
// Part of the frozen order (conv.hpp), not a tuning knob.
constexpr std::size_t KC = 240;
// Output rows per task: the unit of parallelism inside one image/group.
constexpr std::size_t kBandRows = 8;
// Weight-gradient register block: up to WR taps x WL channel lanes, again
// 8 SSE accumulators.
constexpr std::size_t WR = 4;
constexpr std::size_t WL = 8;

/// Adds taps [p0, p1) onto acc in tap order. `in` points at the block's
/// first column in the haloed band; off[p] is tap p's offset from there and
/// wp[p*R + r] its weight for output channel r.
template <std::size_t R>
inline void tap_sum(const float* in, const std::size_t* off, const float* wp,
                    std::size_t p0, std::size_t p1, float (&acc)[R][NB]) {
  for (std::size_t p = p0; p < p1; ++p) {
    const float* xv = in + off[p];
    const float* wv = wp + p * R;
    for (std::size_t r = 0; r < R; ++r) {
      const float a = wv[r];
      for (std::size_t q = 0; q < NB; ++q) acc[r][q] += a * xv[q];
    }
  }
}

/// R output channels x rows [0, nrows) of one band, all columns. Each sum
/// is stored, or added onto the bias, or (kAccumulate) added onto y.
template <std::size_t R, bool kAccumulate>
void conv_rows(const float* band, std::size_t pitch, const std::size_t* off,
               const float* wp, std::size_t K, const float* bias,
               std::size_t nrows, std::size_t wd, std::size_t plane,
               float* y) {
  for (std::size_t row = 0; row < nrows; ++row) {
    const float* in = band + row * pitch;
    float* yrow = y + row * wd;
    for (std::size_t ox = 0; ox < wd; ox += NB) {
      float sum[R][NB] = {};
      tap_sum<R>(in + ox, off, wp, 0, std::min(K, KC), sum);
      for (std::size_t p0 = KC; p0 < K; p0 += KC) {
        float part[R][NB] = {};
        tap_sum<R>(in + ox, off, wp, p0, std::min(K, p0 + KC), part);
        for (std::size_t r = 0; r < R; ++r)
          for (std::size_t q = 0; q < NB; ++q)
            sum[r][q] = part[r][q] + sum[r][q];
      }
      const std::size_t nr = std::min(NB, wd - ox);
      for (std::size_t r = 0; r < R; ++r) {
        float* out = yrow + r * plane + ox;
        if (kAccumulate) {
          for (std::size_t q = 0; q < nr; ++q) out[q] = sum[r][q] + out[q];
        } else if (bias != nullptr) {
          for (std::size_t q = 0; q < nr; ++q) out[q] = sum[r][q] + bias[r];
        } else {
          for (std::size_t q = 0; q < nr; ++q) out[q] = sum[r][q];
        }
      }
    }
  }
}

}  // namespace

namespace detail {

// Output rows [y0, y1) of one (image, group) block: x is [icg][h][wd], w
// [ocg][icg*k*k], y [ocg][h][wd]. Out of line and externally visible so the
// sampling profiler can name the frame. kAccumulate is a template parameter
// so the forward's instantiation has no accumulate branch at all.
template <bool kAccumulate>
[[gnu::noinline]] void conv2d_direct(const float* x, const float* w,
                                     const float* bias, std::size_t icg,
                                     std::size_t h, std::size_t wd,
                                     std::size_t ocg, std::size_t k,
                                     std::size_t y0, std::size_t y1,
                                     float* y) {
  const std::size_t pad = k / 2;
  const std::size_t K = icg * k * k;
  const std::size_t plane = h * wd;
  const std::size_t nrows = y1 - y0;
  const std::size_t rows = nrows + 2 * pad;
  // Whole NB-column blocks plus the halo: the last, partial block reads
  // zeros past the plane's right edge instead of branching.
  const std::size_t pitch = ceil_div(wd, NB) * NB + 2 * pad;

  Workspace& ws = tls_workspace();
  const ScratchScope scope(ws);
  float* band = ws.acquire(icg * rows * pitch);
  std::size_t* off = ws.acquire_as<std::size_t>(K);
  float* wp = ws.acquire(ocg * K);

  for (std::size_t ic = 0; ic < icg; ++ic) {
    for (std::size_t r = 0; r < rows; ++r) {
      float* dst = band + (ic * rows + r) * pitch;
      const std::size_t iy = y0 + r;  // input row iy - pad
      if (iy < pad || iy - pad >= h) {
        std::memset(dst, 0, pitch * sizeof(float));
        continue;
      }
      std::memset(dst, 0, pad * sizeof(float));
      std::memcpy(dst + pad, x + ic * plane + (iy - pad) * wd,
                  wd * sizeof(float));
      std::memset(dst + pad + wd, 0, (pitch - pad - wd) * sizeof(float));
    }
  }
  std::size_t p = 0;
  for (std::size_t ic = 0; ic < icg; ++ic)
    for (std::size_t ky = 0; ky < k; ++ky)
      for (std::size_t kx = 0; kx < k; ++kx)
        off[p++] = (ic * rows + ky) * pitch + kx;

  for (std::size_t oc0 = 0; oc0 < ocg; oc0 += RB) {
    const std::size_t R = std::min(RB, ocg - oc0);
    // Weights of this channel block, tap-major: wb[p*R + r].
    float* wb = wp + oc0 * K;
    for (std::size_t t = 0; t < K; ++t)
      for (std::size_t r = 0; r < R; ++r)
        wb[t * R + r] = w[(oc0 + r) * K + t];
    const float* bb = bias != nullptr ? bias + oc0 : nullptr;
    float* yb = y + oc0 * plane + y0 * wd;
    switch (R) {
      case 1:
        conv_rows<1, kAccumulate>(band, pitch, off, wb, K, bb, nrows, wd,
                                  plane, yb);
        break;
      case 2:
        conv_rows<2, kAccumulate>(band, pitch, off, wb, K, bb, nrows, wd,
                                  plane, yb);
        break;
      case 3:
        conv_rows<3, kAccumulate>(band, pitch, off, wb, K, bb, nrows, wd,
                                  plane, yb);
        break;
      default:
        conv_rows<4, kAccumulate>(band, pitch, off, wb, K, bb, nrows, wd,
                                  plane, yb);
        break;
    }
  }
}

}  // namespace detail

namespace {

/// conv2d_forward with an accumulate mode (y = sum + y, no bias): the
/// k = 1 data gradient is this kernel run on go with the weights of each
/// group transposed.
void conv2d_bands(const float* x, const float* w, const float* bias,
                  bool accumulate, std::size_t batch, std::size_t in_ch,
                  std::size_t h, std::size_t wd, std::size_t out_ch,
                  std::size_t k, std::size_t groups, float* y) {
  const std::size_t plane = h * wd;
  const std::size_t icg = in_ch / groups;
  const std::size_t ocg = out_ch / groups;
  const std::size_t K = icg * k * k;
  const std::size_t bands = ceil_div(h, kBandRows);
  parallel_for_chunked(0, batch * groups * bands, 0, [&](std::size_t lo,
                                                         std::size_t hi) {
    for (std::size_t task = lo; task < hi; ++task) {
      const std::size_t band = task % bands;
      const std::size_t bg = task / bands;
      const std::size_t b = bg / groups;
      const std::size_t g = bg % groups;
      const std::size_t y0 = band * kBandRows;
      const float* xb = x + (b * in_ch + g * icg) * plane;
      const float* wg = w + g * ocg * K;
      const float* bb = bias != nullptr ? bias + g * ocg : nullptr;
      const std::size_t y1 = std::min(h, y0 + kBandRows);
      float* yb = y + (b * out_ch + g * ocg) * plane;
      if (accumulate)
        detail::conv2d_direct<true>(xb, wg, bb, icg, h, wd, ocg, k, y0, y1,
                                    yb);
      else
        detail::conv2d_direct<false>(xb, wg, bb, icg, h, wd, ocg, k, y0, y1,
                                     yb);
    }
  });
}

// ------------------------------------------------------ weight gradient --
//
// One pass streams every pixel of an image through a register block of R
// taps x WL lanes, where a lane is an output channel, an input channel or
// (depthwise) a channel, whichever gives the most lanes. The go operand is
// shared by the R taps: a lane vector when lanes are output channels,
// otherwise one broadcast value. The x operand is per tap: a broadcast from
// a planar haloed copy of x, or a lane vector from a channels-last haloed
// copy. A haloed pixel q = y*pitch + x reads tap (ky, kx) at
// q + ky*pitch + kx, so out-of-plane taps read zeros and still add go*0.

/// Four float lanes: a GCC/Clang vector extension, not an ISA intrinsic,
/// so the same source is SSE on baseline x86-64 and stays lane for lane the
/// same IEEE multiply and add under -march=native. Written with plain
/// arrays instead, the compiler vectorises the pixel loop as an in-order
/// reduction (same bits, a third of the speed) instead of the lanes.
using F4 = float __attribute__((vector_size(16)));
constexpr std::size_t WV = WL / 4;

inline F4 load4(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline F4 splat4(float s) { return F4{s, s, s, s}; }

/// blk[r] += go * x over n consecutive pixels.
template <std::size_t R, bool kGoVec, bool kXVec>
inline void wgrad_run(const float* go, std::size_t gs,
                      const float* const (&xr)[WR], std::size_t xs,
                      std::size_t n, F4 (&blk)[R][WV]) {
  for (std::size_t i = 0; i < n; ++i) {
    F4 g[WV];
    for (std::size_t u = 0; u < WV; ++u)
      g[u] = kGoVec ? load4(go + i * gs + 4 * u) : splat4(go[i * gs]);
    for (std::size_t r = 0; r < R; ++r) {
      const float* xv = xr[r] + i * xs;
      for (std::size_t u = 0; u < WV; ++u)
        blk[r][u] += g[u] * (kXVec ? load4(xv + 4 * u) : splat4(xv[0]));
    }
  }
}

/// One register block over a whole image. go/gs: the go operand at pixel 0
/// and its stride per pixel; xr[r]/xs: tap r's x operand at haloed pixel 0
/// and its stride per haloed pixel. Adds the image sums for tap r, lane v
/// onto out[r + v*ovs], v < lanes.
template <std::size_t R, bool kGoVec, bool kXVec>
void wgrad_block(const float* go, std::size_t gs,
                 const float* const (&xr)[WR], std::size_t xs,
                 std::size_t hw, std::size_t wd, std::size_t pitch,
                 std::size_t lanes, float* out, std::size_t ovs) {
  for (std::size_t p0 = 0; p0 < hw; p0 += KC) {
    const std::size_t p1 = std::min(hw, p0 + KC);
    F4 blk[R][WV] = {};
    std::size_t y = p0 / wd, x = p0 % wd;
    for (std::size_t p = p0; p < p1; x = 0, ++y) {
      const std::size_t n = std::min(wd - x, p1 - p);
      const std::size_t q = y * pitch + x;
      const float* xq[WR] = {};
      for (std::size_t r = 0; r < R; ++r) xq[r] = xr[r] + q * xs;
      wgrad_run<R, kGoVec, kXVec>(go + p * gs, gs, xq, xs, n, blk);
      p += n;
    }
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t v = 0; v < lanes; ++v)
        out[r + v * ovs] = blk[r][v / 4][v % 4] + out[r + v * ovs];
  }
}

template <bool kGoVec, bool kXVec>
void wgrad_taps(std::size_t R, const float* go, std::size_t gs,
                const float* const (&xr)[WR], std::size_t xs, std::size_t hw,
                std::size_t wd, std::size_t pitch, std::size_t lanes,
                float* out, std::size_t ovs) {
  switch (R) {
    case 1:
      wgrad_block<1, kGoVec, kXVec>(go, gs, xr, xs, hw, wd, pitch, lanes,
                                    out, ovs);
      break;
    case 2:
      wgrad_block<2, kGoVec, kXVec>(go, gs, xr, xs, hw, wd, pitch, lanes,
                                    out, ovs);
      break;
    case 3:
      wgrad_block<3, kGoVec, kXVec>(go, gs, xr, xs, hw, wd, pitch, lanes,
                                    out, ovs);
      break;
    default:
      wgrad_block<4, kGoVec, kXVec>(go, gs, xr, xs, hw, wd, pitch, lanes,
                                    out, ovs);
      break;
  }
}

/// Tap block i of n over taps [0, T): as even as possible, at most WR.
inline std::size_t tap_begin(std::size_t i, std::size_t n, std::size_t T) {
  return i * T / n;
}

/// Channels [0, nch) of src planes [nch][h][wd] into dst[hp*pitch][lanes],
/// channels-last with a zero halo of pad pixels and zero unused lanes.
void to_channels_last(const float* src, std::size_t nch, std::size_t h,
                      std::size_t wd, std::size_t pad, std::size_t lanes,
                      float* dst) {
  const std::size_t pitch = wd + 2 * pad;
  std::memset(dst, 0, (h + 2 * pad) * pitch * lanes * sizeof(float));
  for (std::size_t c = 0; c < nch; ++c)
    for (std::size_t y = 0; y < h; ++y) {
      const float* s = src + (c * h + y) * wd;
      float* d = dst + ((y + pad) * pitch + pad) * lanes + c;
      for (std::size_t x = 0; x < wd; ++x) d[x * lanes] = s[x];
    }
}

/// Planes [nch][h][wd] into [nch][h + 2pad][wd + 2pad] with a zero halo.
void to_haloed_planes(const float* src, std::size_t nch, std::size_t h,
                      std::size_t wd, std::size_t pad, float* dst) {
  const std::size_t pitch = wd + 2 * pad;
  const std::size_t hp = h + 2 * pad;
  std::memset(dst, 0, nch * hp * pitch * sizeof(float));
  for (std::size_t c = 0; c < nch; ++c)
    for (std::size_t y = 0; y < h; ++y)
      std::memcpy(dst + (c * hp + y + pad) * pitch + pad,
                  src + (c * h + y) * wd, wd * sizeof(float));
}

struct ConvDims {
  std::size_t in_ch, h, wd, out_ch, k, groups;
  std::size_t icg() const { return in_ch / groups; }
  std::size_t ocg() const { return out_ch / groups; }
  std::size_t hw() const { return h * wd; }
  std::size_t pad() const { return k / 2; }
  std::size_t pitch() const { return wd + 2 * pad(); }
  std::size_t haloed() const { return (h + 2 * pad()) * pitch(); }
};

/// Depthwise (one input and one output channel per group): lanes are
/// channels, go and x both channels-last.
void wgrad_depthwise(const float* x, const float* go, const ConvDims& d,
                     float* acc) {
  const std::size_t C = d.in_ch, k2 = d.k * d.k;
  const std::size_t L = ceil_div(C, WL) * WL;
  Workspace& ws = tls_workspace();
  const ScratchScope scope(ws);
  float* goT = ws.acquire(d.hw() * L);
  float* xT = ws.acquire(d.haloed() * L);
  to_channels_last(go, C, d.h, d.wd, 0, L, goT);
  to_channels_last(x, C, d.h, d.wd, d.pad(), L, xT);
  const std::size_t nt = ceil_div(k2, WR);
  for (std::size_t c0 = 0; c0 < C; c0 += WL) {
    for (std::size_t i = 0; i < nt; ++i) {
      const std::size_t t0 = tap_begin(i, nt, k2);
      const std::size_t R = tap_begin(i + 1, nt, k2) - t0;
      const float* xr[WR] = {};
      for (std::size_t r = 0; r < R; ++r) {
        const std::size_t t = t0 + r;
        xr[r] = xT + ((t / d.k) * d.pitch() + t % d.k) * L + c0;
      }
      wgrad_taps<true, true>(R, goT + c0, L, xr, L, d.hw(), d.wd, d.pitch(),
                             std::min(WL, C - c0), acc + c0 * k2 + t0, k2);
    }
  }
}

/// One group, lanes over its output channels: go channels-last, x planar.
void wgrad_out_lanes(const float* x, const float* go, const ConvDims& d,
                     float* acc) {
  const std::size_t icg = d.icg(), ocg = d.ocg(), k = d.k;
  const std::size_t K = icg * k * k;
  const std::size_t L = ceil_div(ocg, WL) * WL;
  const std::size_t plane = d.haloed();
  Workspace& ws = tls_workspace();
  const ScratchScope scope(ws);
  float* goT = ws.acquire(d.hw() * L);
  float* xh = ws.acquire(icg * plane);
  to_channels_last(go, ocg, d.h, d.wd, 0, L, goT);
  to_haloed_planes(x, icg, d.h, d.wd, d.pad(), xh);
  const std::size_t nt = ceil_div(K, WR);
  for (std::size_t oc0 = 0; oc0 < ocg; oc0 += WL) {
    for (std::size_t i = 0; i < nt; ++i) {
      const std::size_t t0 = tap_begin(i, nt, K);
      const std::size_t R = tap_begin(i + 1, nt, K) - t0;
      const float* xr[WR] = {};
      for (std::size_t r = 0; r < R; ++r) {
        const std::size_t t = t0 + r, tap = t % (k * k);
        xr[r] = xh + (t / (k * k)) * plane + (tap / k) * d.pitch() + tap % k;
      }
      wgrad_taps<true, false>(R, goT + oc0, L, xr, 1, d.hw(), d.wd,
                              d.pitch(), std::min(WL, ocg - oc0),
                              acc + oc0 * K + t0, K);
    }
  }
}

/// One group, lanes over its input channels: go planar (broadcast), x
/// channels-last.
void wgrad_in_lanes(const float* x, const float* go, const ConvDims& d,
                    float* acc) {
  const std::size_t icg = d.icg(), ocg = d.ocg(), k2 = d.k * d.k;
  const std::size_t K = icg * k2;
  const std::size_t L = ceil_div(icg, WL) * WL;
  Workspace& ws = tls_workspace();
  const ScratchScope scope(ws);
  float* xT = ws.acquire(d.haloed() * L);
  to_channels_last(x, icg, d.h, d.wd, d.pad(), L, xT);
  const std::size_t nt = ceil_div(k2, WR);
  for (std::size_t oc = 0; oc < ocg; ++oc) {
    for (std::size_t ic0 = 0; ic0 < icg; ic0 += WL) {
      for (std::size_t i = 0; i < nt; ++i) {
        const std::size_t t0 = tap_begin(i, nt, k2);
        const std::size_t R = tap_begin(i + 1, nt, k2) - t0;
        const float* xr[WR] = {};
        for (std::size_t r = 0; r < R; ++r) {
          const std::size_t t = t0 + r;
          xr[r] = xT + ((t / d.k) * d.pitch() + t % d.k) * L + ic0;
        }
        wgrad_taps<false, true>(R, go + oc * d.hw(), 1, xr, L, d.hw(), d.wd,
                                d.pitch(), std::min(WL, icg - ic0),
                                acc + oc * K + ic0 * k2 + t0, k2);
      }
    }
  }
}

/// Image b's weight-gradient sums into acc (zeroed here), [out_ch][K].
/// Out of line, so a profile shows it as a frame of its own.
[[gnu::noinline]] void conv2d_wgrad_image(const float* x, const float* go,
                                          const ConvDims& d, float* acc) {
  const std::size_t icg = d.icg(), ocg = d.ocg();
  const std::size_t gsize = ocg * icg * d.k * d.k;
  std::fill(acc, acc + d.groups * gsize, 0.0f);
  if (icg == 1 && ocg == 1) {
    wgrad_depthwise(x, go, d, acc);
    return;
  }
  for (std::size_t g = 0; g < d.groups; ++g) {
    const float* xg = x + g * icg * d.hw();
    const float* gog = go + g * ocg * d.hw();
    if (ocg >= icg)
      wgrad_out_lanes(xg, gog, d, acc + g * gsize);
    else
      wgrad_in_lanes(xg, gog, d, acc + g * gsize);
  }
}

// -------------------------------------------------------- data gradient --

/// Input channel ic (of its group) of one image for k > 1: go is the
/// group's [ocg][h][wd], w the group's [ocg][K]. dsum and part are wd floats
/// of scratch.
[[gnu::noinline]] void conv2d_dgrad_plane(const float* go, const float* w,
                                          const ConvDims& d, std::size_t ic,
                                          bool first, float* gx, float* dsum,
                                          float* part) {
  const std::size_t k = d.k, pad = d.pad(), wd = d.wd, hw = d.hw();
  const std::size_t ocg = d.ocg(), K = d.icg() * k * k;
  // s = sum over oc in [oc0, oc1) of w[oc]*g[oc] (oc strides: K for w, hw
  // for g) from +0.0f, one oc at a time.
  const auto oc_sum = [&](const float* wt, const float* g, std::size_t oc0,
                          std::size_t oc1, std::size_t n, float* s) {
    const float a0 = wt[oc0 * K];
    const float* g0 = g + oc0 * hw;
    for (std::size_t i = 0; i < n; ++i) s[i] = 0.0f + a0 * g0[i];
    for (std::size_t oc = oc0 + 1; oc < oc1; ++oc) {
      const float a = wt[oc * K];
      const float* gr = g + oc * hw;
      for (std::size_t i = 0; i < n; ++i) s[i] += a * gr[i];
    }
  };
  for (std::size_t y = 0; y < d.h; ++y) {
    float* row = gx + y * wd;
    if (first) std::fill(row, row + wd, 0.0f);
    for (std::size_t ky = 0; ky < k; ++ky) {
      if (y + pad < ky || y + pad - ky >= d.h) continue;
      const std::size_t oy = y + pad - ky;
      for (std::size_t kx = 0; kx < k; ++kx) {
        // Pixels x whose output pixel x + pad - kx lies in [0, wd).
        const std::size_t lo = kx > pad ? kx - pad : 0;
        const std::size_t hi = kx < pad ? (wd > pad - kx ? wd - (pad - kx) : 0)
                                        : wd;
        if (lo >= hi) continue;
        const std::size_t n = hi - lo;
        const float* wt = w + ic * k * k + ky * k + kx;
        const float* g = go + oy * wd + (lo + pad - kx);
        float* out = row + lo;
        oc_sum(wt, g, 0, std::min(ocg, KC), n, dsum);
        for (std::size_t oc0 = KC; oc0 < ocg; oc0 += KC) {
          oc_sum(wt, g, oc0, std::min(ocg, oc0 + KC), n, part);
          for (std::size_t i = 0; i < n; ++i) dsum[i] = part[i] + dsum[i];
        }
        for (std::size_t i = 0; i < n; ++i) out[i] = out[i] + dsum[i];
      }
    }
  }
}

void conv2d_backward_data(const float* go, const float* w, std::size_t batch,
                          const ConvDims& d, bool first, float* gx) {
  const std::size_t icg = d.icg(), ocg = d.ocg();
  if (d.k == 1) {
    // A 1x1 conv of go with each group's weights transposed to [icg][ocg]:
    // the forward's oc-blocked sum, stored or added as sum + gx.
    Workspace& ws = tls_workspace();
    const ScratchScope scope(ws);
    float* wt = ws.acquire(d.out_ch * icg);
    for (std::size_t g = 0; g < d.groups; ++g)
      for (std::size_t ic = 0; ic < icg; ++ic)
        for (std::size_t oc = 0; oc < ocg; ++oc)
          wt[(g * icg + ic) * ocg + oc] = w[(g * ocg + oc) * icg + ic];
    conv2d_bands(go, wt, nullptr, !first, batch, d.out_ch, d.h, d.wd,
                 d.in_ch, 1, d.groups, gx);
    return;
  }
  const std::size_t hw = d.hw(), K = icg * d.k * d.k;
  parallel_for_chunked(0, batch * d.in_ch, 0, [&](std::size_t lo,
                                                  std::size_t hi) {
    Workspace& ws = tls_workspace();
    const ScratchScope scope(ws);
    float* dsum = ws.acquire(d.wd);
    float* part = ws.acquire(d.wd);
    for (std::size_t task = lo; task < hi; ++task) {
      const std::size_t b = task / d.in_ch, c = task % d.in_ch;
      const std::size_t g = c / icg;
      conv2d_dgrad_plane(go + (b * d.out_ch + g * ocg) * hw,
                         w + g * ocg * K, d, c % icg, first,
                         gx + task * hw, dsum, part);
    }
  });
}

}  // namespace

void conv2d_forward(const float* x, const float* w, const float* bias,
                    std::size_t batch, std::size_t in_ch, std::size_t h,
                    std::size_t wd, std::size_t out_ch, std::size_t k,
                    std::size_t groups, float* y) {
  conv2d_bands(x, w, bias, false, batch, in_ch, h, wd, out_ch, k, groups, y);
}

void conv2d_backward(const float* x, const float* w, const float* go,
                     std::size_t batch, std::size_t in_ch, std::size_t h,
                     std::size_t wd, std::size_t out_ch, std::size_t k,
                     std::size_t groups, bool first, float* gx, float* gw,
                     float* gb) {
  const ConvDims d{in_ch, h, wd, out_ch, k, groups};
  const std::size_t hw = d.hw();
  if (gx != nullptr) conv2d_backward_data(go, w, batch, d, first, gx);

  if (gw != nullptr) {
    // Per-image sums, added onto gw serially in image order so the weight
    // gradient is independent of XFC_THREADS.
    const std::size_t wsize = out_ch * d.icg() * k * k;
    Workspace& ws = tls_workspace();
    const ScratchScope scope(ws);
    float* acc_all = ws.acquire(batch * wsize);
    parallel_for_chunked(0, batch, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t b = lo; b < hi; ++b)
        conv2d_wgrad_image(x + b * in_ch * hw, go + b * out_ch * hw, d,
                           acc_all + b * wsize);
    });
    for (std::size_t b = 0; b < batch; ++b) {
      const float* acc = acc_all + b * wsize;
      for (std::size_t i = 0; i < wsize; ++i) gw[i] += acc[i];
    }
  }

  if (gb != nullptr) {
    parallel_for_chunked(0, out_ch, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t oc = lo; oc < hi; ++oc) {
        double acc = 0.0;
        for (std::size_t b = 0; b < batch; ++b) {
          const float* p = go + (b * out_ch + oc) * hw;
          for (std::size_t i = 0; i < hw; ++i) acc += p[i];
        }
        gb[oc] += static_cast<float>(acc);
      }
    });
  }
}

}  // namespace xfc::nn
