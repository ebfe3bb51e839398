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
// Taps per partial sum: the K-block of the GEMM this kernel replaced. Part
// of the frozen order (conv.hpp), not a tuning knob.
constexpr std::size_t KC = 240;
// Output rows per task: the unit of parallelism inside one image/group.
constexpr std::size_t kBandRows = 8;

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

/// R output channels x rows [0, nrows) of one band, all columns.
template <std::size_t R>
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
        if (bias != nullptr) {
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
// sampling profiler can name the frame.
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
        conv_rows<1>(band, pitch, off, wb, K, bb, nrows, wd, plane, yb);
        break;
      case 2:
        conv_rows<2>(band, pitch, off, wb, K, bb, nrows, wd, plane, yb);
        break;
      case 3:
        conv_rows<3>(band, pitch, off, wb, K, bb, nrows, wd, plane, yb);
        break;
      default:
        conv_rows<4>(band, pitch, off, wb, K, bb, nrows, wd, plane, yb);
        break;
    }
  }
}

}  // namespace detail

void conv2d_forward(const float* x, const float* w, const float* bias,
                    std::size_t batch, std::size_t in_ch, std::size_t h,
                    std::size_t wd, std::size_t out_ch, std::size_t k,
                    std::size_t groups, float* y) {
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
      detail::conv2d_direct(
          x + (b * in_ch + g * icg) * plane, w + g * ocg * K,
          bias != nullptr ? bias + g * ocg : nullptr, icg, h, wd, ocg, k, y0,
          std::min(h, y0 + kBandRows), y + (b * out_ch + g * ocg) * plane);
    }
  });
}

}  // namespace xfc::nn
