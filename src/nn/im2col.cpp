#include "nn/im2col.hpp"

#include <algorithm>
#include <cstring>

namespace xfc::nn {

void im2col(const float* src, std::size_t icg, std::size_t h, std::size_t w,
            std::size_t k, float* col) {
  const std::size_t pad = k / 2;
  const std::size_t hw = h * w;
  float* out = col;
  for (std::size_t ic = 0; ic < icg; ++ic) {
    const float* plane = src + ic * hw;
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        // Horizontal extent of in-bounds output pixels for this tap; the
        // per-pixel boundary check is hoisted to these three spans. Both
        // ends clamp so planes narrower than the padding (w <= pad)
        // degenerate to all-zero rows instead of wrapping the arithmetic.
        std::size_t xlo = kx < pad ? std::min(pad - kx, w) : 0;
        std::size_t xhi =
            kx > pad ? (w > kx - pad ? w - (kx - pad) : 0) : w;
        if (xhi < xlo) xhi = xlo;
        for (std::size_t oy = 0; oy < h; ++oy, out += w) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                    static_cast<std::ptrdiff_t>(pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
            std::memset(out, 0, w * sizeof(float));
            continue;
          }
          if (xlo > 0) std::memset(out, 0, xlo * sizeof(float));
          if (xhi > xlo)
            std::memcpy(out + xlo, plane + iy * w + (xlo + kx - pad),
                        (xhi - xlo) * sizeof(float));
          if (xhi < w) std::memset(out + xhi, 0, (w - xhi) * sizeof(float));
        }
      }
    }
  }
}

void col2im(const float* col, std::size_t icg, std::size_t h, std::size_t w,
            std::size_t k, float* dst) {
  const std::size_t pad = k / 2;
  const std::size_t hw = h * w;
  const float* in = col;
  for (std::size_t ic = 0; ic < icg; ++ic) {
    float* plane = dst + ic * hw;
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        std::size_t xlo = kx < pad ? std::min(pad - kx, w) : 0;
        std::size_t xhi =
            kx > pad ? (w > kx - pad ? w - (kx - pad) : 0) : w;
        if (xhi < xlo) xhi = xlo;
        for (std::size_t oy = 0; oy < h; ++oy, in += w) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                    static_cast<std::ptrdiff_t>(pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h) || xhi == xlo)
            continue;
          float* row = plane + iy * w;
          // ox + kx >= pad for ox >= xlo, so the target index never
          // underflows and stays < w; no shifted base pointer is formed.
          for (std::size_t ox = xlo; ox < xhi; ++ox)
            row[ox + kx - pad] += in[ox];
        }
      }
    }
  }
}

}  // namespace xfc::nn
