#ifndef XFC_NN_IM2COL_HPP
#define XFC_NN_IM2COL_HPP

/// \file im2col.hpp
/// Convolution lowering for stride-1, zero-"same"-padded 2-D convolution.
///
/// im2col rewrites one (image, group) input block [icg][H][W] as a column
/// matrix col[icg*k*k][H*W]: row (ic*k + ky)*k + kx holds, for each output
/// pixel, the input value the (ky, kx) weight tap reads. The conv backward
/// then becomes GEMMs per (image, group):
///   input grad     dC = W^T  (icg*k*k x ocg) * dY, then col2im   (beta 0)
///   weight grad    dW += dY  (ocg x H*W)     * col^T             (beta 1)
/// The forward needs no column matrix (conv.hpp), but its frozen term
/// order is still this row order.
///
/// The padding boundary is handled *here*, once per row: interior spans
/// are bulk row copies with no per-pixel bounds checks; only the halo
/// (the up-to-pad-wide frame) sees explicit zero-fill. The GEMMs never
/// branch on position.

#include <cstddef>

namespace xfc::nn {

/// Lowers src[icg][H][W] into col[icg*k*k][H*W]. k must be odd (pad = k/2).
void im2col(const float* src, std::size_t icg, std::size_t h, std::size_t w,
            std::size_t k, float* col);

/// Scatter-add inverse of im2col: accumulates col[icg*k*k][H*W] back into
/// dst[icg][H][W]. dst must be zero-initialised by the caller (the conv
/// backward accumulates several groups' contributions into one gradient
/// tensor).
void col2im(const float* col, std::size_t icg, std::size_t h, std::size_t w,
            std::size_t k, float* dst);

}  // namespace xfc::nn

#endif  // XFC_NN_IM2COL_HPP
