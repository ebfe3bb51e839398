#ifndef XFC_NN_CONV_HPP
#define XFC_NN_CONV_HPP

/// \file conv.hpp
/// Direct convolution, forward and backward: the kernels behind every
/// Graph::conv2d, in train and infer graphs alike.
///
/// Stride 1, zero "same" padding (pad = k/2), odd k, grouped; weight
/// layout [out_ch][in_ch/groups][k][k], optional bias [out_ch]. There is no
/// column buffer in either direction. The forward copies each task's band
/// of input rows into a small zero-haloed scratch block, and a register
/// block of 4 output channels x 8 output columns walks the taps in place
/// (Zhang, Franchetti and Low, "High Performance Zero-Memory Overhead
/// Direct Convolutions", ICML 2018). The weight gradient keeps a register
/// block of up to 4 taps x 8 channel lanes and streams the image's pixels
/// through it; the data gradient sums each tap along contiguous rows.
///
/// Frozen forward order. The result is part of the cross-field stream
/// format (the decoder replays the encoder's CFNN predictions bit for bit;
/// graph.hpp contract 1). With K = (in_ch/groups)*k*k, every output
/// element is
///   t_p = w[oc][p] * x_p        float multiply, never fused with the add
///                               (libxfc builds with -ffp-contract=off)
///   p   = (ic*k + ky)*k + kx    tap order; x_p = +0.0f for a tap outside
///                               the plane, so w*0 is still added
///   s_j = (((+0.0f + t_{240j}) + t_{240j+1}) + ...) over p in
///         [240j, min(240(j+1), K))
///   y   = s_0;  y = s_j + y for j = 1, 2, ...;  y = y + bias[oc]
/// which is term for term what an im2col + KC = 240 blocked GEMM + separate
/// bias pass computed before this kernel replaced them.
///
/// Backward order. Training is not replayed by a decoder, but the trained
/// model bytes are (they are stored in the stream), so the backward is
/// fixed too: term for term the im2col + GEMM + col2im lowering it
/// replaced. Per (image, group), with pixels p = y*W + x:
///   weight  for each (oc, ic, ky, kx): the pixels in blocks of 240, each
///           block summed from +0.0f, one product go*x at a time (a tap
///           outside the plane still adds go*0); an image's sum starts at
///           +0.0f and takes each block as acc = block + acc. The per-image
///           sums are then added onto gw in image order: gw = gw + acc_b.
///   data    k > 1: each tap's value d = sum over oc of w*go, in order and
///           in blocks of 240 as above; gx (set to +0.0f first when
///           `first`) takes the taps in (ic, ky, kx) order as gx = gx + d,
///           skipping a tap whose output pixel lies outside the plane.
///           k = 1: the oc sum is assigned to gx when `first`, else added
///           as gx = sum + gx.
///   bias    per channel, a double sum over images and pixels in order,
///           added as gb = gb + float(sum).
///
/// Parallel over disjoint outputs (forward: image, group and band of rows;
/// weight gradient: image; data gradient: image and input channel). Each
/// element is computed by one thread in the order above, so no result
/// depends on XFC_THREADS; a call nested in a parallel body runs inline.

#include <cstddef>

namespace xfc::nn {

void conv2d_forward(const float* x, const float* w, const float* bias,
                    std::size_t batch, std::size_t in_ch, std::size_t h,
                    std::size_t wd, std::size_t out_ch, std::size_t k,
                    std::size_t groups, float* y);

/// Backward of conv2d_forward for go = dL/dy. Each of gx, gw, gb may be
/// null to skip it. gx = dL/dx is overwritten when `first` (no other
/// consumer of x has written it yet) and accumulated onto otherwise; gw and
/// gb always accumulate.
void conv2d_backward(const float* x, const float* w, const float* go,
                     std::size_t batch, std::size_t in_ch, std::size_t h,
                     std::size_t wd, std::size_t out_ch, std::size_t k,
                     std::size_t groups, bool first, float* gx, float* gw,
                     float* gb);

}  // namespace xfc::nn

#endif  // XFC_NN_CONV_HPP
