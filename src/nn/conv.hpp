#ifndef XFC_NN_CONV_HPP
#define XFC_NN_CONV_HPP

/// \file conv.hpp
/// Direct convolution forward: the kernel behind every Graph::conv2d
/// forward, in train and infer graphs alike.
///
/// Stride 1, zero "same" padding (pad = k/2), odd k, grouped; weight
/// layout [out_ch][in_ch/groups][k][k], optional bias [out_ch]. There is no
/// column buffer: each task copies its band of input rows into a small
/// zero-haloed scratch block, and a register block of 4 output channels x
/// 8 output columns walks the taps in place (Zhang, Franchetti and Low,
/// "High Performance Zero-Memory Overhead Direct Convolutions", ICML 2018).
///
/// Frozen order. The result is part of the cross-field stream format (the
/// decoder replays the encoder's CFNN predictions bit for bit; graph.hpp
/// contract 1). With K = (in_ch/groups)*k*k, every output element is
///   t_p = w[oc][p] * x_p        float multiply, never fused with the add
///                               (libxfc builds with -ffp-contract=off)
///   p   = (ic*k + ky)*k + kx    im2col row order; x_p = +0.0f for a tap
///                               outside the plane, so w*0 is still added
///   s_j = (((+0.0f + t_{240j}) + t_{240j+1}) + ...) over p in
///         [240j, min(240(j+1), K))
///   y   = s_0;  y = s_j + y for j = 1, 2, ...;  y = y + bias[oc]
/// which is term for term what im2col + the KC = 240 blocked sgemm + a
/// separate bias pass computed before this kernel replaced them.
///
/// Parallel over (image, group, band of output rows). Each element is
/// computed by exactly one thread in the order above, so the output does
/// not depend on XFC_THREADS; a call nested in a parallel body runs inline.

#include <cstddef>

namespace xfc::nn {

void conv2d_forward(const float* x, const float* w, const float* bias,
                    std::size_t batch, std::size_t in_ch, std::size_t h,
                    std::size_t wd, std::size_t out_ch, std::size_t k,
                    std::size_t groups, float* y);

}  // namespace xfc::nn

#endif  // XFC_NN_CONV_HPP
