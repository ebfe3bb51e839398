#ifndef XFC_NN_GEMM_HPP
#define XFC_NN_GEMM_HPP

/// \file gemm.hpp
/// Single-precision GEMM: the kernel the conv backward pass lowers onto
/// (via im2col/col2im; pointwise convs directly). The forward is a direct
/// convolution (conv.hpp) that reproduces this GEMM's K-blocked (KC = 240)
/// summation order bit for bit.
///
/// All matrices are dense row-major. Computes
///   C = alpha * op(A) * op(B) + beta * C
/// where op(X) is X or X^T per the trans flags; op(A) is m x k, op(B) is
/// k x n, C is m x n. `lda`/`ldb`/`ldc` are the row strides of the stored
/// (untransposed) matrices.
///
/// `sgemm` is cache-blocked and register-tiled (pack + micro-kernel, the
/// classic BLIS/GotoBLAS loop nest); tests cross-check it against a naive
/// reference (tests/nn_test_util.hpp) to 1e-4 relative tolerance.

#include <cstddef>

namespace xfc::nn {

void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc);

}  // namespace xfc::nn

#endif  // XFC_NN_GEMM_HPP
