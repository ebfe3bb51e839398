#include "lowering/gemm.hpp"

#include <algorithm>

#include "core/utils.hpp"
#include "nn/workspace.hpp"

namespace xfc::nn::test {
namespace {

// Register tile. MR*NR accumulators plus a broadcast lane and one NR-wide
// B row stay within the 16 SIMD registers of baseline x86-64; GCC/Clang
// vectorize the inner loops at -O3 without intrinsics, which keeps the
// kernel portable. The kernel is templated on the live row count so the
// small-M GEMMs the CFNN produces (3..8 output channels, 1 for depthwise)
// never burn FLOPs on padding rows.
constexpr std::size_t MR = 6;
constexpr std::size_t NR = 8;

// Cache blocking: KC x NR B-panels stay in L1 across a sweep of A panels;
// an MC x KC A-block sits in L2; NC bounds a column stripe's footprint and
// is the unit of parallelism across the thread pool.
constexpr std::size_t KC = 240;
constexpr std::size_t MC = 72;
constexpr std::size_t NC = 1024;

inline float at(const float* x, std::size_t ld, bool trans, std::size_t row,
                std::size_t col) {
  return trans ? x[col * ld + row] : x[row * ld + col];
}

/// Packs op(A)[i0..i0+mc) x [p0..p0+kc) into MR-row panels: panel-major,
/// within a panel column p varies slowest and the MR rows are contiguous.
/// Short panels are zero-padded so the micro-kernels read a fixed stride.
void pack_a(const float* a, std::size_t lda, bool trans, std::size_t i0,
            std::size_t mc, std::size_t p0, std::size_t kc, float* dst) {
  for (std::size_t i = 0; i < mc; i += MR) {
    const std::size_t mr = std::min(MR, mc - i);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t r = 0; r < mr; ++r)
        dst[r] = at(a, lda, trans, i0 + i + r, p0 + p);
      for (std::size_t r = mr; r < MR; ++r) dst[r] = 0.0f;
      dst += MR;
    }
  }
}

/// Packs op(B)[p0..p0+kc) x [j0..j0+nc) into NR-column panels, zero-padded
/// to NR width. Only the transposed-B path needs this; untransposed B is
/// read in place by the direct micro-kernel.
void pack_b(const float* b, std::size_t ldb, std::size_t p0, std::size_t kc,
            std::size_t j0, std::size_t nc, float* dst) {
  for (std::size_t j = 0; j < nc; j += NR) {
    const std::size_t nr = std::min(NR, nc - j);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t q = 0; q < nr; ++q)
        dst[q] = b[(j0 + j + q) * ldb + p0 + p];
      for (std::size_t q = nr; q < NR; ++q) dst[q] = 0.0f;
      dst += NR;
    }
  }
}

template <std::size_t ROWS>
inline void write_back(const float (&acc)[ROWS][NR], float alpha,
                       float beta0, float* c, std::size_t ldc,
                       std::size_t nr) {
  for (std::size_t r = 0; r < ROWS; ++r) {
    float* crow = c + r * ldc;
    if (beta0 == 0.0f) {
      for (std::size_t q = 0; q < nr; ++q) crow[q] = alpha * acc[r][q];
    } else {
      for (std::size_t q = 0; q < nr; ++q)
        crow[q] = alpha * acc[r][q] + beta0 * crow[q];
    }
  }
}

/// ROWS x NR rank-kc update reading B in place (row stride ldb) — the hot
/// path for im2col matrices, which would otherwise pay a full packed copy
/// of a buffer far larger than A and C combined.
template <std::size_t ROWS>
void micro_kernel_direct(std::size_t kc, const float* ap, const float* b,
                         std::size_t ldb, float alpha, float beta0, float* c,
                         std::size_t ldc, std::size_t nr) {
  float acc[ROWS][NR] = {};
  if (nr == NR) {
    for (std::size_t p = 0; p < kc; ++p) {
      const float* brow = b + p * ldb;
      const float* acol = ap + p * MR;
      for (std::size_t r = 0; r < ROWS; ++r) {
        const float av = acol[r];
        for (std::size_t q = 0; q < NR; ++q) acc[r][q] += av * brow[q];
      }
    }
  } else {
    for (std::size_t p = 0; p < kc; ++p) {
      const float* brow = b + p * ldb;
      const float* acol = ap + p * MR;
      for (std::size_t r = 0; r < ROWS; ++r) {
        const float av = acol[r];
        for (std::size_t q = 0; q < nr; ++q) acc[r][q] += av * brow[q];
      }
    }
  }
  write_back(acc, alpha, beta0, c, ldc, nr);
}

/// ROWS x NR rank-kc update from a packed B panel (transposed-B path).
template <std::size_t ROWS>
void micro_kernel_packed(std::size_t kc, const float* ap, const float* bp,
                         float alpha, float beta0, float* c, std::size_t ldc,
                         std::size_t nr) {
  float acc[ROWS][NR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = bp + p * NR;
    const float* acol = ap + p * MR;
    for (std::size_t r = 0; r < ROWS; ++r) {
      const float av = acol[r];
      for (std::size_t q = 0; q < NR; ++q) acc[r][q] += av * brow[q];
    }
  }
  write_back(acc, alpha, beta0, c, ldc, nr);
}

template <bool kDirect>
void run_micro_kernel(std::size_t mr, std::size_t kc, const float* ap,
                      const float* b, std::size_t ldb, float alpha,
                      float beta0, float* c, std::size_t ldc,
                      std::size_t nr) {
  switch (mr) {
#define XFC_MK_CASE(R)                                                     \
  case R:                                                                  \
    if constexpr (kDirect)                                                 \
      micro_kernel_direct<R>(kc, ap, b, ldb, alpha, beta0, c, ldc, nr);    \
    else                                                                   \
      micro_kernel_packed<R>(kc, ap, b, alpha, beta0, c, ldc, nr);         \
    break;
    XFC_MK_CASE(1)
    XFC_MK_CASE(2)
    XFC_MK_CASE(3)
    XFC_MK_CASE(4)
    XFC_MK_CASE(5)
    XFC_MK_CASE(6)
#undef XFC_MK_CASE
    default: break;  // unreachable: mr in [1, MR]
  }
}

/// One NC-wide column stripe of the full GEMM (the unit of parallelism).
void sgemm_stripe(bool trans_a, bool trans_b, std::size_t m, std::size_t jc,
                  std::size_t nc, std::size_t k, float alpha, const float* a,
                  std::size_t lda, const float* b, std::size_t ldb,
                  float beta, float* c, std::size_t ldc) {
  Workspace& ws = tls_workspace();
  const ScratchScope scope(ws);
  float* apack = ws.acquire(((MC + MR - 1) / MR) * MR * KC);
  float* bpack =
      trans_b ? ws.acquire(KC * ((NC + NR - 1) / NR) * NR) : nullptr;

  for (std::size_t pc = 0; pc < k; pc += KC) {
    const std::size_t kc = std::min(KC, k - pc);
    // The first K-block applies the caller's beta; later blocks must
    // accumulate onto the partial products already in C.
    const float beta0 = pc == 0 ? beta : 1.0f;
    if (trans_b) pack_b(b, ldb, pc, kc, jc, nc, bpack);
    for (std::size_t ic = 0; ic < m; ic += MC) {
      const std::size_t mc = std::min(MC, m - ic);
      pack_a(a, lda, trans_a, ic, mc, pc, kc, apack);
      for (std::size_t jr = 0; jr < nc; jr += NR) {
        const std::size_t nr = std::min(NR, nc - jr);
        for (std::size_t ir = 0; ir < mc; ir += MR) {
          const std::size_t mr = std::min(MR, mc - ir);
          const float* ap = apack + (ir / MR) * kc * MR;
          float* ctile = c + (ic + ir) * ldc + jc + jr;
          if (trans_b)
            run_micro_kernel<false>(mr, kc, ap, bpack + (jr / NR) * kc * NR,
                                    0, alpha, beta0, ctile, ldc, nr);
          else
            run_micro_kernel<true>(mr, kc, ap, b + pc * ldb + jc + jr, ldb,
                                   alpha, beta0, ctile, ldc, nr);
        }
      }
    }
  }
}

}  // namespace

void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j)
        c[i * ldc + j] = beta == 0.0f ? 0.0f : beta * c[i * ldc + j];
    return;
  }

  // Column stripes are independent (disjoint C columns, read-only A/B), so
  // the GEMM parallelises across the pool; inside a parallel body this
  // runs inline (see parallel_for_chunked) and costs nothing. When n is
  // too narrow for a stripe per thread, stripes shrink (NR-aligned) so
  // even an n == NC GEMM spreads across cores.
  std::size_t stripe_w = NC;
  const auto threads = static_cast<std::size_t>(hardware_threads());
  if (threads > 1 && n < NC * threads)
    stripe_w = std::max(NR, ((ceil_div(n, threads) + NR - 1) / NR) * NR);
  const std::size_t stripes = ceil_div(n, stripe_w);
  parallel_for_chunked(0, stripes, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      const std::size_t jc = s * stripe_w;
      sgemm_stripe(trans_a, trans_b, m, jc, std::min(stripe_w, n - jc), k,
                   alpha, a, lda, b, ldb, beta, c, ldc);
    }
  });
}

}  // namespace xfc::nn::test
