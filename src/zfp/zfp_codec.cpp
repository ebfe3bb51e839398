#include "zfp/zfp_codec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "core/error.hpp"
#include "core/utils.hpp"
#include "io/bitstream.hpp"
#include "io/bytebuffer.hpp"
#include "sz/container.hpp"

namespace xfc {
namespace {

constexpr std::size_t kBlockEdge = 4;
constexpr unsigned kIntPrec = 32;       // negabinary bit planes
constexpr std::uint32_t kNbMask = 0xAAAAAAAAu;

/// ZFP forward lifting transform on 4 elements with stride s.
void fwd_lift(std::int32_t* p, std::size_t s) {
  std::int32_t x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  x += w; x >>= 1; w -= x;
  z += y; z >>= 1; y -= z;
  x += z; x >>= 1; z -= x;
  w += y; w >>= 1; y -= w;
  w += y >> 1; y -= w >> 1;
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

/// ZFP inverse lifting transform.
void inv_lift(std::int32_t* p, std::size_t s) {
  std::int32_t x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  y += w >> 1; w -= y >> 1;
  y += w; w <<= 1; w -= y;
  z += x; x <<= 1; x -= z;
  y += z; z <<= 1; z -= y;
  w += x; x <<= 1; x -= w;
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

inline std::uint32_t int_to_negabinary(std::int32_t v) {
  return (static_cast<std::uint32_t>(v) + kNbMask) ^ kNbMask;
}

inline std::int32_t negabinary_to_int(std::uint32_t v) {
  return static_cast<std::int32_t>((v ^ kNbMask) - kNbMask);
}

/// Sequency-style coefficient permutation: coefficients ordered by total
/// frequency (coordinate sum), ties broken lexicographically. Generated
/// once per rank; this codec defines its own order (it is not bitstream
/// compatible with libzfp).
std::vector<std::size_t> make_perm(std::size_t ndim) {
  const std::size_t n = ndim == 1 ? 4 : ndim == 2 ? 16 : 64;
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  auto key = [&](std::size_t f) {
    std::size_t x = f % 4, y = (f / 4) % 4, z = (f / 16) % 4;
    return std::array<std::size_t, 4>{x + y + z, z, y, x};
  };
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
  return idx;
}

const std::vector<std::size_t>& perm_for(std::size_t ndim) {
  static const std::vector<std::size_t> p1 = make_perm(1);
  static const std::vector<std::size_t> p2 = make_perm(2);
  static const std::vector<std::size_t> p3 = make_perm(3);
  return ndim == 1 ? p1 : ndim == 2 ? p2 : p3;
}

/// Exponent e such that |v| < 2^e (frexp convention), for the block max.
int block_exponent(double maxabs) {
  if (maxabs == 0.0) return INT32_MIN;
  int e;
  std::frexp(maxabs, &e);
  return e;
}

struct BlockCodecParams {
  std::size_t ndim;
  std::size_t block_size;  // 4^ndim
  int minexp;              // floor(log2(tolerance))
};

/// Encodes one block of fixed-point transformed coefficients.
void encode_block(BitWriter& bw, const BlockCodecParams& prm,
                  std::span<const float> values) {
  double maxabs = 0.0;
  for (float v : values) maxabs = std::max(maxabs, std::abs(static_cast<double>(v)));
  const int emax = block_exponent(maxabs);

  // Precision needed so dropped planes stay below tolerance, with ZFP's
  // 2*(d+1) guard bits absorbing transform error growth.
  const int prec_needed =
      emax == INT32_MIN
          ? 0
          : emax - prm.minexp + 2 * (static_cast<int>(prm.ndim) + 1);
  const unsigned maxprec =
      static_cast<unsigned>(std::clamp(prec_needed, 0, static_cast<int>(kIntPrec)));

  if (maxprec == 0) {
    bw.put_bit(0);  // empty block: reconstructs to all zeros
    return;
  }
  bw.put_bit(1);
  // Biased emax in 16 bits (float64 exponents fit comfortably).
  bw.put_bits(static_cast<std::uint32_t>(emax + 16384), 16);

  // Block-local fixed point: Q1.30 relative to 2^emax.
  std::array<std::int32_t, 64> q{};
  const double scale = std::ldexp(1.0, 30 - emax);
  for (std::size_t i = 0; i < prm.block_size; ++i)
    q[i] = static_cast<std::int32_t>(
        std::lrint(static_cast<double>(values[i]) * scale));

  // Decorrelate along x, then y, then z.
  if (prm.ndim == 1) {
    fwd_lift(q.data(), 1);
  } else if (prm.ndim == 2) {
    for (std::size_t y = 0; y < 4; ++y) fwd_lift(q.data() + 4 * y, 1);
    for (std::size_t x = 0; x < 4; ++x) fwd_lift(q.data() + x, 4);
  } else {
    for (std::size_t z = 0; z < 4; ++z)
      for (std::size_t y = 0; y < 4; ++y)
        fwd_lift(q.data() + 16 * z + 4 * y, 1);
    for (std::size_t z = 0; z < 4; ++z)
      for (std::size_t x = 0; x < 4; ++x)
        fwd_lift(q.data() + 16 * z + x, 4);
    for (std::size_t y = 0; y < 4; ++y)
      for (std::size_t x = 0; x < 4; ++x)
        fwd_lift(q.data() + 4 * y + x, 16);
  }

  // Negabinary in sequency order.
  const auto& perm = perm_for(prm.ndim);
  std::array<std::uint32_t, 64> u{};
  for (std::size_t i = 0; i < prm.block_size; ++i)
    u[i] = int_to_negabinary(q[perm[i]]);

  // Embedded bit-plane coding with a per-plane "any new significant
  // coefficient" group flag.
  std::array<bool, 64> significant{};
  const unsigned kmin = kIntPrec - maxprec;
  for (unsigned k = kIntPrec; k-- > kmin;) {
    bool any_new = false;
    for (std::size_t i = 0; i < prm.block_size; ++i)
      if (!significant[i] && ((u[i] >> k) & 1u)) any_new = true;

    for (std::size_t i = 0; i < prm.block_size; ++i)
      if (significant[i]) bw.put_bit((u[i] >> k) & 1u);

    bw.put_bit(any_new ? 1 : 0);
    if (any_new) {
      for (std::size_t i = 0; i < prm.block_size; ++i) {
        if (significant[i]) continue;
        const unsigned bit = (u[i] >> k) & 1u;
        bw.put_bit(bit);
        if (bit) significant[i] = true;
      }
    }
  }
}

/// Decodes one block; writes reconstructed values into `out`.
void decode_block(BitReader& br, const BlockCodecParams& prm,
                  std::span<float> out) {
  if (br.get_bit() == 0) {
    std::fill(out.begin(), out.end(), 0.0f);
    return;
  }
  const int emax = static_cast<int>(br.get_bits(16)) - 16384;
  const int prec_needed =
      emax - prm.minexp + 2 * (static_cast<int>(prm.ndim) + 1);
  const unsigned maxprec =
      static_cast<unsigned>(std::clamp(prec_needed, 1, static_cast<int>(kIntPrec)));

  std::array<std::uint32_t, 64> u{};
  std::array<bool, 64> significant{};
  const unsigned kmin = kIntPrec - maxprec;
  for (unsigned k = kIntPrec; k-- > kmin;) {
    for (std::size_t i = 0; i < prm.block_size; ++i)
      if (significant[i]) u[i] |= static_cast<std::uint32_t>(br.get_bit()) << k;
    if (br.get_bit()) {
      for (std::size_t i = 0; i < prm.block_size; ++i) {
        if (significant[i]) continue;
        const unsigned bit = br.get_bit();
        if (bit) {
          significant[i] = true;
          u[i] |= 1u << k;
        }
      }
    }
  }

  const auto& perm = perm_for(prm.ndim);
  std::array<std::int32_t, 64> q{};
  for (std::size_t i = 0; i < prm.block_size; ++i)
    q[perm[i]] = negabinary_to_int(u[i]);

  if (prm.ndim == 1) {
    inv_lift(q.data(), 1);
  } else if (prm.ndim == 2) {
    for (std::size_t x = 0; x < 4; ++x) inv_lift(q.data() + x, 4);
    for (std::size_t y = 0; y < 4; ++y) inv_lift(q.data() + 4 * y, 1);
  } else {
    for (std::size_t y = 0; y < 4; ++y)
      for (std::size_t x = 0; x < 4; ++x)
        inv_lift(q.data() + 4 * y + x, 16);
    for (std::size_t z = 0; z < 4; ++z)
      for (std::size_t x = 0; x < 4; ++x)
        inv_lift(q.data() + 16 * z + x, 4);
    for (std::size_t z = 0; z < 4; ++z)
      for (std::size_t y = 0; y < 4; ++y)
        inv_lift(q.data() + 16 * z + 4 * y, 1);
  }

  const double scale = std::ldexp(1.0, emax - 30);
  for (std::size_t i = 0; i < prm.block_size; ++i)
    out[i] = static_cast<float>(q[i] * scale);
}

/// Gathers a (possibly partial) block, replicating edge values as padding.
void gather_block(const F32Array& a, std::size_t i0, std::size_t j0,
                  std::size_t k0, std::span<float> block) {
  const Shape& s = a.shape();
  const std::size_t ndim = s.ndim();
  for (std::size_t z = 0; z < (ndim >= 3 ? kBlockEdge : 1); ++z) {
    const std::size_t kk =
        ndim >= 3 ? std::min(k0 + z, s[2] - 1) : 0;
    for (std::size_t y = 0; y < (ndim >= 2 ? kBlockEdge : 1); ++y) {
      const std::size_t jj = ndim >= 2 ? std::min(j0 + y, s[1] - 1) : 0;
      for (std::size_t x = 0; x < kBlockEdge; ++x) {
        const std::size_t ii = std::min(i0 + x, s[0] - 1);
        float v;
        if (ndim == 1) v = a(ii);
        else if (ndim == 2) v = a(ii, jj);
        else v = a(ii, jj, kk);
        // Block layout: x fastest (matches the lift strides above).
        block[(z * (ndim >= 2 ? kBlockEdge : 1) + y) * kBlockEdge + x] = v;
      }
    }
  }
}

/// Scatters a decoded block into the array, skipping padding.
void scatter_block(F32Array& a, std::size_t i0, std::size_t j0,
                   std::size_t k0, std::span<const float> block) {
  const Shape& s = a.shape();
  const std::size_t ndim = s.ndim();
  for (std::size_t z = 0; z < (ndim >= 3 ? kBlockEdge : 1); ++z) {
    if (ndim >= 3 && k0 + z >= s[2]) break;
    for (std::size_t y = 0; y < (ndim >= 2 ? kBlockEdge : 1); ++y) {
      if (ndim >= 2 && j0 + y >= s[1]) break;
      for (std::size_t x = 0; x < kBlockEdge; ++x) {
        if (i0 + x >= s[0]) break;
        const float v =
            block[(z * (ndim >= 2 ? kBlockEdge : 1) + y) * kBlockEdge + x];
        if (ndim == 1) a(i0 + x) = v;
        else if (ndim == 2) a(i0 + x, j0 + y) = v;
        else a(i0 + x, j0 + y, k0 + z) = v;
      }
    }
  }
}

}  // namespace

std::vector<std::uint8_t> zfp_compress(const Field& field,
                                       const ZfpOptions& options,
                                       SzStats* stats) {
  expects(!field.array().empty(), "zfp_compress: empty field");
  expects(options.tolerance > 0.0 && std::isfinite(options.tolerance),
          "zfp_compress: tolerance must be positive and finite");
  const Shape& shape = field.shape();
  const std::size_t ndim = shape.ndim();

  BlockCodecParams prm;
  prm.ndim = ndim;
  prm.block_size = ndim == 1 ? 4 : ndim == 2 ? 16 : 64;
  prm.minexp = static_cast<int>(std::floor(std::log2(options.tolerance)));

  const std::size_t bi = ceil_div(shape[0], kBlockEdge);
  const std::size_t bj = ndim >= 2 ? ceil_div(shape[1], kBlockEdge) : 1;
  const std::size_t bk = ndim >= 3 ? ceil_div(shape[2], kBlockEdge) : 1;

  BitWriter bw;
  std::array<float, 64> block{};
  for (std::size_t zi = 0; zi < bi; ++zi)
    for (std::size_t zj = 0; zj < bj; ++zj)
      for (std::size_t zk = 0; zk < bk; ++zk) {
        // NOTE: block grid iterates i (first extent) outermost; gather uses
        // i as x (fastest lift stride), which is a pure labelling choice.
        gather_block(field.array(), zi * kBlockEdge, zj * kBlockEdge,
                     zk * kBlockEdge, block);
        encode_block(bw, prm, std::span<const float>(block.data(), prm.block_size));
      }

  ByteWriter body;
  write_shape(body, shape);
  body.str(field.name());
  body.f64(options.tolerance);
  body.blob(bw.take());

  auto stream = frame_container(CodecId::kZfp, body.bytes());
  if (stats != nullptr) {
    stats->original_bytes = field.size() * sizeof(float);
    stats->compressed_bytes = stream.size();
    stats->compression_ratio =
        static_cast<double>(stats->original_bytes) / stream.size();
    stats->bit_rate = 8.0 * stream.size() / static_cast<double>(field.size());
    stats->abs_eb = options.tolerance;
  }
  return stream;
}

Field zfp_decompress(std::span<const std::uint8_t> stream) {
  const auto parsed = parse_container(stream);
  if (parsed.codec != CodecId::kZfp)
    throw CorruptStream("zfp_decompress: not a ZFP stream");
  ByteReader in(parsed.body);

  const Shape shape = read_shape(in);
  const std::string name = in.str();
  const double tolerance = in.f64();
  if (!(tolerance > 0.0)) throw CorruptStream("zfp_decompress: bad tolerance");
  const auto bits = in.blob();

  const std::size_t ndim = shape.ndim();
  BlockCodecParams prm;
  prm.ndim = ndim;
  prm.block_size = ndim == 1 ? 4 : ndim == 2 ? 16 : 64;
  prm.minexp = static_cast<int>(std::floor(std::log2(tolerance)));

  const std::size_t bi = ceil_div(shape[0], kBlockEdge);
  const std::size_t bj = ndim >= 2 ? ceil_div(shape[1], kBlockEdge) : 1;
  const std::size_t bk = ndim >= 3 ? ceil_div(shape[2], kBlockEdge) : 1;

  F32Array out(shape);
  BitReader br(bits);
  std::array<float, 64> block{};
  for (std::size_t zi = 0; zi < bi; ++zi)
    for (std::size_t zj = 0; zj < bj; ++zj)
      for (std::size_t zk = 0; zk < bk; ++zk) {
        decode_block(br, prm, std::span<float>(block.data(), prm.block_size));
        scatter_block(out, zi * kBlockEdge, zj * kBlockEdge, zk * kBlockEdge,
                      block);
      }

  return Field(name, std::move(out));
}

}  // namespace xfc
