// Tests for the ZFP-style fixed-accuracy transform codec.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <tuple>

#include "archive/archive_writer.hpp"
#include "core/rng.hpp"
#include "io/stream.hpp"
#include "metrics/metrics.hpp"
#include "zfp/zfp_codec.hpp"

namespace xfc {
namespace {

Field turbulent(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  F32Array a(shape);
  const std::size_t w = shape[shape.ndim() - 1];
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = static_cast<double>(i % w);
    const double y = static_cast<double>(i / w);
    a[i] = static_cast<float>(30.0 * std::sin(x / 7.0 + y / 13.0) +
                              5.0 * std::sin(x / 2.1) + rng.normal(0.0, 0.3));
  }
  return Field("turb", std::move(a));
}

using ZfpCase = std::tuple<int /*rank*/, double /*tolerance*/>;

class ZfpToleranceSweep : public ::testing::TestWithParam<ZfpCase> {};

TEST_P(ZfpToleranceSweep, ErrorWithinTolerance) {
  const auto& [rank, tol] = GetParam();
  const Shape shape = rank == 1   ? Shape{4093}
                      : rank == 2 ? Shape{67, 59}
                                  : Shape{10, 22, 26};
  const Field field = turbulent(shape, 11 + rank);

  ZfpOptions opt;
  opt.tolerance = tol;
  SzStats stats;
  const auto stream = zfp_compress(field, opt, &stats);
  const Field out = zfp_decompress(stream);

  EXPECT_EQ(out.shape(), field.shape());
  // The guard-bit budget makes the bound conservative in zfp-style codecs;
  // assert the advertised tolerance outright.
  EXPECT_LE(max_abs_error(field.array().span(), out.array().span()), tol)
      << "rank " << rank << " tol " << tol;
}

INSTANTIATE_TEST_SUITE_P(RanksAndTolerances, ZfpToleranceSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1e-1, 1e-2,
                                                              1e-3, 1e-4)));

TEST(Zfp, ZeroBlocksCost2Bits) {
  Field zero("zero", F32Array(Shape{64, 64}));
  SzStats stats;
  zfp_compress(zero, ZfpOptions{}, &stats);
  // 16x16 blocks, ~1 bit each + container overhead.
  EXPECT_LT(stats.compressed_bytes, 200u);
}

TEST(Zfp, TighterToleranceCostsMoreBits) {
  const Field field = turbulent(Shape{64, 64}, 3);
  SzStats loose, tight;
  zfp_compress(field, {.tolerance = 1.0}, &loose);
  zfp_compress(field, {.tolerance = 1e-4}, &tight);
  EXPECT_LT(loose.compressed_bytes, tight.compressed_bytes);
}

TEST(Zfp, PartialEdgeBlocksReconstruct) {
  // 5x7x9: every block on the far edges is partial.
  const Field field = turbulent(Shape{5, 7, 9}, 4);
  ZfpOptions opt;
  opt.tolerance = 1e-3;
  const Field out = zfp_decompress(zfp_compress(field, opt));
  EXPECT_LE(max_abs_error(field.array().span(), out.array().span()), 1e-3);
}

TEST(Zfp, LargeMagnitudeData) {
  F32Array a(Shape{32, 32});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<float>(1e20 * std::sin(i / 5.0));
  const Field field("big", std::move(a));
  ZfpOptions opt;
  opt.tolerance = 1e14;  // relative-ish tolerance for huge values
  const Field out = zfp_decompress(zfp_compress(field, opt));
  EXPECT_LE(max_abs_error(field.array().span(), out.array().span()), 1e14);
}

TEST(Zfp, NegativeAndMixedSignValues) {
  F32Array a(Shape{16, 16});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = (i % 2 == 0 ? -1.0f : 1.0f) * static_cast<float>(i);
  const Field field("mixed", std::move(a));
  ZfpOptions opt;
  opt.tolerance = 0.01;
  const Field out = zfp_decompress(zfp_compress(field, opt));
  EXPECT_LE(max_abs_error(field.array().span(), out.array().span()), 0.01);
}

TEST(Zfp, CorruptStreamThrows) {
  const Field field = turbulent(Shape{40, 40}, 5);
  auto stream = zfp_compress(field, ZfpOptions{});
  stream[stream.size() - 2] ^= 0x40;  // damage CRC area
  EXPECT_THROW(zfp_decompress(stream), CorruptStream);
}

TEST(Zfp, RejectsNonPositiveTolerance) {
  const Field field = turbulent(Shape{8, 8}, 6);
  EXPECT_THROW(zfp_compress(field, {.tolerance = 0.0}), InvalidArgument);
  EXPECT_THROW(
      zfp_compress(field,
                   {.tolerance = std::numeric_limits<double>::infinity()}),
      InvalidArgument);
}

TEST(NonFiniteBound, EveryArchiveCodecRejectsBeforeWriting) {
  // One +Inf makes the value range, and with it a relative bound,
  // non-finite. No reader accepts such a bound, so the writer must refuse
  // the field before any codec runs — for every codec, with
  // InvalidArgument, and without leaving a file behind.
  Field field = turbulent(Shape{32, 32}, 12);
  field.array()[100] = std::numeric_limits<float>::infinity();
  for (const CodecId codec : {CodecId::kSz, CodecId::kSzClassic,
                              CodecId::kInterp, CodecId::kZfp}) {
    const std::string path = ::testing::TempDir() + "xfc_nonfinite_" +
                             std::to_string(static_cast<int>(codec)) +
                             ".xfa";
    {
      FileSink sink(path);
      ArchiveWriter writer(sink);
      ArchiveFieldOptions opts;
      opts.eb = ErrorBound::relative(1e-3);
      opts.codec = codec;
      EXPECT_THROW(writer.add_field(field, opts), InvalidArgument)
          << "codec " << static_cast<int>(codec);
    }
    EXPECT_FALSE(std::filesystem::exists(path)) << path;
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << path;
  }
}

TEST(NonFiniteInput, EveryArchiveCodecNamesTheFirstBadIndex) {
  // One NaN mid-field: every codec used to do something different with it
  // (zfp wrote back a finite wrong value, classic kept the NaN, sz and
  // interp failed on a quantization-code overflow). The writer now refuses
  // the field before any tile is compressed, under either bound mode, and
  // the error names the offending flat index.
  Field field = turbulent(Shape{32, 32}, 13);
  field.array()[517] = std::numeric_limits<float>::quiet_NaN();
  for (const ErrorBound eb :
       {ErrorBound::absolute(1e-3), ErrorBound::relative(1e-3)}) {
    for (const CodecId codec : {CodecId::kSz, CodecId::kSzClassic,
                                CodecId::kInterp, CodecId::kZfp}) {
      const std::string tag = "codec " +
                              std::to_string(static_cast<int>(codec)) +
                              " mode " +
                              std::to_string(static_cast<int>(eb.mode()));
      const std::string path = ::testing::TempDir() + "xfc_nan_" +
                               std::to_string(static_cast<int>(codec)) +
                               ".xfa";
      {
        FileSink sink(path);
        ArchiveWriter writer(sink);
        const std::size_t header = sink.size();
        ArchiveFieldOptions opts;
        opts.eb = eb;
        opts.codec = codec;
        try {
          writer.add_field(field, opts);
          ADD_FAILURE() << tag << ": a NaN field was accepted";
        } catch (const InvalidArgument& e) {
          EXPECT_NE(std::string(e.what()).find("517"), std::string::npos)
              << tag << ": " << e.what();
        }
        EXPECT_EQ(sink.size(), header) << tag;
      }
      EXPECT_FALSE(std::filesystem::exists(path)) << tag;
      EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << tag;
    }
  }
}

TEST(Zfp, SmoothDataBeatsWhiteNoise) {
  Rng rng(9);
  F32Array noise_a(Shape{64, 64});
  for (auto& v : noise_a.vec()) v = static_cast<float>(rng.normal(0, 10));
  const Field noise("noise", std::move(noise_a));
  const Field smooth = turbulent(Shape{64, 64}, 10);

  SzStats sn, ss;
  zfp_compress(noise, {.tolerance = 1e-2}, &sn);
  zfp_compress(smooth, {.tolerance = 1e-2}, &ss);
  EXPECT_GT(ss.compression_ratio, sn.compression_ratio);
}

}  // namespace
}  // namespace xfc
