// Tests for the SZ-style baseline pipeline: error-bound guarantee,
// container integrity, predictor modes, stats.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/rng.hpp"
#include "metrics/metrics.hpp"
#include "quant/dual_quant.hpp"
#include "sz/compressor.hpp"
#include "sz/container.hpp"
#include "sz/fused_encode.hpp"
#include "test_util.hpp"

namespace xfc {
namespace {

Field make_field(const std::string& kind, const Shape& shape,
                 std::uint64_t seed) {
  Rng rng(seed);
  F32Array a(shape);
  const std::size_t w = shape.ndim() >= 2 ? shape[shape.ndim() - 1] : shape[0];
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = static_cast<double>(i % w) / static_cast<double>(w);
    const double y = static_cast<double>(i / w) / 64.0;
    if (kind == "smooth")
      a[i] = static_cast<float>(50.0 * std::sin(6.28 * x) * std::cos(3.0 * y) +
                                10.0 * x);
    else if (kind == "noisy")
      a[i] = static_cast<float>(std::sin(12.0 * x) + rng.normal(0.0, 0.5));
    else if (kind == "constant")
      a[i] = 3.25f;
    else if (kind == "spiky") {
      a[i] = static_cast<float>(rng.normal(0.0, 1.0));
      if (rng.uniform() < 0.001)
        a[i] = static_cast<float>(rng.normal(0.0, 5000.0));
    }
  }
  return Field(kind, std::move(a));
}

using SweepCase = std::tuple<std::string, int /*rank*/, double /*rel eb*/,
                             SzPredictor>;

class SzBoundSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SzBoundSweep, ErrorBoundHolds) {
  const auto& [kind, rank, rel_eb, predictor] = GetParam();
  const Shape shape = rank == 1   ? Shape{4096}
                      : rank == 2 ? Shape{64, 96}
                                  : Shape{12, 24, 24};
  const Field field = make_field(kind, shape, 1234 + rank);

  SzOptions opt;
  opt.eb = ErrorBound::relative(rel_eb);
  opt.predictor = predictor;
  SzStats stats;
  const auto stream = sz_compress(field, opt, &stats);
  const Field out = sz_decompress(stream);

  const double abs_eb = opt.eb.absolute_for(field.value_range());
  EXPECT_LE(max_abs_error(field.array().span(), out.array().span()),
            test::bound_tolerance(abs_eb, field));
  EXPECT_EQ(out.name(), field.name());
  EXPECT_EQ(out.shape(), field.shape());
  EXPECT_GT(stats.compression_ratio, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    KindsRanksBoundsPredictors, SzBoundSweep,
    ::testing::Combine(
        ::testing::Values("smooth", "noisy", "spiky"),
        ::testing::Values(1, 2, 3),
        ::testing::Values(5e-3, 1e-3, 1e-4),
        ::testing::Values(SzPredictor::kLorenzo1, SzPredictor::kLorenzo2,
                          SzPredictor::kLorenzoRegression)));

TEST(Sz, AbsoluteModeBound) {
  const Field field = make_field("smooth", Shape{48, 48}, 9);
  SzOptions opt;
  opt.eb = ErrorBound::absolute(0.05);
  const auto stream = sz_compress(field, opt);
  const Field out = sz_decompress(stream);
  EXPECT_LE(max_abs_error(field.array().span(), out.array().span()),
            0.05 * (1.0 + 1e-9));
}

TEST(Sz, RangeWiderThanFloatMaxRoundTripsWithinRelativeBound) {
  // A finite 32x32 field alternating about +-3e38: max - min = 6e38 is
  // past FLT_MAX, so only a double range resolves a finite relative bound.
  Rng rng(77);
  F32Array a(Shape{32, 32});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<float>((i % 2 == 0 ? 3e38 : -3e38) *
                              (1.0 - 1e-3 * rng.uniform()));
  const Field field("wide", std::move(a));
  EXPECT_GT(field.value_range(), 5.9e38);

  SzOptions opt;
  opt.eb = ErrorBound::relative(1e-3);
  const Field out = sz_decompress(sz_compress(field, opt));
  const double abs_eb = opt.eb.absolute_for(field.value_range());
  ASSERT_TRUE(std::isfinite(abs_eb));
  EXPECT_LE(max_abs_error(field.array().span(), out.array().span()),
            test::bound_tolerance(abs_eb, field));
}

TEST(Sz, ConstantFieldCompressesExtremely) {
  const Field field = make_field("constant", Shape{64, 64}, 0);
  SzOptions opt;
  SzStats stats;
  const auto stream = sz_compress(field, opt, &stats);
  const Field out = sz_decompress(stream);
  EXPECT_GT(stats.compression_ratio, 50.0);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_NEAR(out.array()[i], 3.25f, 1e-3);
}

TEST(Sz, ReconstructMatchesDecompressBitExactly) {
  const Field field = make_field("smooth", Shape{32, 40}, 17);
  SzOptions opt;
  opt.eb = ErrorBound::relative(1e-3);
  const auto stream = sz_compress(field, opt);
  const Field via_stream = sz_decompress(stream);
  const Field direct = sz_reconstruct(field, opt);
  EXPECT_EQ(via_stream.array().vec(), direct.array().vec());
}

TEST(Sz, SmallRadiusForcesOutliersButStaysCorrect) {
  const Field field = make_field("spiky", Shape{4000}, 23);
  SzOptions opt;
  opt.eb = ErrorBound::relative(1e-4);
  opt.quant_radius = 4;  // nearly everything escapes
  const auto stream = sz_compress(field, opt);
  const Field out = sz_decompress(stream);
  const double abs_eb = opt.eb.absolute_for(field.value_range());
  EXPECT_LE(max_abs_error(field.array().span(), out.array().span()),
            test::bound_tolerance(abs_eb, field));
}

TEST(Sz, SmootherDataCompressesBetter) {
  const Field smooth = make_field("smooth", Shape{64, 64}, 2);
  const Field noisy = make_field("noisy", Shape{64, 64}, 2);
  SzOptions opt;
  SzStats s1, s2;
  sz_compress(smooth, opt, &s1);
  sz_compress(noisy, opt, &s2);
  EXPECT_GT(s1.compression_ratio, s2.compression_ratio);
}

TEST(Sz, TighterBoundCostsMoreBits) {
  const Field field = make_field("smooth", Shape{64, 64}, 3);
  SzStats loose, tight;
  SzOptions opt;
  opt.eb = ErrorBound::relative(1e-2);
  sz_compress(field, opt, &loose);
  opt.eb = ErrorBound::relative(1e-5);
  sz_compress(field, opt, &tight);
  EXPECT_GT(loose.compression_ratio, tight.compression_ratio);
}

TEST(Sz, StatsAccounting) {
  const Field field = make_field("smooth", Shape{50, 40}, 4);
  SzOptions opt;
  SzStats stats;
  const auto stream = sz_compress(field, opt, &stats);
  EXPECT_EQ(stats.original_bytes, 50u * 40u * 4u);
  EXPECT_EQ(stats.compressed_bytes, stream.size());
  EXPECT_NEAR(stats.bit_rate,
              8.0 * stream.size() / (50.0 * 40.0), 1e-12);
  EXPECT_GT(stats.abs_eb, 0.0);
}

TEST(DeltaCodec, RoundtripWithEscapes) {
  // Direct unit test of the delta coder: values near the prediction code
  // as deltas, far values escape to the outlier list.
  const std::uint32_t radius = 8;
  std::vector<std::int32_t> codes{5,  6,    7,  1000000, 8,
                                  -3, -900, 10, 11,      12};
  std::vector<std::int64_t> preds{5, 5, 5, 5, 5, 0, 0, 10, 10, 10};
  const auto payload = encode_deltas(codes, preds, radius);

  DeltaDecoder decoder(payload, radius);
  for (std::size_t i = 0; i < codes.size(); ++i)
    EXPECT_EQ(decoder.next(preds[i]), codes[i]) << "at " << i;
}

TEST(DeltaCodec, EscapeThresholdBoundary) {
  // zigzag(delta) == 2*radius is the first escaping value; 2*radius - 1
  // still codes directly.
  const std::uint32_t radius = 4;  // escape symbol index 8
  // zigzag: delta 4 -> 8 (escape), delta -4 -> 7 (direct).
  std::vector<std::int32_t> codes{4, -4};
  std::vector<std::int64_t> preds{0, 0};
  const auto payload = encode_deltas(codes, preds, radius);
  DeltaDecoder decoder(payload, radius);
  EXPECT_EQ(decoder.next(0), 4);
  EXPECT_EQ(decoder.next(0), -4);
}

TEST(DeltaCodec, MismatchedSizesRejected) {
  std::vector<std::int32_t> codes{1, 2, 3};
  std::vector<std::int64_t> preds{1, 2};
  std::vector<std::int64_t> preds3{1, 2, 3};
  EXPECT_THROW(encode_deltas(codes, preds, 8), InvalidArgument);
  EXPECT_THROW(encode_deltas(codes, preds3, 1), InvalidArgument);
}

TEST(DeltaCodec, WrongRadiusAtDecodeDetected) {
  std::vector<std::int32_t> codes{1, 2, 3, 4};
  std::vector<std::int64_t> preds{1, 2, 3, 4};
  const auto payload = encode_deltas(codes, preds, 16);
  EXPECT_THROW(DeltaDecoder(payload, 32), CorruptStream);
}

TEST(DeltaCodec, ExtremeCodesRoundTripWithLorenzoPredictions) {
  // Regression test for the encoder/decoder prediction divergence: the
  // encoder used to clamp bulk Lorenzo predictions to int32 while the
  // decoder predicted in unclamped int64, so a freshly encoded stream with
  // codes near the int32 limit failed to decode. This mirrors exactly what
  // sz_compress/sz_decompress do per point.
  const std::uint32_t radius = 1u << 24;
  I32Array codes(Shape{64});
  for (std::size_t i = 0; i < 64; ++i)
    codes(i) = (i % 2 == 0 ? 1 : -1) * (INT32_MAX - static_cast<int>(i));

  for (auto order : {LorenzoOrder::kOne, LorenzoOrder::kTwo}) {
    const I64Array preds = lorenzo_predict_all(codes, order);
    const auto payload = encode_deltas(codes.span(), preds.span(), radius);
    DeltaDecoder decoder(payload, radius);
    I32Array out(Shape{64});
    for (std::size_t i = 0; i < 64; ++i)
      out(i) = decoder.next(lorenzo_at_1d(out, i, order));
    EXPECT_EQ(out.vec(), codes.vec());
  }
}

TEST(DeltaCodec, SingleSymbolAlphabetRoundtrip) {
  // Perfect prediction everywhere: exactly one used Huffman symbol.
  std::vector<std::int32_t> codes(100, 7);
  std::vector<std::int64_t> preds(100, 7);
  const auto payload = encode_deltas(codes, preds, 8);
  DeltaDecoder decoder(payload, 8);
  for (std::size_t i = 0; i < codes.size(); ++i)
    EXPECT_EQ(decoder.next(preds[i]), codes[i]);
}

TEST(DeltaCodec, EscapeOnlyAlphabetRoundtrip) {
  // Every delta beyond the radius: the alphabet degenerates to the escape
  // symbol alone and all values travel through the outlier list.
  std::vector<std::int32_t> codes{100000, -100000, 90000, -90001};
  std::vector<std::int64_t> preds{0, 0, 0, 0};
  const auto payload = encode_deltas(codes, preds, 4);
  DeltaDecoder decoder(payload, 4);
  for (std::size_t i = 0; i < codes.size(); ++i)
    EXPECT_EQ(decoder.next(preds[i]), codes[i]);
}

TEST(DeltaCodec, TinyRadiusRoundtrip) {
  const std::uint32_t radius = 2;  // smallest legal radius
  std::vector<std::int32_t> codes{0, 1, -1, 2, -2, 5, 0, 1};
  std::vector<std::int64_t> preds{0, 0, 0, 0, 0, 0, 0, 0};
  const auto payload = encode_deltas(codes, preds, radius);
  DeltaDecoder decoder(payload, radius);
  for (std::size_t i = 0; i < codes.size(); ++i)
    EXPECT_EQ(decoder.next(preds[i]), codes[i]);
}

TEST(Sz, FusedEncodeMatchesSerialReference) {
  // The fused quantize+predict+symbolize pass must produce byte-identical
  // payloads to the serial reference composition, for every rank and order
  // — and therefore for every XFC_THREADS value (the *_mt4 ctest variant
  // re-runs this with a live pool).
  for (auto shape : {Shape{4096}, Shape{64, 96}, Shape{12, 24, 24},
                     Shape{1, 64}, Shape{2, 2}, Shape{3, 3, 3}}) {
    const Field field = make_field("smooth", shape, 321 + shape.ndim());
    const double abs_eb = 1e-3 * field.value_range();
    for (auto order : {LorenzoOrder::kOne, LorenzoOrder::kTwo}) {
      const auto fused = fused_lorenzo_encode(field.array(), abs_eb, order,
                                              kDefaultQuantRadius);
      const I32Array codes = prequantize(field.array(), abs_eb);
      const I64Array preds = lorenzo_predict_all(codes, order);
      const auto reference =
          encode_deltas(codes.span(), preds.span(), kDefaultQuantRadius);
      EXPECT_EQ(fused.codes.vec(), codes.vec())
          << "ndim " << shape.ndim() << " order " << static_cast<int>(order);
      EXPECT_EQ(fused.payload, reference)
          << "ndim " << shape.ndim() << " order " << static_cast<int>(order);
    }
  }
}

TEST(Sz, FusedEncodeRejectsEmptyInput) {
  EXPECT_THROW(fused_lorenzo_encode(F32Array(Shape{1, 0}), 0.5,
                                    LorenzoOrder::kOne, 8),
               InvalidArgument);
}

TEST(Sz, UnknownPredictorByteThrows) {
  // A syntactically valid container whose predictor byte is out of range
  // must be rejected, not silently decoded as Lorenzo garbage.
  ByteWriter body;
  write_shape(body, Shape{4, 4});
  body.str("x");
  body.u8(0);       // eb mode
  body.f64(1e-3);   // eb value
  body.f64(0.5);    // abs eb
  body.u8(7);       // invalid predictor
  body.varint(kDefaultQuantRadius);
  body.blob({});
  const auto stream = frame_container(CodecId::kSz, body.bytes());
  try {
    sz_decompress(stream);
    FAIL() << "unknown predictor byte decoded without error";
  } catch (const CorruptStream& e) {
    EXPECT_NE(std::string(e.what()).find("predictor"), std::string::npos);
  }
}

TEST(Sz, DegenerateExtents) {
  for (auto shape : {Shape{1, 64}, Shape{64, 1}, Shape{1, 1, 64},
                     Shape{1, 64, 1}, Shape{2, 2}}) {
    Field f("deg", F32Array(shape));
    for (std::size_t i = 0; i < f.size(); ++i)
      f.array()[i] = static_cast<float>(std::sin(i / 3.0) * 5.0);
    SzOptions opt;
    opt.eb = ErrorBound::absolute(1e-3);
    const Field out = sz_decompress(sz_compress(f, opt));
    EXPECT_LE(max_abs_error(f.array().span(), out.array().span()),
              test::bound_tolerance(1e-3, f))
        << "ndim " << shape.ndim();
  }
}

TEST(Sz, FieldNamePreservedVerbatim) {
  Field f("weird name \xF0\x9F\x8C\x8A/..\\0", F32Array(Shape{8, 8}));
  for (std::size_t i = 0; i < 64; ++i)
    f.array()[i] = static_cast<float>(i);
  const Field out = sz_decompress(sz_compress(f, SzOptions{}));
  EXPECT_EQ(out.name(), f.name());
}

TEST(SzContainer, CorruptionIsDetected) {
  const Field field = make_field("smooth", Shape{32, 32}, 5);
  auto stream = sz_compress(field, SzOptions{});

  // Flip one byte in the middle.
  auto corrupted = stream;
  corrupted[corrupted.size() / 2] ^= 0xFF;
  EXPECT_THROW(sz_decompress(corrupted), CorruptStream);

  // Truncation.
  auto truncated = stream;
  truncated.resize(truncated.size() - 5);
  EXPECT_THROW(sz_decompress(truncated), CorruptStream);

  // Bad magic.
  auto bad_magic = stream;
  bad_magic[0] = 'Y';
  EXPECT_THROW(sz_decompress(bad_magic), CorruptStream);
}

TEST(SzContainer, FrameParsesOwnOutput) {
  std::vector<std::uint8_t> body{1, 2, 3, 4, 5};
  const auto framed = frame_container(CodecId::kSz, body);
  const auto parsed = parse_container(framed);
  EXPECT_EQ(parsed.codec, CodecId::kSz);
  EXPECT_EQ(std::vector<std::uint8_t>(parsed.body.begin(), parsed.body.end()),
            body);
}

TEST(SzContainer, TrustedParseScopeSkipsOnlyTheCrc) {
  std::vector<std::uint8_t> body{9, 8, 7, 6};
  auto framed = frame_container(CodecId::kSz, body);
  // Corrupt only the CRC word (the last 4 bytes): the frame structure
  // stays valid, so the difference between the two paths is exactly the
  // checksum walk.
  framed[framed.size() - 1] ^= 0xFF;

  EXPECT_FALSE(container_parse_trusted());
  EXPECT_THROW(parse_container(framed), CorruptStream);
  {
    const TrustedParseScope trusted;
    EXPECT_TRUE(container_parse_trusted());
    const auto parsed = parse_container(framed);
    EXPECT_EQ(std::vector<std::uint8_t>(parsed.body.begin(),
                                        parsed.body.end()),
              body);
    {
      const TrustedParseScope nested;  // scopes nest
      EXPECT_TRUE(container_parse_trusted());
    }
    EXPECT_TRUE(container_parse_trusted());

    // Structural violations are still rejected under trust.
    auto bad_magic = framed;
    bad_magic[0] = 'Y';
    EXPECT_THROW(parse_container(bad_magic), CorruptStream);
    auto truncated = framed;
    truncated.resize(truncated.size() - 6);
    EXPECT_THROW(parse_container(truncated), CorruptStream);
  }
  EXPECT_FALSE(container_parse_trusted());
  EXPECT_THROW(parse_container(framed), CorruptStream);
}

TEST(SzContainer, EmptyOrShortStreamRejected) {
  EXPECT_THROW(parse_container({}), CorruptStream);
  std::vector<std::uint8_t> tiny{'X', 'F', 'C', '1'};
  EXPECT_THROW(parse_container(tiny), CorruptStream);
}

TEST(Sz, EmptyFieldRejected) {
  Field empty;
  EXPECT_THROW(sz_compress(empty, SzOptions{}), InvalidArgument);
}

TEST(Sz, RegressionModeWinsOnPiecewisePlanarData) {
  // Piecewise-planar with gradients: regression blocks should engage and
  // not hurt (usually help) vs pure Lorenzo.
  F32Array a(Shape{96, 96});
  for (std::size_t i = 0; i < 96; ++i)
    for (std::size_t j = 0; j < 96; ++j)
      a(i, j) = static_cast<float>((i / 24) * 50 + 0.8 * i + 1.7 * j);
  const Field field("planar", std::move(a));

  SzOptions lorenzo;
  lorenzo.predictor = SzPredictor::kLorenzo1;
  SzOptions mixed;
  mixed.predictor = SzPredictor::kLorenzoRegression;
  SzStats sl, sm;
  sz_compress(field, lorenzo, &sl);
  const auto stream = sz_compress(field, mixed, &sm);

  const Field out = sz_decompress(stream);
  const double abs_eb =
      mixed.eb.absolute_for(field.value_range());
  EXPECT_LE(max_abs_error(field.array().span(), out.array().span()),
            test::bound_tolerance(abs_eb, field));
}

}  // namespace
}  // namespace xfc
