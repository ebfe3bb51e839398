// Unit tests for error bounds and dual quantization.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "quant/dual_quant.hpp"
#include "quant/error_bound.hpp"
#include "test_util.hpp"

namespace xfc {
namespace {

TEST(ErrorBound, AbsoluteModePassesThrough) {
  const auto eb = ErrorBound::absolute(0.5);
  EXPECT_DOUBLE_EQ(eb.absolute_for(100.0), 0.5);
  EXPECT_DOUBLE_EQ(eb.absolute_for(0.0), 0.5);
}

TEST(ErrorBound, RelativeModeScalesWithRange) {
  const auto eb = ErrorBound::relative(1e-3);
  EXPECT_DOUBLE_EQ(eb.absolute_for(200.0), 0.2);
}

TEST(ErrorBound, RelativeModeOnConstantFieldStaysPositive) {
  const auto eb = ErrorBound::relative(1e-3);
  EXPECT_GT(eb.absolute_for(0.0), 0.0);
}

TEST(ErrorBound, RejectsNonPositiveBound) {
  EXPECT_THROW(ErrorBound::absolute(0.0), InvalidArgument);
  EXPECT_THROW(ErrorBound::relative(-1e-3), InvalidArgument);
}

TEST(ErrorBound, RejectsNonFiniteBoundsAndRanges) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ErrorBound::absolute(inf), InvalidArgument);
  EXPECT_THROW(ErrorBound::relative(inf), InvalidArgument);
  // A field holding Inf has a non-finite range; only a relative bound
  // depends on it.
  EXPECT_THROW(ErrorBound::relative(1e-3).absolute_for(inf), InvalidArgument);
  EXPECT_DOUBLE_EQ(ErrorBound::absolute(0.5).absolute_for(inf), 0.5);
  // A finite range whose relative bound overflows double.
  EXPECT_THROW(ErrorBound::relative(1e300).absolute_for(1e300),
               InvalidArgument);
}

class PrequantBoundTest : public ::testing::TestWithParam<double> {};

TEST_P(PrequantBoundTest, ReconstructionWithinBound) {
  const double eb = GetParam();
  Rng rng(static_cast<std::uint64_t>(1.0 / eb));
  F32Array values(Shape{64, 64});
  for (auto& v : values.vec())
    v = static_cast<float>(rng.normal(5.0, 40.0));

  const I32Array codes = prequantize(values, eb);
  const F32Array recon = dequantize(codes, eb, values.shape());
  const Field as_field("tmp", values);
  const double tol = test::bound_tolerance(eb, as_field);
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_LE(std::abs(static_cast<double>(values[i]) - recon[i]), tol)
        << "at index " << i;
}

INSTANTIATE_TEST_SUITE_P(Bounds, PrequantBoundTest,
                         ::testing::Values(1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0));

TEST(Prequant, CodesAreNearestMultiples) {
  F32Array v(Shape{4}, {0.0f, 0.9f, 1.1f, -3.05f});
  const double eb = 0.5;  // step 1.0
  const I32Array codes = prequantize(v, eb);
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 1);
  EXPECT_EQ(codes[2], 1);
  EXPECT_EQ(codes[3], -3);
}

TEST(Prequant, OverflowThrows) {
  F32Array v(Shape{2}, {1e30f, 0.0f});
  EXPECT_THROW(prequantize(v, 1e-6), InvalidArgument);
}

TEST(Prequant, BoundaryCodeAccepted) {
  // |q| == kMaxQuantCode is a valid code (the documented 2^30 bound is
  // inclusive); one step beyond still throws.
  const float big = 1073741824.0f;  // 2^30, exactly representable
  F32Array v(Shape{2}, {big, -big});
  const I32Array codes = prequantize(v, 0.5);  // step 1.0
  EXPECT_EQ(codes[0], static_cast<std::int32_t>(kMaxQuantCode));
  EXPECT_EQ(codes[1], static_cast<std::int32_t>(-kMaxQuantCode));

  F32Array over(Shape{1}, {1.5f * big});
  EXPECT_THROW(prequantize(over, 0.5), InvalidArgument);
}

TEST(Prequant, RejectsNonPositiveBound) {
  F32Array v(Shape{2}, {1.0f, 2.0f});
  EXPECT_THROW(prequantize(v, 0.0), InvalidArgument);
  EXPECT_THROW(prequantize(v, -1.0), InvalidArgument);
}

TEST(Dequant, ShapeMismatchThrows) {
  I32Array codes(Shape{8});
  EXPECT_THROW(dequantize(codes, 0.1, Shape{4}), InvalidArgument);
}

TEST(DualQuant, IdempotentOnReconstruction) {
  // Prequantizing an already-reconstructed array must reproduce the codes
  // (the property that makes encoder-side reconstruction exact).
  Rng rng(77);
  F32Array values(Shape{1000});
  for (auto& v : values.vec())
    v = static_cast<float>(rng.uniform(-1000.0, 1000.0));
  const double eb = 0.01;
  const I32Array codes = prequantize(values, eb);
  const F32Array recon = dequantize(codes, eb, values.shape());
  const I32Array codes2 = prequantize(recon, eb);
  EXPECT_EQ(codes.vec(), codes2.vec());
}

}  // namespace
}  // namespace xfc
