// Tests for the CFNN module: difference transforms, normalisation, model
// construction (Table III parameter counts), training, inference.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "cfnn/cfnn.hpp"
#include "cfnn/difference.hpp"
#include "cfnn/trainer.hpp"
#include "core/rng.hpp"
#include "io/bytebuffer.hpp"

namespace xfc {
namespace {

TEST(BackwardDifference, Axis0And1Of2D) {
  F32Array a(Shape{3, 3}, {1, 2, 4, 7, 11, 16, 22, 29, 37});
  const auto d0 = backward_difference(a, 0);
  const auto d1 = backward_difference(a, 1);
  // First row/column are zero by convention.
  for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(d0(0, j), 0.0f);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(d1(i, 0), 0.0f);
  EXPECT_EQ(d0(1, 0), 7.0f - 1.0f);
  EXPECT_EQ(d0(2, 2), 37.0f - 16.0f);
  EXPECT_EQ(d1(0, 1), 2.0f - 1.0f);
  EXPECT_EQ(d1(2, 2), 37.0f - 29.0f);
}

TEST(BackwardDifference, ThreeAxesOf3D) {
  F32Array a(Shape{2, 2, 2});
  for (std::size_t i = 0; i < 8; ++i) a[i] = static_cast<float>(i * i);
  const auto d0 = backward_difference(a, 0);
  const auto d1 = backward_difference(a, 1);
  const auto d2 = backward_difference(a, 2);
  EXPECT_EQ(d0(1, 1, 1), a(1, 1, 1) - a(0, 1, 1));
  EXPECT_EQ(d1(1, 1, 1), a(1, 1, 1) - a(1, 0, 1));
  EXPECT_EQ(d2(1, 1, 1), a(1, 1, 1) - a(1, 1, 0));
  EXPECT_EQ(d0(0, 1, 1), 0.0f);
}

TEST(BackwardDifference, InvertibleByPrefixSum) {
  Rng rng(1);
  F32Array a(Shape{16});
  for (auto& v : a.vec()) v = static_cast<float>(rng.uniform(-5, 5));
  const auto d = backward_difference(a, 0);
  float acc = a(0);
  for (std::size_t i = 1; i < 16; ++i) {
    acc += d(i);
    EXPECT_NEAR(acc, a(i), 1e-4);
  }
}

TEST(SliceGeometry, TwoAndThreeD) {
  const auto g2 = slice_geometry(Shape{10, 20});
  EXPECT_EQ(g2.slices, 1u);
  EXPECT_EQ(g2.height, 10u);
  EXPECT_EQ(g2.width, 20u);
  const auto g3 = slice_geometry(Shape{5, 10, 20});
  EXPECT_EQ(g3.slices, 5u);
  EXPECT_THROW(slice_geometry(Shape{7}), InvalidArgument);
}

TEST(DifferenceTensor, ChannelLayoutFieldMajorThenAxis) {
  F32Array a(Shape{4, 4}), b(Shape{4, 4});
  for (std::size_t i = 0; i < 16; ++i) {
    a[i] = static_cast<float>(i);
    b[i] = static_cast<float>(2 * i);
  }
  Field fa("A", std::move(a)), fb("B", std::move(b));
  const auto t = fields_to_difference_tensor({&fa, &fb});
  EXPECT_EQ(t.n(), 1u);
  EXPECT_EQ(t.c(), 4u);  // 2 fields x 2 axes
  EXPECT_EQ(t.h(), 4u);
  EXPECT_EQ(t.w(), 4u);
  // Channel 0: A's axis-0 diff = 4 in the interior; channel 3: B's axis-1
  // diff = 2.
  EXPECT_EQ(t(0, 0, 2, 1), 4.0f);
  EXPECT_EQ(t(0, 3, 2, 2), 2.0f);
}

TEST(DifferenceTensor, MismatchedShapesRejected) {
  Field a("A", F32Array(Shape{4, 4}));
  Field b("B", F32Array(Shape{4, 5}));
  EXPECT_THROW(fields_to_difference_tensor({&a, &b}), InvalidArgument);
}

TEST(DifferenceTensor, AxisArraysRoundtrip) {
  Rng rng(2);
  Field f("F", F32Array(Shape{3, 8, 8}));
  for (auto& v : f.array().vec()) v = static_cast<float>(rng.normal());
  const auto t = fields_to_difference_tensor({&f});
  const auto axes = tensor_to_axis_arrays(t, f.shape());
  ASSERT_EQ(axes.size(), 3u);
  const auto d1 = backward_difference(f.array(), 1);
  EXPECT_EQ(axes[1].vec(), d1.vec());
}

TEST(Normalizer, FitApplyInvertRoundtrip) {
  Rng rng(3);
  nn::Tensor t(2, 3, 8, 8);
  for (auto& v : t.vec()) v = static_cast<float>(rng.normal(5.0, 3.0));
  const auto norm = ChannelNormalizer::fit(t);

  nn::Tensor u = t;
  norm.apply(u);
  // Normalised stats: mean ~0, std ~1 per channel.
  const auto check = ChannelNormalizer::fit(u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(check.mean[c], 0.0f, 1e-3);
    EXPECT_NEAR(check.stddev[c], 1.0f, 1e-3);
  }
  norm.invert(u);
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_NEAR(u.vec()[i], t.vec()[i], 1e-3);
}

TEST(Normalizer, ConstantChannelIsSafe) {
  nn::Tensor t(1, 1, 4, 4);
  for (auto& v : t.vec()) v = 7.0f;
  const auto norm = ChannelNormalizer::fit(t);
  EXPECT_EQ(norm.stddev[0], 1.0f);  // clamped
  nn::Tensor u = t;
  norm.apply(u);
  for (auto v : u.vec()) EXPECT_EQ(v, 0.0f);
}

TEST(CfnnModel, PaperScaleParameterCounts) {
  // Paper Table III: ~32871 (3D, 3 anchors), 5270 / 4470 / 6070 (CESM).
  // Our widths land within a few percent (documented in DESIGN.md).
  const CfnnModel m3d(9, 3, CfnnConfig{120, 8, 3}, 1);
  EXPECT_NEAR(static_cast<double>(m3d.param_count()), 32871.0, 2500.0);

  const CfnnModel cldtot(6, 2, CfnnConfig{40, 10, 3}, 1);
  EXPECT_NEAR(static_cast<double>(cldtot.param_count()), 5270.0, 400.0);

  const CfnnModel lwcf(4, 2, CfnnConfig{40, 10, 3}, 1);
  EXPECT_NEAR(static_cast<double>(lwcf.param_count()), 4470.0, 400.0);

  const CfnnModel flut(8, 2, CfnnConfig{40, 10, 3}, 1);
  EXPECT_NEAR(static_cast<double>(flut.param_count()), 6070.0, 400.0);
}

TEST(CfnnModel, SaveLoadBitExactInference) {
  Rng rng(4);
  CfnnModel model(4, 2, CfnnConfig{16, 4, 3}, 99);
  nn::Tensor x(2, 4, 12, 12);
  for (auto& v : x.vec()) v = static_cast<float>(rng.normal());

  const auto y1 = model.infer(x);
  const auto bytes = model.save_bytes();
  const CfnnModel restored = CfnnModel::load_bytes(bytes);
  EXPECT_EQ(restored.param_count(), model.param_count());
  EXPECT_EQ(restored.save_bytes(), bytes);
  const auto y2 = restored.infer(x);
  ASSERT_EQ(y1.size(), y2.size());
  for (std::size_t i = 0; i < y1.size(); ++i)
    EXPECT_EQ(y1.vec()[i], y2.vec()[i]);
}

TEST(CfnnModel, InferenceShapes) {
  CfnnModel model(6, 3, CfnnConfig{8, 4, 3}, 5);
  nn::Tensor x(4, 6, 10, 14);
  const auto y = model.infer(x);
  EXPECT_EQ(y.n(), 4u);
  EXPECT_EQ(y.c(), 3u);
  EXPECT_EQ(y.h(), 10u);
  EXPECT_EQ(y.w(), 14u);
}

TEST(CfnnModel, RejectsBadGeometry) {
  EXPECT_THROW(CfnnModel(0, 2, CfnnConfig{8, 4, 3}, 1), InvalidArgument);
  EXPECT_THROW(CfnnModel(4, 2, CfnnConfig{9, 4, 3}, 1), InvalidArgument);
  EXPECT_THROW(CfnnModel(4, 2, CfnnConfig{8, 0, 3}, 1), InvalidArgument);
  EXPECT_THROW(CfnnModel(4, 2, CfnnConfig{8, 4, 2}, 1), InvalidArgument);
  // Past the format's channel cap: load_bytes would refuse the bytes.
  EXPECT_THROW(CfnnModel(5000, 2, CfnnConfig{8, 4, 3}, 1), InvalidArgument);
  CfnnModel ok(4, 2, CfnnConfig{8, 4, 3}, 1);
  nn::Tensor wrong(1, 5, 8, 8);
  EXPECT_THROW(ok.infer(wrong), InvalidArgument);
}

// -- Hostile model bytes -------------------------------------------------
//
// Each blob below is what a cross-field stream with a valid CRC could
// carry. load_bytes must refuse every one with CorruptStream, so a layer
// stack that disagrees with the header never reaches infer, which sizes
// its buffers from the header.

/// Writes the model header for (in, out, c) with identity normalisers,
/// then whatever `layers` appends.
std::vector<std::uint8_t> model_bytes(
    std::size_t in, std::size_t out, const CfnnConfig& c,
    const std::function<void(ByteWriter&)>& layers) {
  ByteWriter w;
  w.varint(in);
  w.varint(out);
  w.varint(c.hidden_channels);
  w.varint(c.attention_reduction);
  w.varint(c.kernel);
  for (std::size_t n : {in, out}) {
    for (std::size_t i = 0; i < n; ++i) w.f32(0.0f);  // mean
    for (std::size_t i = 0; i < n; ++i) w.f32(1.0f);  // stddev
  }
  layers(w);
  return w.take();
}

void put_conv(ByteWriter& w, std::size_t in, std::size_t out, std::size_t k,
              std::size_t groups) {
  w.str("conv2d");
  w.varint(in);
  w.varint(out);
  w.varint(k);
  w.varint(groups);
  w.u8(1);
  for (std::size_t i = 0; i < out * (in / groups) * k * k; ++i)
    w.f32(0.01f);
  for (std::size_t i = 0; i < out; ++i) w.f32(0.0f);
}

/// The CFNN's seven layers for config `c`, the first conv reading
/// `first_in` channels and the last writing `last_out`. Each layer is
/// self-consistent, so only a check against the header catches channel
/// counts the header does not claim.
void put_cfnn_layers(ByteWriter& w, std::size_t first_in,
                     std::size_t last_out, const CfnnConfig& c) {
  const std::size_t h = c.hidden_channels, k = c.kernel;
  const std::size_t mid = h / c.attention_reduction;
  w.varint(7);
  put_conv(w, first_in, h, k, 1);
  w.str("relu");
  put_conv(w, h, h, k, h);
  put_conv(w, h, h, 1, 1);
  w.str("relu");
  w.str("channel_attention");
  w.varint(h);
  w.varint(c.attention_reduction);
  for (std::size_t i = 0; i < 2 * mid * h + mid + h; ++i) w.f32(0.01f);
  put_conv(w, h, last_out, k, 1);
}

const CfnnConfig kSmall{8, 4, 3};

std::vector<std::uint8_t> valid_bytes() {
  return model_bytes(2, 3, kSmall, [](ByteWriter& w) {
    put_cfnn_layers(w, 2, 3, kSmall);
  });
}

TEST(CfnnModelBytes, HandWrittenLayoutLoads) {
  // Control for the cases below: the hand-written layout is the one
  // save_bytes writes, byte for byte.
  const auto bytes = valid_bytes();
  const CfnnModel m = CfnnModel::load_bytes(bytes);
  EXPECT_EQ(m.in_channels(), 2u);
  EXPECT_EQ(m.out_channels(), 3u);
  EXPECT_EQ(m.save_bytes(), bytes);
  EXPECT_EQ(m.save_bytes().size(),
            CfnnModel(2, 3, kSmall, 1).save_bytes().size());
}

TEST(CfnnModelBytes, RejectsEmptyLayerStack) {
  const auto bytes =
      model_bytes(2, 3, kSmall, [](ByteWriter& w) { w.varint(0); });
  EXPECT_THROW(CfnnModel::load_bytes(bytes), CorruptStream);
}

TEST(CfnnModelBytes, RejectsFirstConvInChannelMismatch) {
  const auto bytes = model_bytes(2, 3, kSmall, [](ByteWriter& w) {
    put_cfnn_layers(w, 3, 3, kSmall);
  });
  EXPECT_THROW(CfnnModel::load_bytes(bytes), CorruptStream);
}

TEST(CfnnModelBytes, RejectsFinalConvOutChannelMismatch) {
  const auto bytes = model_bytes(2, 3, kSmall, [](ByteWriter& w) {
    put_cfnn_layers(w, 2, 2, kSmall);
  });
  EXPECT_THROW(CfnnModel::load_bytes(bytes), CorruptStream);
}

TEST(CfnnModelBytes, UnknownLayerKindThrows) {
  const auto bytes = model_bytes(2, 3, kSmall, [](ByteWriter& w) {
    w.varint(7);
    w.str("warp_drive");
  });
  EXPECT_THROW(CfnnModel::load_bytes(bytes), CorruptStream);
}

TEST(CfnnModelBytes, RejectsExtraLayer) {
  auto bytes = model_bytes(2, 3, kSmall, [](ByteWriter& w) {
    put_cfnn_layers(w, 2, 3, kSmall);
    w.str("relu");
  });
  const std::size_t count_at = 5 + 4 * (2 * 2 + 2 * 3);
  ASSERT_EQ(bytes[count_at], 7);
  bytes[count_at] = 8;
  EXPECT_THROW(CfnnModel::load_bytes(bytes), CorruptStream);
}

TEST(CfnnModelBytes, TruncatedModelThrows) {
  auto bytes = valid_bytes();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(CfnnModel::load_bytes(bytes), CorruptStream);
  bytes.resize(3);  // inside the header
  EXPECT_THROW(CfnnModel::load_bytes(bytes), CorruptStream);
}

TEST(CfnnModelBytes, RejectsTrailingBytes) {
  auto bytes = valid_bytes();
  bytes.push_back(0);
  EXPECT_THROW(CfnnModel::load_bytes(bytes), CorruptStream);
}

TEST(CfnnModelBytes, RejectsHeaderConfigTheLayersContradict) {
  // A well-formed stack for {8, 4, 3} behind a header claiming another
  // reduction or kernel, or one no model can have.
  for (const CfnnConfig header : {CfnnConfig{8, 2, 3}, CfnnConfig{8, 0, 3},
                                  CfnnConfig{8, 4, 5}}) {
    const auto bytes = model_bytes(2, 3, header, [](ByteWriter& w) {
      put_cfnn_layers(w, 2, 3, kSmall);
    });
    EXPECT_THROW(CfnnModel::load_bytes(bytes), CorruptStream)
        << header.attention_reduction << " " << header.kernel;
  }
  // Past the format caps (hidden width; a kernel whose weight count
  // overflows 64 bits): refused from the header alone.
  for (const CfnnConfig header :
       {CfnnConfig{1u << 30, 1, 3}, CfnnConfig{8, 4, (1ull << 33) + 1}}) {
    const auto bytes = model_bytes(2, 3, header, [](ByteWriter&) {});
    EXPECT_THROW(CfnnModel::load_bytes(bytes), CorruptStream);
  }
}

TEST(CfnnTraining, LossDecreasesOnLearnableRelation) {
  // Target differences are a fixed local function of anchor differences:
  // exactly what a small CNN can learn.
  Rng rng(6);
  const Shape shape{48, 48};
  Field anchor("A", F32Array(shape));
  for (std::size_t i = 0; i < 48; ++i)
    for (std::size_t j = 0; j < 48; ++j)
      anchor.array()(i, j) = static_cast<float>(
          20.0 * std::sin(i / 5.0) * std::cos(j / 7.0) + rng.normal(0, 0.1));
  Field target("T", F32Array(shape));
  for (std::size_t i = 0; i < 48; ++i)
    for (std::size_t j = 0; j < 48; ++j)
      target.array()(i, j) = 0.6f * anchor.array()(i, j) + 3.0f;

  const auto inputs = fields_to_difference_tensor({&anchor});
  const auto targets = fields_to_difference_tensor({&target});

  CfnnModel model(2, 2, CfnnConfig{8, 4, 3}, 7);
  CfnnTrainOptions opt;
  opt.epochs = 12;
  opt.patches_per_epoch = 32;
  opt.patch = 16;
  opt.batch = 8;
  const auto losses = train_cfnn(model, inputs, targets, opt);
  ASSERT_EQ(losses.size(), 12u);
  EXPECT_LT(losses.back(), losses.front() * 0.8);
}

TEST(CfnnTraining, EvalLossesTrackFixedSet) {
  Rng rng(9);
  const Shape shape{40, 40};
  Field anchor("A", F32Array(shape));
  for (std::size_t i = 0; i < shape.size(); ++i)
    anchor.array()[i] = static_cast<float>(
        std::sin(static_cast<double>(i % 40) / 4.0) * 10.0);
  Field target("T", F32Array(shape));
  for (std::size_t i = 0; i < shape.size(); ++i)
    target.array()[i] = 0.7f * anchor.array()[i];

  const auto inputs = fields_to_difference_tensor({&anchor});
  const auto targets = fields_to_difference_tensor({&target});
  CfnnModel model(2, 2, CfnnConfig{8, 4, 3}, 10);
  CfnnTrainOptions opt;
  opt.epochs = 8;
  opt.patches_per_epoch = 24;
  opt.patch = 16;
  opt.batch = 8;
  opt.eval_patches = 16;
  std::vector<double> eval_losses;
  const auto train_losses = train_cfnn(model, inputs, targets, opt,
                                       &eval_losses);
  ASSERT_EQ(eval_losses.size(), opt.epochs);
  ASSERT_EQ(train_losses.size(), opt.epochs);
  // A perfectly learnable linear relation: eval loss must drop clearly.
  EXPECT_LT(eval_losses.back(), eval_losses.front() * 0.7);
}

TEST(CfnnTraining, RejectsMismatchedTensors) {
  CfnnModel model(2, 2, CfnnConfig{8, 4, 3}, 8);
  nn::Tensor in(1, 2, 16, 16), tgt(1, 2, 16, 8);
  EXPECT_THROW(train_cfnn(model, in, tgt, CfnnTrainOptions{}),
               InvalidArgument);
}

}  // namespace
}  // namespace xfc
