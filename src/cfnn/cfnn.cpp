#include "cfnn/cfnn.hpp"

#include <array>
#include <cmath>
#include <string>

#include "core/error.hpp"
#include "io/bytebuffer.hpp"

namespace xfc {

ChannelNormalizer ChannelNormalizer::fit(const nn::Tensor& t) {
  ChannelNormalizer n;
  n.mean.assign(t.c(), 0.0f);
  n.stddev.assign(t.c(), 1.0f);
  const std::size_t plane = t.h() * t.w();
  const std::size_t count = t.n() * plane;
  if (count == 0) return n;
  for (std::size_t c = 0; c < t.c(); ++c) {
    double sum = 0.0;
    for (std::size_t b = 0; b < t.n(); ++b) {
      const float* p = t.plane(b, c);
      for (std::size_t i = 0; i < plane; ++i) sum += p[i];
    }
    const double mu = sum / static_cast<double>(count);
    double acc = 0.0;
    for (std::size_t b = 0; b < t.n(); ++b) {
      const float* p = t.plane(b, c);
      for (std::size_t i = 0; i < plane; ++i) {
        const double d = p[i] - mu;
        acc += d * d;
      }
    }
    const double sd = std::sqrt(acc / static_cast<double>(count));
    n.mean[c] = static_cast<float>(mu);
    n.stddev[c] = static_cast<float>(sd > 1e-20 ? sd : 1.0);
  }
  return n;
}

void ChannelNormalizer::apply(nn::Tensor& t) const {
  expects(t.c() == mean.size(), "ChannelNormalizer::apply: channel mismatch");
  const std::size_t plane = t.h() * t.w();
  for (std::size_t b = 0; b < t.n(); ++b)
    for (std::size_t c = 0; c < t.c(); ++c) {
      float* p = t.plane(b, c);
      const float mu = mean[c];
      const float inv = 1.0f / stddev[c];
      for (std::size_t i = 0; i < plane; ++i) p[i] = (p[i] - mu) * inv;
    }
}

void ChannelNormalizer::invert(nn::Tensor& t) const {
  expects(t.c() == mean.size(), "ChannelNormalizer::invert: channel mismatch");
  const std::size_t plane = t.h() * t.w();
  for (std::size_t b = 0; b < t.n(); ++b)
    for (std::size_t c = 0; c < t.c(); ++c) {
      float* p = t.plane(b, c);
      const float mu = mean[c];
      const float sd = stddev[c];
      for (std::size_t i = 0; i < plane; ++i) p[i] = p[i] * sd + mu;
    }
}

namespace {

// Weight tensors of the parameter bag, in registration order: the order
// Xavier draws from the seed RNG (weights only; biases start at zero), the
// graph's param order, and the order the frozen layout stores them. Every
// conv weight is followed by its bias.
enum : std::size_t {
  kConv0 = 0,       // c0.w, c0.b: k x k conv, in -> hidden
  kDepthwise = 2,   // dw.w, dw.b: k x k conv, groups = hidden
  kPointwise = 4,   // pw.w, pw.b: 1 x 1 conv, hidden -> hidden
  kAttention = 6,   // att.w1, att.b1, att.w2, att.b2: shared attention MLP
  kOutConv = 10,    // out.w, out.b: k x k conv, hidden -> out
};

// Frozen layout: the geometry header, the four normaliser vectors, then the
// network as a seven-layer stack, each layer a kind string followed by its
// hyperparameters and tensors:
//   "conv2d" in out k groups has_bias=1 weight bias
//   "relu"
//   "channel_attention" channels reduction w1 b1 w2 b2
// Compressed streams embed these bytes (pinned by test_golden).
constexpr std::uint64_t kLayerCount = 7;

// Format caps, checked before anything is allocated.
constexpr std::size_t kMaxIoChannels = 4096;
constexpr std::size_t kMaxHidden = std::size_t{1} << 20;
constexpr double kMaxConvWeights = static_cast<double>(std::size_t{1} << 28);

/// One convolution as the frozen layout records it ("same" padding,
/// stride 1, always with bias).
struct ConvLayer {
  std::size_t in, out, k, groups, weight;  // weight: bag index
  std::size_t weight_count() const { return out * (in / groups) * k * k; }
};

/// The Fig. 4 convolutions, in network order.
std::array<ConvLayer, 4> conv_layers(std::size_t in, std::size_t out,
                                     const CfnnConfig& c) {
  const std::size_t h = c.hidden_channels, k = c.kernel;
  return {{{in, h, k, 1, kConv0},
           {h, h, k, h, kDepthwise},
           {h, h, 1, 1, kPointwise},
           {h, out, k, 1, kOutConv}}};
}

/// Why (in, out, config) is not a model the format can hold, or null.
const char* geometry_error(std::size_t in, std::size_t out,
                           const CfnnConfig& c) {
  if (in == 0 || out == 0 || in > kMaxIoChannels || out > kMaxIoChannels)
    return "CfnnModel: bad channel counts";
  if (c.hidden_channels == 0 || c.hidden_channels > kMaxHidden ||
      c.attention_reduction == 0 ||
      c.hidden_channels % c.attention_reduction != 0)
    return "CfnnModel: attention reduction must divide hidden channels";
  if (c.kernel % 2 != 1) return "CfnnModel: kernel must be odd";
  // In double so a hostile kernel cannot wrap the product under the cap.
  for (const ConvLayer& l : conv_layers(in, out, c))
    if (static_cast<double>(l.out) * static_cast<double>(l.in / l.groups) *
            static_cast<double>(l.k) * static_cast<double>(l.k) >
        kMaxConvWeights)
      return "CfnnModel: absurd weight count";
  return nullptr;
}

}  // namespace

CfnnModel::CfnnModel(std::size_t in_channels, std::size_t out_channels,
                     const CfnnConfig& config, std::uint64_t seed)
    : in_channels_(in_channels), out_channels_(out_channels), config_(config) {
  if (const char* err = geometry_error(in_channels, out_channels, config))
    throw InvalidArgument(err);
  Rng rng(seed);
  const auto add_conv = [&](const ConvLayer& l) {
    const std::size_t k2 = l.k * l.k;
    weights_.add_xavier(l.weight_count(), (l.in / l.groups) * k2,
                        (l.out / l.groups) * k2, rng);
    weights_.add(l.out);
  };
  const std::size_t h = config.hidden_channels;
  const std::size_t mid = h / config.attention_reduction;
  const auto convs = conv_layers(in_channels, out_channels, config);
  add_conv(convs[0]);
  add_conv(convs[1]);
  add_conv(convs[2]);
  weights_.add_xavier(mid * h, h, mid, rng);
  weights_.add(mid);
  weights_.add_xavier(h * mid, mid, h, rng);
  weights_.add(h);
  add_conv(convs[3]);

  input_norm_.mean.assign(in_channels_, 0.0f);
  input_norm_.stddev.assign(in_channels_, 1.0f);
  output_norm_.mean.assign(out_channels_, 0.0f);
  output_norm_.stddev.assign(out_channels_, 1.0f);
}

nn::NodeRef CfnnModel::append(nn::Graph& g, nn::NodeRef x) {
  const auto param = [&](std::size_t i, nn::GShape shape) {
    return g.param(weights_.values(i), shape);
  };
  const auto conv = [&](nn::NodeRef in, const ConvLayer& l) {
    const nn::NodeRef w = param(l.weight, {l.out, l.in / l.groups, l.k, l.k});
    const nn::NodeRef b = param(l.weight + 1, {1, l.out, 1, 1});
    return g.conv2d(in, w, l.out, l.k, l.groups, b);
  };
  const std::size_t h = config_.hidden_channels;
  const std::size_t mid = h / config_.attention_reduction;
  const auto convs = conv_layers(in_channels_, out_channels_, config_);
  nn::NodeRef y = g.relu(conv(x, convs[0]));
  y = g.relu(conv(conv(y, convs[1]), convs[2]));  // depthwise separable
  const nn::NodeRef w1 = param(kAttention, {mid, h, 1, 1});
  const nn::NodeRef b1 = param(kAttention + 1, {1, mid, 1, 1});
  const nn::NodeRef w2 = param(kAttention + 2, {h, mid, 1, 1});
  const nn::NodeRef b2 = param(kAttention + 3, {1, h, 1, 1});
  y = g.channel_attention(y, w1, b1, w2, b2, config_.attention_reduction);
  return conv(y, convs[3]);
}

std::size_t CfnnModel::byte_size() const { return save_bytes().size(); }

std::vector<std::uint8_t> CfnnModel::save_bytes() const {
  ByteWriter out;
  out.varint(in_channels_);
  out.varint(out_channels_);
  out.varint(config_.hidden_channels);
  out.varint(config_.attention_reduction);
  out.varint(config_.kernel);
  for (float v : input_norm_.mean) out.f32(v);
  for (float v : input_norm_.stddev) out.f32(v);
  for (float v : output_norm_.mean) out.f32(v);
  for (float v : output_norm_.stddev) out.f32(v);

  const auto put_tensor = [&](std::size_t i) {
    for (float v : weights_.values(i)) out.f32(v);
  };
  const auto put_conv = [&](const ConvLayer& l) {
    out.str("conv2d");
    out.varint(l.in);
    out.varint(l.out);
    out.varint(l.k);
    out.varint(l.groups);
    out.u8(1);
    put_tensor(l.weight);
    put_tensor(l.weight + 1);
  };
  const auto convs = conv_layers(in_channels_, out_channels_, config_);
  out.varint(kLayerCount);
  put_conv(convs[0]);
  out.str("relu");
  put_conv(convs[1]);
  put_conv(convs[2]);
  out.str("relu");
  out.str("channel_attention");
  out.varint(config_.hidden_channels);
  out.varint(config_.attention_reduction);
  for (std::size_t i = kAttention; i < kAttention + 4; ++i) put_tensor(i);
  put_conv(convs[3]);
  return out.take();
}

CfnnModel CfnnModel::load_bytes(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  CfnnModel m;
  m.in_channels_ = in.varint();
  m.out_channels_ = in.varint();
  m.config_.hidden_channels = in.varint();
  m.config_.attention_reduction = in.varint();
  m.config_.kernel = in.varint();
  if (const char* err =
          geometry_error(m.in_channels_, m.out_channels_, m.config_))
    throw CorruptStream(err);

  // Every tensor is checked against the bytes left before it is allocated,
  // so a hostile header cannot demand more memory than the blob holds.
  const auto read_vec = [&](std::vector<float>& v, std::size_t n) {
    if (n > in.remaining() / sizeof(float))
      throw CorruptStream("CfnnModel: truncated model");
    v.resize(n);
    for (float& x : v) x = in.f32();
  };
  read_vec(m.input_norm_.mean, m.in_channels_);
  read_vec(m.input_norm_.stddev, m.in_channels_);
  read_vec(m.output_norm_.mean, m.out_channels_);
  read_vec(m.output_norm_.stddev, m.out_channels_);

  const auto expect_kind = [&](const char* kind) {
    if (in.str() != kind)
      throw CorruptStream(std::string("CfnnModel: expected a '") + kind +
                          "' layer");
  };
  const auto expect_dim = [&](std::uint64_t want) {
    if (in.varint() != want)
      throw CorruptStream(
          "CfnnModel: layer hyperparameters disagree with the header");
  };
  const auto get_tensor = [&](std::size_t n) {
    read_vec(m.weights_.add(0), n);
  };
  const auto get_conv = [&](const ConvLayer& l) {
    expect_kind("conv2d");
    expect_dim(l.in);
    expect_dim(l.out);
    expect_dim(l.k);
    expect_dim(l.groups);
    if (in.u8() != 1) throw CorruptStream("CfnnModel: conv without bias");
    get_tensor(l.weight_count());
    get_tensor(l.out);
  };
  const std::size_t h = m.config_.hidden_channels;
  const std::size_t mid = h / m.config_.attention_reduction;
  const auto convs = conv_layers(m.in_channels_, m.out_channels_, m.config_);
  if (in.varint() != kLayerCount)
    throw CorruptStream("CfnnModel: layer count does not match the network");
  get_conv(convs[0]);
  expect_kind("relu");
  get_conv(convs[1]);
  get_conv(convs[2]);
  expect_kind("relu");
  expect_kind("channel_attention");
  expect_dim(h);
  expect_dim(m.config_.attention_reduction);
  get_tensor(mid * h);
  get_tensor(mid);
  get_tensor(h * mid);
  get_tensor(h);
  get_conv(convs[3]);
  if (!in.exhausted())
    throw CorruptStream("CfnnModel: trailing bytes after the last layer");
  return m;
}

nn::Tensor CfnnModel::infer(const nn::Tensor& anchor_diffs) const {
  expects(anchor_diffs.c() == in_channels_,
          "CfnnModel::infer: input channel mismatch");
  const std::size_t H = anchor_diffs.h(), W = anchor_diffs.w();
  nn::Tensor out(anchor_diffs.n(), out_channels_, H, W);

  // Slice-by-slice keeps peak memory bounded on large 3D volumes. The
  // inference graph is built once per call against the shared (read-only)
  // weight vectors, its buffers come from this thread's arena, and the
  // staging slices are reused across iterations — so a volume pays one
  // graph construction and the slice loop itself allocates nothing, and
  // any number of threads may infer against one model concurrently. The
  // op kernels replay the legacy float arithmetic exactly (graph.hpp
  // contract 1), which encoder/decoder bit-agreement depends on.
  const std::size_t plane = H * W;
  nn::Tensor x(1, in_channels_, H, W);
  nn::Tensor y(1, out_channels_, H, W);

  nn::Graph g(nn::Graph::Mode::kInfer);
  const nn::NodeRef in = g.input({1, in_channels_, H, W});
  // An infer-mode graph only reads the weights it captures, so building
  // it from this const model is safe, also from many threads at once.
  const nn::NodeRef root = const_cast<CfnnModel*>(this)->append(g, in);
  nn::GraphExec exec(g, nn::tls_workspace());
  exec.bind(in, x.data());

  for (std::size_t s = 0; s < anchor_diffs.n(); ++s) {
    for (std::size_t c = 0; c < in_channels_; ++c)
      std::copy(anchor_diffs.plane(s, c), anchor_diffs.plane(s, c) + plane,
                x.plane(0, c));
    input_norm_.apply(x);
    exec.forward();
    const float* pred = exec.value(root);
    std::copy(pred, pred + y.size(), y.data());
    output_norm_.invert(y);
    for (std::size_t c = 0; c < out_channels_; ++c)
      std::copy(y.plane(0, c), y.plane(0, c) + plane, out.plane(s, c));
  }
  return out;
}

}  // namespace xfc
