#ifndef XFC_CFNN_CFNN_HPP
#define XFC_CFNN_CFNN_HPP

/// \file cfnn.hpp
/// The Cross-Field Neural Network (paper §III-D.2, Fig. 4):
///
///   initial 3x3 conv -> ReLU
///     -> depthwise 3x3 conv -> pointwise 1x1 conv -> ReLU   (separable)
///     -> channel attention (CBAM)
///     -> final 3x3 conv
///
/// Input: normalised first-order backward differences of the anchor fields
/// (one channel per anchor x axis). Output: predicted backward differences
/// of the target field (one channel per axis).
///
/// Normalisation statistics are part of the model: the CFNN is trained on
/// normalised *original* values, so one model serves every error bound
/// (paper §III-D.2) — the stream embeds model + statistics.
///
/// The network is fixed: its weights live in an nn::Model parameter bag,
/// append() is the one graph definition (inference, training and benches
/// all build from it), and save_bytes/load_bytes write and check the
/// frozen byte layout directly.

#include <cstdint>
#include <span>
#include <vector>

#include "core/field.hpp"
#include "core/rng.hpp"
#include "nn/autodiff.hpp"
#include "nn/graph.hpp"
#include "nn/tensor.hpp"

namespace xfc {

/// Architecture hyperparameters. Defaults approximate the paper's Table III
/// model sizes (~33k parameters for 3-anchor 3D fields at 96 hidden
/// channels; a few thousand for the CESM 2D fields at smaller widths).
struct CfnnConfig {
  std::size_t hidden_channels = 96;
  std::size_t attention_reduction = 8;
  std::size_t kernel = 3;
};

/// Per-channel affine normaliser ((v - mean) / std), stored with the model.
struct ChannelNormalizer {
  std::vector<float> mean;
  std::vector<float> stddev;  // clamped away from zero

  /// Fits statistics over an NCHW tensor, one entry per channel.
  static ChannelNormalizer fit(const nn::Tensor& t);

  void apply(nn::Tensor& t) const;    // in place: (v - mean) / std
  void invert(nn::Tensor& t) const;   // in place: v * std + mean
};

/// A trained (or untrained) CFNN bundle: weights + normalisers + geometry.
class CfnnModel {
 public:
  /// Fresh model with Xavier-initialised weights and zero biases. Throws
  /// InvalidArgument for a geometry load_bytes would reject (zero or
  /// indivisible channels, even kernel, dimensions past the format caps).
  CfnnModel(std::size_t in_channels, std::size_t out_channels,
            const CfnnConfig& config, std::uint64_t seed);

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  const CfnnConfig& config() const { return config_; }

  ChannelNormalizer& input_norm() { return input_norm_; }
  ChannelNormalizer& output_norm() { return output_norm_; }
  const ChannelNormalizer& input_norm() const { return input_norm_; }
  const ChannelNormalizer& output_norm() const { return output_norm_; }

  /// Trainable parameter count (paper Table III "Model Size CFNN").
  std::size_t param_count() const { return weights_.param_count(); }

  /// Appends the network to `g` with `x` (N, in_channels, H, W) as input
  /// and returns the output node (N, out_channels, H, W). The graph
  /// captures this model's weight vectors, so the model must outlive it;
  /// a kTrain graph hands them to the optimizer through Graph::params().
  nn::NodeRef append(nn::Graph& g, nn::NodeRef x);

  /// Serialized size in bytes — what the compressed stream pays.
  std::size_t byte_size() const;

  std::vector<std::uint8_t> save_bytes() const;
  /// Inverse of save_bytes. Throws CorruptStream unless the bytes hold
  /// exactly the network the header's geometry implies, with nothing after.
  static CfnnModel load_bytes(std::span<const std::uint8_t> bytes);

  /// Full-field inference: consumes the (unnormalised) anchor difference
  /// tensor slice by slice and returns denormalised predicted target
  /// differences, same N/H/W, C = out_channels. Deterministic across
  /// thread counts (required: encoder and decoder must agree bit-exactly).
  nn::Tensor infer(const nn::Tensor& anchor_diffs) const;

 private:
  CfnnModel() = default;

  std::size_t in_channels_ = 0, out_channels_ = 0;
  CfnnConfig config_;
  nn::Model weights_;  // 12 tensors, order in cfnn.cpp
  ChannelNormalizer input_norm_, output_norm_;
};

}  // namespace xfc

#endif  // XFC_CFNN_CFNN_HPP
