#ifndef XFC_NN_GRAPH_HPP
#define XFC_NN_GRAPH_HPP

/// \file graph.hpp
/// Tape-based computation graph for the NN compute core.
///
/// A Graph is a flat tape of nodes (ops over NCHW float buffers) built once
/// per model shape; nodes are appended in topological order, so forward is
/// a single left-to-right sweep and backward a single right-to-left sweep
/// with *derived* gradients — no layer hand-rolls a backward pair, and one
/// finite-difference CheckGrad (autodiff.hpp) verifies every op and every
/// composed model.
///
/// Execution state lives in GraphExec, not the graph: all activations,
/// gradients and op scratch are pre-acquired from a Workspace arena at
/// construction, so a steady-state training loop (forward / backward /
/// Adam.step per batch against one long-lived GraphExec) performs zero
/// heap allocations, and concurrent inference builds a private Graph +
/// GraphExec per thread against shared, read-only weight vectors.
///
/// Two contracts the op kernels uphold:
///  1. Frozen inference arithmetic. The float evaluation order of every
///     forward kernel is part of the cross-field stream format: the
///     decoder replays the encoder's CFNN predictions bit-exactly (pinned
///     by test_golden's cross-field archive). Do not "optimise" reduction
///     orders here. The two orders that matter most:
///     - conv2d (conv.hpp): for each output element, K = (in/groups)*k*k
///       products w[oc][p] * x_p (a float multiply, then a separate float
///       add — libxfc builds with -ffp-contract=off), p = (ic*k + ky)*k +
///       kx, x_p = +0.0f outside the plane. The taps are summed in blocks
///       of 240, each from +0.0f; the first block's sum is the running
///       value, each later block's sum s_j is added as s_j + y, and the
///       bias is added last.
///     - channel attention: the serial left-to-right double summation of
///       each plane's pooled average (pool_plane in graph.cpp).
///  2. Thread-count determinism. Parallel kernels only partition work whose
///     reduction order is fixed (disjoint output planes, per-image
///     weight-gradient accumulators reduced serially in image order), so
///     forward, backward and therefore trained model bytes are independent
///     of XFC_THREADS. The conv backward's summation order is fixed too
///     (conv.hpp), so the trained bytes do not change with its kernels.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/error.hpp"
#include "nn/workspace.hpp"

namespace xfc::nn {

/// One trainable parameter bundle: values and matching gradient. Values are
/// owned by whoever built the graph (normally a Model); gradients are
/// owned by the Graph and accumulate across backward calls until
/// zero_grad().
struct Param {
  std::vector<float>* value;
  std::vector<float>* grad;
};

/// Dense NCHW shape of one node's output.
struct GShape {
  std::size_t n = 0, c = 0, h = 0, w = 0;
  std::size_t size() const { return n * c * h * w; }
  bool operator==(const GShape&) const = default;
};

/// Opaque handle to a graph node (index into the tape).
struct NodeRef {
  std::int32_t id = -1;
  bool valid() const { return id >= 0; }
};

enum class Op : std::uint8_t {
  kInput,             ///< externally bound activation (bind() before forward)
  kParam,             ///< trainable parameter leaf
  kConv2D,            ///< direct conv, odd k, "same" pad, groups; fused bias
  kReLU,              ///< elementwise max(0, x)
  kChannelAttention,  ///< CBAM pooling + shared MLP + sigmoid rescale composite
  kMseLoss,           ///< scalar mean-squared-error head
};

struct Node {
  Op op = Op::kInput;
  GShape shape;
  std::int32_t in[5] = {-1, -1, -1, -1, -1};  ///< input node ids
  std::size_t a0 = 0, a1 = 0;  ///< op attrs (conv: kernel, groups;
                               ///< attn: reduction)
  bool needs_grad = false;     ///< on a path from a trainable param
  std::size_t aux_floats = 0, aux_ints = 0;  ///< per-exec op scratch
  std::vector<float>* value = nullptr;       ///< kParam only: weight storage
  std::int32_t param_idx = -1;               ///< kParam only: param-table slot
};

/// The tape. Build once per (model, input shape); execute via GraphExec.
class Graph {
 public:
  enum class Mode {
    kInfer,  ///< no gradient state; activation buffers are recycled
    kTrain   ///< activations kept for backward, gradients allocated
  };

  explicit Graph(Mode mode) : mode_(mode) {}

  Mode mode() const { return mode_; }

  /// Externally bound activation. `needs_grad` (train mode only) gives the
  /// input a gradient buffer, readable after backward via GraphExec::grad —
  /// used by tests checking dL/dx; model inputs normally leave it false so
  /// the first layer can skip its input-gradient work.
  NodeRef input(GShape shape, bool needs_grad = false);

  /// Trainable parameter leaf. `values` must outlive the graph and hold
  /// exactly shape.size() floats; registering the same vector twice returns
  /// the same node (one gradient per distinct parameter).
  NodeRef param(std::vector<float>& values, GShape shape);

  /// Convolution: odd kernel, stride 1, zero "same" padding, grouped.
  /// Weight layout [out_ch][in_ch/groups][k][k]; optional fused bias.
  NodeRef conv2d(NodeRef x, NodeRef w, std::size_t out_channels,
                 std::size_t kernel, std::size_t groups, NodeRef bias = {});

  NodeRef relu(NodeRef x);

  /// Channel-attention composite (CBAM): per-plane avg/max pooling, shared
  /// two-layer MLP (w1 [mid][c], b1 [mid], w2 [c][mid], b2 [c],
  /// mid = c/reduction), sigmoid rescale.
  NodeRef channel_attention(NodeRef x, NodeRef w1, NodeRef b1, NodeRef w2,
                            NodeRef b2, std::size_t reduction);

  /// Scalar MSE head (mean over all elements). Must be the last node for
  /// GraphExec::backward; read the value via GraphExec::loss().
  NodeRef mse_loss(NodeRef pred, NodeRef target);

  std::size_t node_count() const { return nodes_.size(); }
  const Node& node(NodeRef r) const { return at(r); }
  GShape shape(NodeRef r) const { return at(r).shape; }
  /// The last node appended (the conventional output / loss root).
  NodeRef root() const;

  /// All distinct trainable parameters in registration order, paired with
  /// their graph-owned gradients — feed directly to Adam.
  std::vector<Param> params();
  /// Zeroes the accumulated parameter gradients.
  void zero_grad();
  /// Total trainable scalar count.
  std::size_t param_count() const;

 private:
  friend class GraphExec;

  NodeRef push(Node n);
  const Node& at(NodeRef r) const {
    expects(r.id >= 0 && static_cast<std::size_t>(r.id) < nodes_.size(),
            "Graph: dangling NodeRef");
    return nodes_[static_cast<std::size_t>(r.id)];
  }

  Mode mode_;
  std::vector<Node> nodes_;
  std::vector<std::vector<float>*> param_values_;
  // deque: Param holds `std::vector<float>*`, so the vector *objects* must
  // have stable addresses as params register.
  std::deque<std::vector<float>> param_grads_;
};

/// One executable instance of a Graph: binds inputs, owns all activation /
/// gradient / scratch buffers (pre-acquired from the given Workspace arena
/// in construction order, so repeated constructions reuse the same slabs).
///
/// Lifetime follows the arena's stack discipline: construct, use, destroy
/// in LIFO order per thread (destruction rewinds the arena to the
/// construction mark). forward() is re-runnable — CheckGrad re-forwards
/// after perturbing parameters with zero further allocation.
class GraphExec {
 public:
  GraphExec(Graph& g, Workspace& ws);
  ~GraphExec();
  GraphExec(const GraphExec&) = delete;
  GraphExec& operator=(const GraphExec&) = delete;

  /// Points a kInput node at caller-owned data (shape.size() floats,
  /// alive across forward/backward). Rebinding between forwards is cheap.
  void bind(NodeRef input, const float* data);

  /// Evaluates every node in tape order.
  void forward();

  /// Value of the kMseLoss root from the last forward() (double-precision
  /// accumulation).
  double loss() const { return loss_; }

  /// Reverse sweep from the kMseLoss root (train mode). Parameter
  /// gradients accumulate into the graph-owned vectors; activation
  /// gradients are recomputed per call.
  void backward();

  /// Reverse sweep seeded with dL/d(node) = seed (shape.size() floats) —
  /// the probe-gradient form used by op-level tests.
  void backward_from(NodeRef node, const float* seed);

  /// Output buffer of a node after forward(). In kInfer mode intermediate
  /// buffers are recycled tape-register style; only the root (and params /
  /// bound inputs) are guaranteed to still hold their values.
  const float* value(NodeRef r) const;

  /// Gradient buffer after backward (train mode; null if the node does not
  /// need gradients).
  const float* grad(NodeRef r) const;

 private:
  void eval(std::size_t i);
  void backprop(std::size_t i);
  void begin_backward();

  Graph& g_;
  Workspace& ws_;
  std::size_t mark_ = 0;
  std::size_t n_ = 0;
  const float** val_ = nullptr;   // per node: current value pointer
  float** buf_ = nullptr;         // per node: arena output buffer (or null)
  float** grd_ = nullptr;         // per node: gradient buffer (or null)
  float** aux_ = nullptr;         // per node: float scratch (or null)
  std::size_t** iaux_ = nullptr;  // per node: index scratch (or null)
  std::uint8_t* gwritten_ = nullptr;  // per node: grad seeded this sweep
  double loss_ = 0.0;
};

namespace detail {

/// Scratch layout of the channel-attention composite, shared by the
/// forward kernel (graph.cpp) and the derived backward (autodiff.cpp).
struct AttnAux {
  float *avg, *mx, *scale, *za, *zm;
  float *ha_pre, *ha_post, *hm_pre, *hm_post;
  std::size_t* argmax;

  AttnAux(float* f, std::size_t* ia, std::size_t batch, std::size_t channels,
          std::size_t mid) {
    const std::size_t bc = batch * channels, bm = batch * mid;
    avg = f;
    mx = avg + bc;
    scale = mx + bc;
    za = scale + bc;
    zm = za + bc;
    ha_pre = zm + bc;
    ha_post = ha_pre + bm;
    hm_pre = ha_post + bm;
    hm_post = hm_pre + bm;
    argmax = ia;
  }

  static std::size_t floats(std::size_t batch, std::size_t channels,
                            std::size_t mid) {
    return batch * (5 * channels + 4 * mid);
  }
  static std::size_t ints(std::size_t batch, std::size_t channels) {
    return batch * channels;
  }
};

/// Test-only: flips the channel-attention pooled-average accumulation to a
/// reversed single-precision sum. Exists so test_golden can prove the
/// cross-field archive pin actually catches a summation-order change
/// (negative control); never set outside tests.
extern bool g_perturb_attention_pool_for_tests;

}  // namespace detail

}  // namespace xfc::nn

#endif  // XFC_NN_GRAPH_HPP
