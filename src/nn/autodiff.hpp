#ifndef XFC_NN_AUTODIFF_HPP
#define XFC_NN_AUTODIFF_HPP

/// \file autodiff.hpp
/// Reverse-mode backward pass and finite-difference gradient checking.
///
/// The backward sweep itself lives on GraphExec (declared in graph.hpp,
/// implemented in autodiff.cpp). This header adds the verification layer:
/// check_grad() compares every analytic parameter gradient against central
/// differences, which is the single universal test for every op and every
/// composed model — a new predictor is a graph definition plus one
/// check_grad() call, not a hand-written backward plus a bespoke test.
///
/// Model is the parameter bag of a graph-first predictor: it owns the
/// weight vectors (stable addresses) and hands them to Graph::param, while
/// the graph holds the structure. CfnnModel (cfnn/cfnn.hpp) is the in-tree
/// instance.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/rng.hpp"
#include "nn/graph.hpp"

namespace xfc::nn {

struct CheckGradOptions {
  double eps = 1e-2;     ///< central-difference step
  double tol = 1e-3;     ///< max allowed relative error
  /// Parameter elements probed per parameter tensor (capped at its size);
  /// sampling keeps the O(2 * samples * forward) cost bounded on big convs.
  std::size_t samples_per_param = 24;
  std::uint64_t seed = 0x5EEDull;  ///< sampling RNG seed
};

struct CheckGradResult {
  bool ok = true;
  std::size_t checked = 0;      ///< total elements probed
  double max_rel_err = 0.0;
  std::size_t worst_param = 0;  ///< param index of the worst element
  std::size_t worst_elem = 0;   ///< element index within that param
  double worst_analytic = 0.0;
  double worst_numeric = 0.0;
};

/// Verifies the graph's analytic parameter gradients against central finite
/// differences of the kMseLoss root. The graph must be kTrain with a
/// kMseLoss root and the exec's inputs already bound; parameters are
/// perturbed in place and restored. Relative error uses
/// |a - fd| / max(1, |a|, |fd|) so near-zero gradients don't blow up.
CheckGradResult check_grad(Graph& g, GraphExec& exec,
                           const CheckGradOptions& opts = {});

/// The kReLU node's backward: gx = x <= 0 ? 0 : go when `first` (no other
/// consumer of x has written gx), else gx += go where x > 0. A select per
/// element, never a branch, on the thread pool. The two tests differ on a
/// NaN x: the first pass passes go through, the accumulating pass leaves
/// gx alone.
void relu_backward(const float* x, const float* go, std::size_t n, bool first,
                   float* gx);

/// Owning parameter store for graph-first models.
class Model {
 public:
  /// Adds a parameter tensor initialised to zero.
  std::vector<float>& add(std::size_t size);
  /// Adds a parameter tensor with Xavier/Glorot-uniform init.
  std::vector<float>& add_xavier(std::size_t size, std::size_t fan_in,
                                 std::size_t fan_out, Rng& rng);

  std::size_t size() const { return values_.size(); }
  std::vector<float>& values(std::size_t i) { return values_[i]; }
  const std::vector<float>& values(std::size_t i) const { return values_[i]; }
  /// Total scalar count across all parameters.
  std::size_t param_count() const;

 private:
  // deque: Graph::param captures vector addresses, so growth must not move
  // previously added vectors.
  std::deque<std::vector<float>> values_;
};

}  // namespace xfc::nn

#endif  // XFC_NN_AUTODIFF_HPP
