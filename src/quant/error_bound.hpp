#ifndef XFC_QUANT_ERROR_BOUND_HPP
#define XFC_QUANT_ERROR_BOUND_HPP

/// \file error_bound.hpp
/// User-facing error-bound specification. The compressor guarantees
/// max_i |x_i - x̂_i| <= absolute bound, where the absolute bound is either
/// given directly or derived from the field's value range (relative mode,
/// the mode used throughout the paper's evaluation).

#include <cmath>
#include <cstdint>

#include "core/error.hpp"

namespace xfc {

enum class ErrorBoundMode : std::uint8_t {
  kAbsolute = 0,  // bound value is used as-is
  kRelative = 1,  // bound value is multiplied by (max - min) of the field
};

class ErrorBound {
 public:
  ErrorBound() = default;
  ErrorBound(ErrorBoundMode mode, double value) : mode_(mode), value_(value) {
    expects(value > 0.0 && std::isfinite(value),
            "ErrorBound: bound must be positive and finite");
  }

  static ErrorBound absolute(double value) {
    return {ErrorBoundMode::kAbsolute, value};
  }
  static ErrorBound relative(double value) {
    return {ErrorBoundMode::kRelative, value};
  }

  ErrorBoundMode mode() const { return mode_; }
  double value() const { return value_; }

  /// Resolves to an absolute bound for a field with the given value range.
  /// A constant field (range == 0) in relative mode degenerates to treating
  /// the bound value as absolute, keeping the pipeline well-defined
  /// without demanding absurd precision. A relative bound throws
  /// InvalidArgument for a non-finite range (a field holding Inf) or when
  /// it resolves to a non-finite value: no reader accepts such a bound, so
  /// no writer may record one.
  double absolute_for(double value_range) const {
    if (mode_ == ErrorBoundMode::kAbsolute) return value_;
    expects(std::isfinite(value_range),
            "ErrorBound: value range is not finite (non-finite input?)");
    const double abs_eb = value_ * value_range;
    expects(std::isfinite(abs_eb), "ErrorBound: resolved bound is not finite");
    return abs_eb > 0.0 ? abs_eb : value_;
  }

 private:
  ErrorBoundMode mode_ = ErrorBoundMode::kRelative;
  double value_ = 1e-3;
};

}  // namespace xfc

#endif  // XFC_QUANT_ERROR_BOUND_HPP
