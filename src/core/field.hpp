#ifndef XFC_CORE_FIELD_HPP
#define XFC_CORE_FIELD_HPP

/// \file field.hpp
/// A Field is a named single-precision scientific data field — the unit of
/// compression throughout xfc (e.g. the "Wf" wind-speed field of a Hurricane
/// snapshot). Fields carry their name so dataset registries, anchor-field
/// configuration and experiment logs can refer to them symbolically.

#include <cmath>
#include <string>
#include <utility>

#include "core/ndarray.hpp"

namespace xfc {

class Field {
 public:
  Field() = default;
  Field(std::string name, F32Array data)
      : name_(std::move(name)), data_(std::move(data)) {}
  Field(std::string name, Shape shape)
      : name_(std::move(name)), data_(shape) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const F32Array& array() const { return data_; }
  F32Array& array() { return data_; }
  const Shape& shape() const { return data_.shape(); }
  std::size_t size() const { return data_.size(); }
  const float* data() const { return data_.data(); }
  float* data() { return data_.data(); }

  /// Minimum and maximum value; {0,0} for an empty field.
  std::pair<float, float> min_max() const;

  /// max - min; the denominator of relative error bounds and PSNR. The
  /// float difference when it is finite (the value every stream so far
  /// was written with), else the exact double one, so a finite field
  /// wider than FLT_MAX still has a finite range.
  double value_range() const {
    auto [lo, hi] = min_max();
    const float range = hi - lo;
    if (std::isfinite(range)) return range;
    return static_cast<double>(hi) - static_cast<double>(lo);
  }

  /// Arithmetic mean.
  double mean() const;

  /// Population standard deviation.
  double stddev() const;

 private:
  std::string name_;
  F32Array data_;
};

}  // namespace xfc

#endif  // XFC_CORE_FIELD_HPP
