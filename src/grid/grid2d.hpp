// Row-major 2-D grid, indexed operator()(x, y) with x the column (VP1 axis)
// and y the row (VP2 axis); see common/geometry.hpp for the convention.
#pragma once

#include "common/assert.hpp"

#include <cstddef>
#include <vector>

namespace qvg {

template <typename T>
class Grid2D {
 public:
  Grid2D() = default;

  Grid2D(std::size_t width, std::size_t height, T fill = T{})
      : width_(width), height_(height), data_(width * height, fill) {
    QVG_EXPECTS(width > 0 && height > 0);
  }

  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] bool in_bounds(std::ptrdiff_t x, std::ptrdiff_t y) const noexcept {
    return x >= 0 && y >= 0 && static_cast<std::size_t>(x) < width_ &&
           static_cast<std::size_t>(y) < height_;
  }

  /// Unchecked access (hot loops). x = column, y = row.
  T& operator()(std::size_t x, std::size_t y) noexcept {
    return data_[y * width_ + x];
  }
  const T& operator()(std::size_t x, std::size_t y) const noexcept {
    return data_[y * width_ + x];
  }

  /// Bounds-checked access.
  T& at(std::size_t x, std::size_t y) {
    QVG_EXPECTS(x < width_ && y < height_);
    return data_[y * width_ + x];
  }
  const T& at(std::size_t x, std::size_t y) const {
    QVG_EXPECTS(x < width_ && y < height_);
    return data_[y * width_ + x];
  }

  /// Clamped access: out-of-range coordinates are clamped to the border
  /// (replicate border mode, used by the image-processing kernels).
  [[nodiscard]] const T& clamped(std::ptrdiff_t x, std::ptrdiff_t y) const noexcept {
    const std::size_t cx = x < 0 ? 0
                           : static_cast<std::size_t>(x) >= width_ ? width_ - 1
                                                                   : static_cast<std::size_t>(x);
    const std::size_t cy = y < 0 ? 0
                           : static_cast<std::size_t>(y) >= height_ ? height_ - 1
                                                                    : static_cast<std::size_t>(y);
    return data_[cy * width_ + cx];
  }

  [[nodiscard]] const std::vector<T>& raw() const noexcept { return data_; }
  [[nodiscard]] std::vector<T>& raw() noexcept { return data_; }

  void fill(const T& value) { data_.assign(data_.size(), value); }

  friend bool operator==(const Grid2D&, const Grid2D&) = default;

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::vector<T> data_;
};

using GridD = Grid2D<double>;
using GridU8 = Grid2D<unsigned char>;

}  // namespace qvg
