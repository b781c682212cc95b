#include "tensor/matrix.hpp"

#include <algorithm>

namespace fedra {

namespace detail {

std::atomic<std::uint64_t>& tensor_alloc_bytes_cell() {
  static std::atomic<std::uint64_t> cell{0};
  return cell;
}

std::atomic<std::uint64_t>& tensor_alloc_count_cell() {
  static std::atomic<std::uint64_t> cell{0};
  return cell;
}

}  // namespace detail

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ > 0 ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    FEDRA_EXPECTS(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::row_vector(std::span<const double> values) {
  Matrix m(1, values.size());
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

Matrix Matrix::col_vector(std::span<const double> values) {
  Matrix m(values.size(), 1);
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

Matrix Matrix::random_uniform(std::size_t rows, std::size_t cols, Rng& rng,
                              double lo, double hi) {
  Matrix m(rows, cols);
  for (auto& x : m.data_) x = rng.uniform(lo, hi);
  return m;
}

Matrix Matrix::random_gaussian(std::size_t rows, std::size_t cols, Rng& rng,
                               double mean, double stddev) {
  Matrix m(rows, cols);
  for (auto& x : m.data_) x = rng.gaussian(mean, stddev);
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::resize_reuse(std::size_t rows, std::size_t cols) {
  data_.resize(rows * cols);  // no-op on the heap once capacity covers it
  rows_ = rows;
  cols_ = cols;
}

void Matrix::assign_from(const Matrix& src) {
  if (this == &src) return;
  resize_reuse(src.rows_, src.cols_);
  std::copy(src.data_.begin(), src.data_.end(), data_.begin());
}

void Matrix::release() {
  Storage().swap(data_);
  rows_ = 0;
  cols_ = 0;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  FEDRA_EXPECTS(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  FEDRA_EXPECTS(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (auto& x : data_) x *= scalar;
  return *this;
}

}  // namespace fedra
