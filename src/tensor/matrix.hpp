// Dense row-major matrix of doubles — the storage type underneath the
// neural-network library. Vectors are 1xN or Nx1 matrices; std::span views
// expose rows without copying.
//
// Storage goes through TrackingAllocator so every heap allocation made on
// behalf of a Matrix bumps a process-wide byte/count tally (relaxed
// atomics; the cost is noise next to the allocation itself). The training
// workspaces in src/nn/ use that tally to prove their steady state is
// allocation-free, and PPO exports it as the `tensor.alloc_bytes`
// telemetry counter.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace fedra {

/// Process-wide tally of heap traffic from Matrix storage. Monotonic;
/// callers measure a region by differencing before/after.
struct TensorAllocStats {
  std::uint64_t bytes = 0;   ///< total bytes ever allocated
  std::uint64_t allocs = 0;  ///< total allocation calls
};

namespace detail {
std::atomic<std::uint64_t>& tensor_alloc_bytes_cell();
std::atomic<std::uint64_t>& tensor_alloc_count_cell();
}  // namespace detail

inline TensorAllocStats tensor_alloc_stats() {
  return {detail::tensor_alloc_bytes_cell().load(std::memory_order_relaxed),
          detail::tensor_alloc_count_cell().load(std::memory_order_relaxed)};
}

/// std::allocator<T> plus the global tally. Stateless, so all instances
/// compare equal and vectors move storage freely between them.
template <typename T>
struct TrackingAllocator {
  using value_type = T;

  TrackingAllocator() = default;
  template <typename U>
  TrackingAllocator(const TrackingAllocator<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    detail::tensor_alloc_bytes_cell().fetch_add(n * sizeof(T),
                                                std::memory_order_relaxed);
    detail::tensor_alloc_count_cell().fetch_add(1, std::memory_order_relaxed);
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) {
    std::allocator<T>{}.deallocate(p, n);
  }

  friend bool operator==(const TrackingAllocator&, const TrackingAllocator&) {
    return true;
  }
};

class Matrix {
 public:
  using Storage = std::vector<double, TrackingAllocator<double>>;

  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix filled with `value`.
  Matrix(std::size_t rows, std::size_t cols, double value)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  /// Construct from a nested initializer list: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// 1 x n row vector from values.
  static Matrix row_vector(std::span<const double> values);

  /// n x 1 column vector from values.
  static Matrix col_vector(std::span<const double> values);

  /// Entries i.i.d. uniform in [lo, hi).
  static Matrix random_uniform(std::size_t rows, std::size_t cols, Rng& rng,
                               double lo = -1.0, double hi = 1.0);

  /// Entries i.i.d. normal(mean, stddev).
  static Matrix random_gaussian(std::size_t rows, std::size_t cols, Rng& rng,
                                double mean = 0.0, double stddev = 1.0);

  /// n x n identity.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  /// Elements the current storage can hold without reallocating.
  std::size_t capacity() const { return data_.capacity(); }

  double& operator()(std::size_t r, std::size_t c) {
    FEDRA_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    FEDRA_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Flat element access (row-major order).
  double& operator[](std::size_t i) {
    FEDRA_EXPECTS(i < data_.size());
    return data_[i];
  }
  double operator[](std::size_t i) const {
    FEDRA_EXPECTS(i < data_.size());
    return data_[i];
  }

  std::span<double> row(std::size_t r) {
    FEDRA_EXPECTS(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    FEDRA_EXPECTS(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  std::span<double> flat() { return {data_.data(), data_.size()}; }
  std::span<const double> flat() const { return {data_.data(), data_.size()}; }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  void fill(double value);
  void set_zero() { fill(0.0); }

  /// Re-dimension to rows x cols, reusing the existing heap block whenever
  /// its capacity suffices (the workspace idiom: shapes oscillate between
  /// a few steady-state values, so after warm-up this never allocates).
  /// Surviving element VALUES are unspecified — callers overwrite.
  void resize_reuse(std::size_t rows, std::size_t cols);

  /// Deep copy of `src` into this matrix's existing storage (capacity
  /// reused as in resize_reuse). Equivalent to operator= in value, but
  /// guaranteed allocation-free once capacity covers src.size().
  void assign_from(const Matrix& src);

  /// Frees the heap block and becomes 0x0 (capacity drops to zero).
  void release();

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  // In-place arithmetic (shapes must match exactly; no broadcasting here —
  // broadcast helpers live in ops.hpp where intent is explicit).
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Storage data_;
};

}  // namespace fedra
