// Sparse matrix support for CTMC generator matrices.
//
// RowBuckets groups entries by row with a stable counting sort (skipped
// when they already arrive grouped), the first step of generator assembly.
// CsrMatrix holds the rows of Q, which Generator::rows() builds on demand
// for the analyses that walk a state's outgoing rates; the solvers sweep
// the generator's own form instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace choreo::ctmc {

/// Compressed sparse row matrix; each row lists its columns in order.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  std::size_t size() const noexcept { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  std::size_t nonzeros() const noexcept { return values_.size(); }

  std::span<const std::uint32_t> row_columns(std::size_t row) const;
  std::span<const double> row_values(std::size_t row) const;

  /// Entry (row, col), or 0 when structurally absent.
  double at(std::size_t row, std::size_t col) const;

 private:
  friend class Generator;

  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_;
  std::vector<double> values_;
};

/// Entry positions grouped by row, in input order within each row: a
/// stable counting sort, skipped when the input already arrives grouped
/// by row.  Row r's entries are at(k) for k in [begin(r), end(r)).
class RowBuckets {
 public:
  /// `row_of(i)` is the row of entry i, for i in [0, count); each must be
  /// below `rows`.
  template <typename RowOf>
  RowBuckets(std::size_t rows, std::size_t count, RowOf row_of);

  std::size_t begin(std::size_t row) const { return start_[row]; }
  std::size_t end(std::size_t row) const { return start_[row + 1]; }
  /// The input position of the k-th entry in row order.
  std::size_t at(std::size_t k) const { return order_.empty() ? k : order_[k]; }

 private:
  std::vector<std::size_t> start_;
  std::vector<std::size_t> order_;  ///< empty when the input is grouped
};

template <typename RowOf>
RowBuckets::RowBuckets(std::size_t rows, std::size_t count, RowOf row_of)
    : start_(rows + 1, 0) {
  bool grouped = true;
  for (std::size_t i = 0; i < count; ++i) {
    ++start_[row_of(i) + 1];
    grouped = grouped && (i == 0 || row_of(i - 1) <= row_of(i));
  }
  for (std::size_t r = 0; r < rows; ++r) start_[r + 1] += start_[r];
  if (grouped) return;
  order_.resize(count);
  std::vector<std::size_t> cursor(start_.begin(), start_.end() - 1);
  for (std::size_t i = 0; i < count; ++i) order_[cursor[row_of(i)]++] = i;
}

}  // namespace choreo::ctmc
