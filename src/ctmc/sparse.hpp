// Sparse matrix support for CTMC generator matrices.
//
// Matrices are assembled serially, one row at a time (CsrBuilder): a row's
// entries are sorted by (column, input position), duplicates are summed in
// input order and zero sums are dropped, so every entry is a function of
// the input alone.  from_triplets() first buckets unordered triplets by row
// with a stable counting sort (RowBuckets, skipped when they already arrive
// grouped by row), and transposed() is a counting transpose.  The
// steady-state solvers iterate on the transpose of the generator.  The
// matrix-vector product is parallelised across rows via the shared thread
// pool; generator matrices from state-space derivation are extremely sparse
// (a handful of activities per state) and memory-bound, which suits
// contiguous row chunks.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace choreo::ctmc {

struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// Compressed sparse row matrix.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds an n-by-n CSR matrix from triplets; duplicate (row, col) entries
  /// are summed in insertion order and zero sums are dropped.  Entries
  /// within each row are ordered by column.
  static CsrMatrix from_triplets(std::size_t n, std::vector<Triplet> triplets);

  std::size_t size() const noexcept { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  std::size_t nonzeros() const noexcept { return values_.size(); }

  std::span<const std::size_t> row_columns(std::size_t row) const;
  std::span<const double> row_values(std::size_t row) const;

  /// Entry (row, col), or 0 when structurally absent.
  double at(std::size_t row, std::size_t col) const;

  /// Counting transpose: rows of the result list their columns in order.
  CsrMatrix transposed() const;

  /// y = A x (parallelised over rows when `parallel` and the matrix is
  /// large enough to amortise the fork).
  void multiply(std::span<const double> x, std::span<double> y,
                bool parallel = true) const;

  /// Dense copy in row-major order (for the direct solver and for tests).
  std::vector<double> to_dense() const;

 private:
  friend class CsrBuilder;
  friend class GeneratorPattern;

  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_;
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

/// Assembles a CSR matrix row by row, rows in increasing order.  add() the
/// current row's entries in input order, then finish_row(): the entries are
/// sorted by (column, input position), each column's duplicates summed from
/// 0.0 in input order, and zero sums dropped.
class CsrBuilder {
 public:
  /// `capacity` bounds the nonzeros; storage for them is reserved up front.
  CsrBuilder(std::size_t rows, std::size_t capacity);

  void add(std::size_t col, double value) {
    row_.push_back({col, row_.size(), value});
  }
  void finish_row();
  /// The matrix; every row must have been finished.
  CsrMatrix finish();

 private:
  struct Entry {
    std::size_t col;
    std::size_t position;
    double value;
  };

  std::size_t rows_;
  std::vector<Entry> row_;
  CsrMatrix matrix_;
};

}  // namespace choreo::ctmc
