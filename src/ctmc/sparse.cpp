#include "ctmc/sparse.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace choreo::ctmc {

CsrMatrix CsrMatrix::from_triplets(std::size_t n, std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    CHOREO_ASSERT(t.row < n && t.col < n);
  }
  const RowBuckets rows(n, triplets.size(),
                        [&](std::size_t i) { return triplets[i].row; });
  CsrBuilder builder(n, triplets.size());
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t k = rows.begin(row); k < rows.end(row); ++k) {
      const Triplet& t = triplets[rows.at(k)];
      builder.add(t.col, t.value);
    }
    builder.finish_row();
  }
  return builder.finish();
}

CsrBuilder::CsrBuilder(std::size_t rows, std::size_t capacity) : rows_(rows) {
  matrix_.row_ptr_.reserve(rows + 1);
  matrix_.row_ptr_.push_back(0);
  matrix_.col_.reserve(capacity);
  matrix_.values_.reserve(capacity);
}

void CsrBuilder::finish_row() {
  // (column, input position) is a total order, so the sorted row and every
  // sum below are unique: duplicates always add up in input order.
  std::sort(row_.begin(), row_.end(), [](const Entry& a, const Entry& b) {
    return a.col != b.col ? a.col < b.col : a.position < b.position;
  });
  for (std::size_t k = 0; k < row_.size();) {
    const std::size_t col = row_[k].col;
    double value = 0.0;
    for (; k < row_.size() && row_[k].col == col; ++k) value += row_[k].value;
    if (value != 0.0) {
      matrix_.col_.push_back(col);
      matrix_.values_.push_back(value);
    }
  }
  matrix_.row_ptr_.push_back(matrix_.col_.size());
  row_.clear();
}

CsrMatrix CsrBuilder::finish() {
  CHOREO_ASSERT(matrix_.row_ptr_.size() == rows_ + 1);
  return std::move(matrix_);
}

std::span<const std::size_t> CsrMatrix::row_columns(std::size_t row) const {
  CHOREO_ASSERT(row + 1 < row_ptr_.size());
  return {col_.data() + row_ptr_[row], row_ptr_[row + 1] - row_ptr_[row]};
}

std::span<const double> CsrMatrix::row_values(std::size_t row) const {
  CHOREO_ASSERT(row + 1 < row_ptr_.size());
  return {values_.data() + row_ptr_[row], row_ptr_[row + 1] - row_ptr_[row]};
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  const auto columns = row_columns(row);
  const auto it = std::lower_bound(columns.begin(), columns.end(), col);
  if (it == columns.end() || *it != col) return 0.0;
  return row_values(row)[static_cast<std::size_t>(it - columns.begin())];
}

CsrMatrix CsrMatrix::transposed() const {
  const std::size_t n = size();
  CsrMatrix out;
  out.row_ptr_.assign(n + 1, 0);
  for (const std::size_t col : col_) ++out.row_ptr_[col + 1];
  std::partial_sum(out.row_ptr_.begin(), out.row_ptr_.end(),
                   out.row_ptr_.begin());
  out.col_.resize(nonzeros());
  out.values_.resize(nonzeros());
  // Rows are scattered in increasing order, so each transposed row lists
  // its columns in order without a sort.
  std::vector<std::size_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      const std::size_t slot = cursor[col_[k]]++;
      out.col_[slot] = row;
      out.values_[slot] = values_[k];
    }
  }
  return out;
}

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y,
                         bool parallel) const {
  const std::size_t n = size();
  CHOREO_ASSERT(x.size() == n && y.size() == n);
  auto rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t row = begin; row < end; ++row) {
      const auto columns = row_columns(row);
      const auto values = row_values(row);
      double sum = 0.0;
      for (std::size_t k = 0; k < columns.size(); ++k) {
        sum += values[k] * x[columns[k]];
      }
      y[row] = sum;
    }
  };
  // Below ~16k rows the fork/join overhead dominates on this kind of kernel.
  if (parallel && n >= 16384 && util::ThreadPool::shared().worker_count() > 0) {
    util::ThreadPool::shared().parallel_for(n, rows);
  } else {
    rows(0, n);
  }
}

std::vector<double> CsrMatrix::to_dense() const {
  const std::size_t n = size();
  std::vector<double> dense(n * n, 0.0);
  for (std::size_t row = 0; row < n; ++row) {
    const auto columns = row_columns(row);
    const auto values = row_values(row);
    for (std::size_t k = 0; k < columns.size(); ++k) {
      dense[row * n + columns[k]] = values[k];
    }
  }
  return dense;
}

}  // namespace choreo::ctmc
