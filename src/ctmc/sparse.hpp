// Sparse matrix support for CTMC generator matrices.
//
// RowBuckets groups entries by row with a stable counting sort (skipped
// when they already arrive grouped), the first step of generator assembly.
// CsrMatrix holds the rows of Q, which Generator::rows() builds on demand
// for the analyses that walk a state's outgoing rates; the solvers sweep
// the generator's own form instead.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/counting_sort.hpp"
#include "util/error.hpp"

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
/// stable counting sort (util::CountingSort, split over `lanes`), skipped
/// when the input already arrives grouped by row, or given the row index
/// of such an input.  Row r's entries are at(k) for k in [begin(r), end(r)).
class RowBuckets {
 public:
  /// `row_of(i)` is the row of entry i, for i in [0, count); each must be
  /// below `rows`.
  template <typename RowOf>
  RowBuckets(std::size_t rows, std::size_t count, RowOf row_of,
             const util::Lanes& lanes);
  /// Entries already grouped by row, row r's at [starts[r], starts[r + 1]);
  /// `starts` is viewed, not copied, and must outlive the buckets.
  explicit RowBuckets(std::span<const std::size_t> starts) : starts_(starts) {}
  RowBuckets(RowBuckets&&) = default;
  RowBuckets(const RowBuckets&) = delete;
  RowBuckets& operator=(const RowBuckets&) = delete;

  std::size_t begin(std::size_t row) const { return starts_[row]; }
  std::size_t end(std::size_t row) const { return starts_[row + 1]; }
  /// The input position of the k-th entry in row order.
  std::size_t at(std::size_t k) const { return order_.empty() ? k : order_[k]; }
  /// True when at(k) == k: the input arrived grouped by row.
  bool grouped() const noexcept { return order_.empty(); }

 private:
  std::vector<std::size_t> counted_;  ///< the starts, when counted here
  std::span<const std::size_t> starts_;
  std::vector<std::size_t> order_;  ///< empty when the input is grouped
};

template <typename RowOf>
RowBuckets::RowBuckets(std::size_t rows, std::size_t count, RowOf row_of,
                       const util::Lanes& lanes) {
  std::atomic<bool> grouped{true};
  util::CountingSort<std::size_t> sort(
      rows, util::split_parts(count, lanes), lanes,
      [&](std::size_t begin, std::size_t end, std::size_t* counts) {
        bool ascending = true;
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t row = row_of(i);
          CHOREO_ASSERT(row < rows);
          ++counts[row];
          ascending = ascending && (i == 0 || row_of(i - 1) <= row);
        }
        if (!ascending) grouped.store(false, std::memory_order_relaxed);
      });
  counted_ = std::move(sort.offsets());
  starts_ = counted_;
  if (grouped.load(std::memory_order_relaxed)) return;
  order_.resize(count);
  sort.place([&](std::size_t begin, std::size_t end, std::size_t* cursor) {
    for (std::size_t i = begin; i < end; ++i) order_[cursor[row_of(i)]++] = i;
  });
}

}  // namespace choreo::ctmc
