#include "ctmc/sparse.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace choreo::ctmc {

std::span<const std::uint32_t> CsrMatrix::row_columns(std::size_t row) const {
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

}  // namespace choreo::ctmc
