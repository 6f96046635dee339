#include "ctmc/generator.hpp"

#include "util/thread_pool.hpp"

namespace choreo::ctmc {

Generator Generator::build(std::size_t state_count,
                           const std::vector<RatedTransition>& transitions) {
  return build_from<RatedTransition>(state_count, transitions);
}

const Generator::Structure& Generator::structure() const noexcept {
  static const Structure kEmpty{{0}, {}, {}};
  return structure_ ? *structure_ : kEmpty;
}

void Generator::multiply(std::span<const double> x,
                         std::span<double> y) const {
  const std::size_t n = state_count();
  CHOREO_ASSERT(x.size() == n && y.size() == n);
  const std::uint32_t* row_ptr = structure().row_ptr.data();
  const std::uint32_t* split = structure().split.data();
  const std::uint32_t* columns = structure().columns.data();
  const double* values = values_.data();
  const double* exit = exit_.data();
  auto rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      double sum = 0.0;
      std::uint32_t k = row_ptr[j];
      for (; k < split[j]; ++k) sum += values[k] * x[columns[k]];
      if (exit[j] > 0.0) sum += -exit[j] * x[j];
      for (; k < row_ptr[j + 1]; ++k) sum += values[k] * x[columns[k]];
      y[j] = sum;
    }
  };
  // Below ~16k rows the fork/join overhead dominates on this kind of kernel.
  if (n >= 16384 && util::ThreadPool::shared().worker_count() > 0) {
    util::ThreadPool::shared().parallel_for(n, rows);
  } else {
    rows(0, n);
  }
}

CsrMatrix Generator::rows() const {
  const std::size_t n = state_count();
  const Structure& structure = this->structure();
  CsrMatrix q;
  q.row_ptr_.assign(n + 1, 0);
  for (const std::uint32_t source : structure.columns) ++q.row_ptr_[source + 1];
  for (std::size_t s = 0; s < n; ++s) {
    q.row_ptr_[s + 1] += q.row_ptr_[s] + (exit_[s] > 0.0 ? 1 : 0);
  }
  q.col_.resize(q.row_ptr_[n]);
  q.values_.resize(q.row_ptr_[n]);
  // Q^T's rows are scattered in increasing order, so each row of Q lists
  // its columns in order; row j's diagonal goes in when row j comes up,
  // after the entries of the columns below j.
  std::vector<std::size_t> cursor(q.row_ptr_.begin(), q.row_ptr_.end() - 1);
  for (std::size_t j = 0; j < n; ++j) {
    const auto column = static_cast<std::uint32_t>(j);
    if (exit_[j] > 0.0) {
      q.col_[cursor[j]] = column;
      q.values_[cursor[j]++] = -exit_[j];
    }
    for (std::uint32_t k = structure.row_ptr[j]; k < structure.row_ptr[j + 1];
         ++k) {
      const std::size_t slot = cursor[structure.columns[k]]++;
      q.col_[slot] = column;
      q.values_[slot] = values_[k];
    }
  }
  return q;
}

std::vector<std::size_t> Generator::absorbing_states() const {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < state_count(); ++s) {
    if (exit_[s] == 0.0) out.push_back(s);
  }
  return out;
}

void Generator::validate(double tolerance) const {
  const CsrMatrix q = rows();
  for (std::size_t row = 0; row < state_count(); ++row) {
    const auto columns = q.row_columns(row);
    const auto values = q.row_values(row);
    double sum = 0.0;
    for (std::size_t k = 0; k < columns.size(); ++k) {
      sum += values[k];
      if (columns[k] != row && values[k] < 0.0) {
        throw util::NumericError(
            util::msg("negative off-diagonal entry Q[", row, "][", columns[k],
                      "] = ", values[k]));
      }
    }
    if (std::abs(sum) > tolerance) {
      throw util::NumericError(
          util::msg("generator row ", row, " sums to ", sum, ", expected 0"));
    }
  }
}

}  // namespace choreo::ctmc
