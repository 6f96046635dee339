#include "ctmc/generator.hpp"

#include <algorithm>
#include <utility>
#include <vector>

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
  // Inside Gauss-Seidel solves on a 4-vCPU host the pool pays from there:
  // sweep_grid's 26,624-state chain (2 products per 16-iteration solve)
  // took 0.45-0.50 ms for its products pooled against 0.45-0.65 ms serial,
  // and project_large's 126,976-state chain (3 per 24-iteration solve)
  // 3.27 ms pooled against 5.23 ms serial.
  if (n >= 16384 && util::ThreadPool::shared().worker_count() > 0) {
    util::ThreadPool::shared().parallel_for(n, rows);
  } else {
    rows(0, n);
  }
}

void GeneratorPattern::compile(const Recording& recording,
                               std::span<const std::uint32_t> rate_nodes) {
  const RowBuckets& sources = recording.sources;
  const util::NoInitVector<Slot>& slots = recording.slots;
  const std::size_t n = recording.structure->split.size();
  // The sequences of more than one node (or none), numbered in order of
  // first use and found again through an open-addressing table of sum
  // numbers (kNone: empty), probed by a hash of the sequence.
  std::vector<std::uint32_t> table(64, kNone);
  std::vector<std::uint32_t> sequence;
  auto hash_of = [](std::span<const std::uint32_t> nodes) {
    std::uint64_t hash = nodes.size();
    for (const std::uint32_t node : nodes) {
      hash = (hash ^ node) * 0x9e3779b97f4a7c15ULL;
      hash ^= hash >> 29;
    }
    return hash;
  };
  auto addends_of = [this](std::uint32_t sum) {
    return std::span<const std::uint32_t>(addends_).subspan(
        sum_begin_[sum], sum_begin_[sum + 1] - sum_begin_[sum]);
  };
  auto code = [&]() -> std::uint32_t {
    if (sequence.size() == 1) return sequence[0];
    const std::size_t mask = table.size() - 1;
    std::size_t at = hash_of(sequence) & mask;
    for (; table[at] != kNone; at = (at + 1) & mask) {
      const std::span<const std::uint32_t> sum = addends_of(table[at]);
      if (std::equal(sum.begin(), sum.end(), sequence.begin(), sequence.end())) {
        return static_cast<std::uint32_t>(node_count_ + table[at]);
      }
    }
    const std::size_t sum = sum_count();
    if (node_count_ + sum >= kNone) {
      throw util::ModelError(util::msg("a generator pattern of ", node_count_,
                                       " rates and ", sum, " sums is too"
                                       " large for 32-bit codes"));
    }
    table[at] = static_cast<std::uint32_t>(sum);
    addends_.insert(addends_.end(), sequence.begin(), sequence.end());
    sum_begin_.push_back(static_cast<std::uint32_t>(addends_.size()));
    if (2 * sum_count() > table.size()) {  // regrow, at most half full
      std::vector<std::uint32_t> grown(2 * table.size(), kNone);
      for (std::uint32_t k = 0; k < sum_count(); ++k) {
        std::size_t slot = hash_of(addends_of(k)) & (grown.size() - 1);
        while (grown[slot] != kNone) slot = (slot + 1) & (grown.size() - 1);
        grown[slot] = k;
      }
      table = std::move(grown);
    }
    return static_cast<std::uint32_t>(node_count_ + sum);
  };
  // A source's exit rate adds its transitions, self-loops aside, in input
  // order, and each of its entries the subsequence into that entry's
  // target.  An entry met a second time is summed once its source is done.
  entry_codes_.assign(recording.structure->columns.size(), kNone);
  exit_codes_.resize(n);
  std::vector<std::uint32_t> merged;
  for (std::size_t s = 0; s < n; ++s) {
    sequence.clear();
    merged.clear();
    for (std::size_t k = sources.begin(s); k < sources.end(s); ++k) {
      const std::size_t i = sources.at(k);
      const std::uint32_t entry = slots[i].entry;
      if (entry == kNone) continue;  // a self-loop
      sequence.push_back(rate_nodes[i]);
      if (entry_codes_[entry] == kNone) {
        entry_codes_[entry] = rate_nodes[i];
      } else if (std::find(merged.begin(), merged.end(), entry) ==
                 merged.end()) {
        merged.push_back(entry);
      }
    }
    exit_codes_[s] = code();
    for (const std::uint32_t entry : merged) {
      sequence.clear();
      for (std::size_t k = sources.begin(s); k < sources.end(s); ++k) {
        const std::size_t i = sources.at(k);
        if (slots[i].entry == entry) sequence.push_back(rate_nodes[i]);
      }
      entry_codes_[entry] = code();
    }
  }
  structure_ = recording.structure;
}

Generator GeneratorPattern::fill(std::span<const double> rates) const {
  CHOREO_ASSERT(rates.size() == node_count_);
  // The nodes in order of first use: the first invalid one is the rate of
  // the first offending transition in input order.
  for (const Use& use : uses_) {
    detail::check_rate(use, rates[use.node]);
  }
  // Every code's value: the nodes', then each sum's, from 0.0 in order.
  std::vector<double> value(node_count_ + sum_count());
  std::copy(rates.begin(), rates.end(), value.begin());
  for (std::size_t k = 0; k < sum_count(); ++k) {
    double sum = 0.0;
    for (std::uint32_t a = sum_begin_[k]; a < sum_begin_[k + 1]; ++a) {
      sum += rates[addends_[a]];
    }
    value[node_count_ + k] = sum;
  }
  Generator generator;
  generator.structure_ = structure_;
  generator.values_.resize(entry_codes_.size());
  generator.exit_.resize(exit_codes_.size());
  for (std::size_t e = 0; e < entry_codes_.size(); ++e) {
    generator.values_[e] = value[entry_codes_[e]];
  }
  double max_exit = 0.0;
  for (std::size_t s = 0; s < exit_codes_.size(); ++s) {
    const double exit = value[exit_codes_[s]];
    generator.exit_[s] = exit;
    max_exit = std::max(max_exit, exit);
  }
  generator.max_exit_rate_ = max_exit;
  return generator;
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
