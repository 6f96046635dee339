#include "ctmc/lumping.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/error.hpp"

namespace choreo::ctmc {

namespace {

/// Per-state signature: total rate into each (current) block, the state's
/// own block included (minus the diagonal).  Comparing own-block rates too
/// makes this the strong Markov-bisimulation condition -- PEPA's strong
/// equivalence at CTMC level -- which is strictly finer than bare ordinary
/// lumpability (whose coarsest solution is always the useless one-block
/// partition) while still guaranteeing an exact quotient.
std::vector<std::pair<std::size_t, double>> signature_of(
    const CsrMatrix& q, std::size_t state,
    const std::vector<std::size_t>& block_of) {
  std::map<std::size_t, double> into;
  const auto columns = q.row_columns(state);
  const auto values = q.row_values(state);
  for (std::size_t k = 0; k < columns.size(); ++k) {
    if (columns[k] == state) continue;  // diagonal
    into[block_of[columns[k]]] += values[k];
  }
  std::vector<std::pair<std::size_t, double>> out(into.begin(), into.end());
  // Quantise rates so floating-point noise cannot split blocks.
  for (auto& [block, rate] : out) {
    rate = std::round(rate * 1e12) / 1e12;
  }
  return out;
}

}  // namespace

Lumping compute_lumping(const Generator& generator,
                        std::vector<std::size_t> initial_partition) {
  const std::size_t n = generator.state_count();
  if (initial_partition.empty()) initial_partition.assign(n, 0);
  CHOREO_ASSERT(initial_partition.size() == n);
  for (std::size_t label : initial_partition) CHOREO_ASSERT(label < n || n == 0);

  Lumping lumping;
  lumping.block_of = std::move(initial_partition);
  const CsrMatrix q = generator.rows();

  while (true) {
    // Group states by (current block, outgoing block-rate signature).  The
    // key contains the current block, so refinement can only split blocks:
    // the group count is non-decreasing, and a fixed point is reached
    // exactly when it stops growing.
    std::map<std::pair<std::size_t, std::vector<std::pair<std::size_t, double>>>,
             std::size_t>
        groups;
    std::vector<std::size_t> next(n);
    for (std::size_t s = 0; s < n; ++s) {
      auto key = std::make_pair(lumping.block_of[s],
                                signature_of(q, s, lumping.block_of));
      const auto [it, inserted] = groups.emplace(std::move(key), groups.size());
      next[s] = it->second;
    }
    std::vector<bool> seen(n, false);
    std::size_t old_count = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (!seen[lumping.block_of[s]]) {
        seen[lumping.block_of[s]] = true;
        ++old_count;
      }
    }
    lumping.block_of = std::move(next);
    if (groups.size() == old_count) break;
  }

  // Normalise block ids to 0..k-1 in order of first appearance and record
  // representatives.
  std::map<std::size_t, std::size_t> order;
  lumping.representatives.clear();
  for (std::size_t s = 0; s < n; ++s) {
    const auto [it, inserted] = order.emplace(lumping.block_of[s], order.size());
    if (inserted) lumping.representatives.push_back(s);
    lumping.block_of[s] = it->second;
  }
  lumping.block_count = order.size();
  return lumping;
}

Generator Lumping::quotient(const Generator& full) const {
  CHOREO_ASSERT(block_of.size() == full.state_count());
  std::vector<RatedTransition> transitions;
  const CsrMatrix q = full.rows();
  for (std::size_t b = 0; b < block_count; ++b) {
    const std::size_t representative = representatives[b];
    std::map<std::size_t, double> into;
    const auto columns = q.row_columns(representative);
    const auto values = q.row_values(representative);
    for (std::size_t k = 0; k < columns.size(); ++k) {
      if (columns[k] == representative) continue;
      const std::size_t target_block = block_of[columns[k]];
      if (target_block == b) continue;  // internal moves vanish
      into[target_block] += values[k];
    }
    for (const auto& [target, rate] : into) {
      transitions.push_back({b, target, rate});
    }
  }
  return Generator::build(block_count, transitions);
}

std::vector<double> Lumping::aggregate(
    const std::vector<double>& distribution) const {
  CHOREO_ASSERT(distribution.size() == block_of.size());
  std::vector<double> out(block_count, 0.0);
  for (std::size_t s = 0; s < distribution.size(); ++s) {
    out[block_of[s]] += distribution[s];
  }
  return out;
}

std::vector<double> Lumping::lift_uniform(
    const std::vector<double>& block_distribution, std::size_t state_count) const {
  CHOREO_ASSERT(block_distribution.size() == block_count);
  CHOREO_ASSERT(block_of.size() == state_count);
  std::vector<std::size_t> sizes(block_count, 0);
  for (std::size_t s = 0; s < state_count; ++s) ++sizes[block_of[s]];
  std::vector<double> out(state_count, 0.0);
  for (std::size_t s = 0; s < state_count; ++s) {
    out[s] = block_distribution[block_of[s]] /
             static_cast<double>(sizes[block_of[s]]);
  }
  return out;
}

void check_lumpable(const Generator& generator, const Lumping& lumping,
                    double tolerance) {
  const std::size_t n = generator.state_count();
  const CsrMatrix q = generator.rows();
  // For each block, every member must share the representative's
  // block-level outgoing rates.
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t b = lumping.block_of[s];
    const auto mine = signature_of(q, s, lumping.block_of);
    const auto reference =
        signature_of(q, lumping.representatives[b], lumping.block_of);
    if (mine.size() != reference.size()) {
      throw util::NumericError(util::msg("partition not lumpable: state ", s,
                                         " disagrees with block ", b,
                                         "'s representative"));
    }
    for (std::size_t k = 0; k < mine.size(); ++k) {
      if (mine[k].first != reference[k].first ||
          std::abs(mine[k].second - reference[k].second) > tolerance) {
        throw util::NumericError(util::msg(
            "partition not lumpable: state ", s, " has rate ", mine[k].second,
            " into block ", mine[k].first, ", representative has ",
            reference[k].second));
      }
    }
  }
}

}  // namespace choreo::ctmc
