// Unit tests for the CTMC engine: sparse matrices, generators, steady-state
// solvers (validated against closed-form birth-death results), transient
// uniformisation, and reward structures.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "ctmc/generator.hpp"
#include "ctmc/sparse.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "generator_oracle.hpp"
#include "pepa/families.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "util/error.hpp"

namespace cc = choreo::ctmc;
namespace cu = choreo::util;
namespace cp = choreo::pepa;
namespace ct = choreo::test;

using ct::scrambled_transitions;

// Parallel transitions accumulate in input order: 1e16 + 1 + 1 summed left
// to right rounds back to 1e16, while any other order gives 1e16 + 2.
TEST(Sparse, DuplicatesSumInInsertionOrder) {
  const double big = 1e16;
  const auto g = cc::Generator::build(
      2, {{0, 1, big}, {0, 1, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}});
  const double expected = (big + 1.0) + 1.0;
  ASSERT_NE(expected, big + 2.0);
  EXPECT_EQ(g.values()[g.structure().row_ptr[1]], expected);  // Q^T[1][0]
  EXPECT_EQ(g.rows().at(0, 1), expected);
  EXPECT_EQ(g.exit_rate(0), expected);
}

// at() binary-searches the column-sorted row, so lookups on wide rows must
// stay exact for every present column and zero everywhere between them.
TEST(Sparse, AtBinarySearchesWideRows) {
  std::vector<cc::RatedTransition> transitions;
  double exit = 0.0;
  for (std::size_t col = 1; col < 101; col += 2) {
    transitions.push_back({0, col, static_cast<double>(col)});
    exit += static_cast<double>(col);
  }
  const cc::CsrMatrix m = cc::Generator::build(128, transitions).rows();
  EXPECT_EQ(m.nonzeros(), 51u);  // 50 rates and the diagonal
  for (std::size_t col = 0; col < 128; ++col) {
    const double expected = col == 0 ? -exit
                            : (col % 2 == 1 && col < 101)
                                ? static_cast<double>(col)
                                : 0.0;
    EXPECT_DOUBLE_EQ(m.at(0, col), expected) << "column " << col;
  }
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);  // empty row
}

// rows() is the counting transpose of the solver form: transposing Q back
// gives every Q^T entry, and Q's diagonal is the negated exit rate.
TEST(Sparse, TransposeInvolution) {
  const auto g = cc::Generator::build(
      4, {{0, 1, 1.5}, {1, 3, 2.0}, {3, 0, 4.0}, {2, 2, 7.0}, {3, 1, 0.5}});
  const cc::CsrMatrix q = g.rows();
  std::size_t entries = 0;
  for (std::size_t j = 0; j < g.state_count(); ++j) {
    for (std::uint32_t k = g.structure().row_ptr[j];
         k < g.structure().row_ptr[j + 1]; ++k) {
      EXPECT_EQ(q.at(g.structure().columns[k], j), g.values()[k]);
      ++entries;
    }
    EXPECT_EQ(q.at(j, j), g.exit_rate(j) > 0.0 ? -g.exit_rate(j) : 0.0);
    if (g.exit_rate(j) > 0.0) ++entries;
  }
  EXPECT_EQ(q.nonzeros(), entries);
  EXPECT_DOUBLE_EQ(q.at(0, 1), 1.5);
  EXPECT_TRUE(q.row_columns(2).empty());  // only a self-loop
}

// y = Q^T x, with the diagonal term at its place in each row.
TEST(Sparse, MultiplyMatchesDense) {
  // Q = [[-3, 2, 1], [3, -3, 0], [0, 0.5, -0.5]]
  const auto g = cc::Generator::build(
      3, {{0, 1, 2.0}, {0, 2, 1.0}, {1, 0, 3.0}, {2, 1, 0.5}});
  std::vector<double> x{1.0, 2.0, 3.0}, y(3);
  g.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], -2.5);
  EXPECT_DOUBLE_EQ(y[2], -0.5);
}

TEST(Generator, DiagonalBalancesRows) {
  auto g = cc::Generator::build(2, {{0, 1, 3.0}, {1, 0, 1.0}});
  g.validate();
  EXPECT_DOUBLE_EQ(g.exit_rate(0), 3.0);
  EXPECT_DOUBLE_EQ(g.exit_rate(1), 1.0);
  EXPECT_DOUBLE_EQ(g.max_exit_rate(), 3.0);
}

TEST(Generator, SelfLoopsIgnored) {
  auto g = cc::Generator::build(2, {{0, 0, 9.0}, {0, 1, 1.0}, {1, 0, 1.0}});
  EXPECT_DOUBLE_EQ(g.exit_rate(0), 1.0);
}

TEST(Generator, RejectsNonPositiveRates) {
  EXPECT_THROW(cc::Generator::build(2, {{0, 1, 0.0}}), cu::ModelError);
  EXPECT_THROW(cc::Generator::build(2, {{0, 1, -1.0}}), cu::ModelError);
}

// Columns are 32-bit state ids: a larger chain is refused before anything
// is allocated.
TEST(Generator, RejectsStateCountsBeyond32Bits) {
  EXPECT_THROW(cc::Generator::build(std::size_t{1} << 32, {}), cu::ModelError);
}

TEST(Generator, DetectsAbsorbingStates) {
  auto g = cc::Generator::build(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  const auto absorbing = g.absorbing_states();
  ASSERT_EQ(absorbing.size(), 1u);
  EXPECT_EQ(absorbing[0], 2u);
}

// --- assembly oracle ----------------------------------------------------------
//
// A deliberately naive reference assembly: every (row, col) entry is summed
// in input order from 0.0, each diagonal is the negated exit sum (also in
// input order, self-loops excluded), and zero sums are dropped.  The
// library's solver form (Q^T without its diagonal, and the exit rates), its
// Q from rows() and its max exit rate must match it bit for bit, whatever
// the input order.

namespace {

using SparseRows = std::vector<std::map<std::size_t, double>>;

struct ReferenceGenerator {
  SparseRows q;
  SparseRows qt;
  double max_exit_rate = 0.0;
};

SparseRows transpose(const SparseRows& rows) {
  SparseRows out(rows.size());
  for (std::size_t row = 0; row < rows.size(); ++row) {
    for (const auto& [col, value] : rows[row]) out[col][row] = value;
  }
  return out;
}

void drop_zero_sums(SparseRows& rows) {
  for (auto& row : rows) {
    std::erase_if(row, [](const auto& entry) { return entry.second == 0.0; });
  }
}

template <typename Transitions>
ReferenceGenerator reference_generator(std::size_t n,
                                       const Transitions& transitions) {
  using Transition = typename Transitions::value_type;
  ReferenceGenerator ref;
  ref.q.resize(n);
  std::vector<double> exit(n, 0.0);
  for (const Transition& t : transitions) {
    if (t.source == t.target) continue;
    ref.q[t.source][t.target] += t.rate;
    exit[t.source] += t.rate;
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (exit[s] > 0.0) ref.q[s][s] = -exit[s];
    ref.max_exit_rate = std::max(ref.max_exit_rate, exit[s]);
  }
  drop_zero_sums(ref.q);
  ref.qt = transpose(ref.q);
  return ref;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same_matrix(const cc::CsrMatrix& matrix, const SparseRows& rows,
                        const char* what) {
  ASSERT_EQ(matrix.size(), rows.size()) << what;
  std::size_t nonzeros = 0;
  for (std::size_t row = 0; row < rows.size(); ++row) {
    const auto columns = matrix.row_columns(row);
    const auto values = matrix.row_values(row);
    ASSERT_EQ(columns.size(), rows[row].size()) << what << " row " << row;
    std::size_t k = 0;
    for (const auto& [col, value] : rows[row]) {
      EXPECT_EQ(columns[k], col) << what << " row " << row;
      EXPECT_EQ(bits(values[k]), bits(value))
          << what << "[" << row << "][" << col << "] = " << values[k]
          << ", reference " << value;
      ++k;
    }
    nonzeros += rows[row].size();
  }
  EXPECT_EQ(matrix.nonzeros(), nonzeros) << what;
}

void expect_same_generator(const cc::Generator& generator,
                           const ReferenceGenerator& ref) {
  expect_same_matrix(generator.rows(), ref.q, "Q");
  const cc::Generator::Structure& structure = generator.structure();
  ASSERT_EQ(generator.state_count(), ref.qt.size());
  for (std::size_t j = 0; j < ref.qt.size(); ++j) {
    std::uint32_t k = structure.row_ptr[j];
    bool split_checked = false;
    for (const auto& [col, value] : ref.qt[j]) {
      if (col == j) continue;  // the diagonal: -exit rate, checked below
      if (col > j && !split_checked) {
        EXPECT_EQ(structure.split[j], k) << "split of row " << j;
        split_checked = true;
      }
      ASSERT_LT(k, structure.row_ptr[j + 1]) << "Q^T row " << j;
      EXPECT_EQ(structure.columns[k], col) << "Q^T row " << j;
      EXPECT_EQ(bits(generator.values()[k]), bits(value))
          << "Q^T[" << j << "][" << col << "] = " << generator.values()[k]
          << ", reference " << value;
      ++k;
    }
    EXPECT_EQ(k, structure.row_ptr[j + 1]) << "Q^T row " << j;
    if (!split_checked) {
      EXPECT_EQ(structure.split[j], k) << "split of row " << j;
    }
    const auto diagonal = ref.q[j].find(j);
    EXPECT_EQ(bits(generator.exit_rate(j)),
              bits(diagonal == ref.q[j].end() ? 0.0 : -diagonal->second))
        << "exit rate of " << j;
  }
  EXPECT_EQ(bits(generator.max_exit_rate()), bits(ref.max_exit_rate));
}

}  // namespace

TEST(AssemblyOracle, ScrambledInputMatchesReferenceBitForBit) {
  const std::size_t n = 40;
  const std::vector<cc::RatedTransition> transitions =
      scrambled_transitions(n);
  ASSERT_FALSE(std::is_sorted(
      transitions.begin(), transitions.end(),
      [](const auto& a, const auto& b) { return a.source < b.source; }));
  const cc::Generator generator = cc::Generator::build(n, transitions);
  expect_same_generator(generator, reference_generator(n, transitions));
  EXPECT_TRUE(generator.rows().row_columns(3).empty());
  EXPECT_TRUE(generator.rows().row_columns(5).empty());
}

TEST(AssemblyOracle, GroupedInputMatchesReferenceBitForBit) {
  const std::size_t n = 40;
  std::vector<cc::RatedTransition> transitions = scrambled_transitions(n);
  std::stable_sort(
      transitions.begin(), transitions.end(),
      [](const auto& a, const auto& b) { return a.source < b.source; });
  expect_same_generator(cc::Generator::build(n, transitions),
                        reference_generator(n, transitions));
}

// A derived state space is grouped by source; this one is larger than the
// size at which assembly used to split into parallel lanes.
TEST(AssemblyOracle, DerivedSpaceMatchesReferenceBitForBit) {
  cp::Model model = cp::ring(14);
  cp::Semantics semantics(model.arena());
  const cp::StateSpace space = cp::StateSpace::derive(semantics, model.system());
  ASSERT_GT(space.transitions().size(), std::size_t{1} << 15);
  const ReferenceGenerator ref =
      reference_generator(space.state_count(), space.transitions());
  expect_same_generator(space.generator(), ref);

  std::vector<cc::RatedTransition> copied;
  for (const cp::StateTransition& t : space.transitions()) {
    copied.push_back({t.source, t.target, t.rate});
  }
  expect_same_generator(cc::Generator::build(space.state_count(), copied), ref);
}

// The first offending transition in input order is reported, even when a
// later one has a smaller source (and would come first in row order).
TEST(AssemblyOracle, FirstNonPositiveRateInInputOrderIsReported) {
  auto message = [](std::size_t n,
                    const std::vector<cc::RatedTransition>& transitions) {
    try {
      cc::Generator::build(n, transitions);
    } catch (const cu::ModelError& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message(4, {{3, 1, 1.0}, {2, 1, 0.0}, {0, 2, 1.0}, {1, 0, -1.0},
                        {0, 1, 0.0}}),
            "transition 2 -> 1 has non-positive rate 0");
  EXPECT_EQ(message(4, {{0, 1, 1.0}, {1, 1, -2.0}, {1, 2, 0.0}, {3, 0, 1.0}}),
            "transition 1 -> 1 has non-positive rate -2");
  EXPECT_EQ(message(3, {{2, 0, 1.0},
                        {1, 2, std::numeric_limits<double>::infinity()},
                        {0, 1, -1.0}}),
            "transition 1 -> 2 has non-positive rate inf");
}

namespace {

/// A fresh rate payload for `count` transitions: scales from 1e-3 to 1e16,
/// so the order in which parallel transitions are summed shows in the low
/// bits.
std::vector<double> mixed_rates(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const double scales[] = {1e-3, 0.5, 1.0, 3.7, 1e16, 1.0 / 3.0};
  std::vector<double> rates(count);
  for (double& rate : rates) {
    rate = scales[rng() % std::size(scales)] *
           (1.0 + static_cast<double>(rng() % 1000) / 7.0);
  }
  return rates;
}

/// Transition i's node of a table of `node_count` rates: its own when there
/// is one per transition, else round robin, so entries and exit sums add
/// repeated nodes.
std::vector<std::uint32_t> round_robin_nodes(std::size_t transitions,
                                             std::size_t node_count) {
  std::vector<std::uint32_t> nodes(transitions);
  for (std::size_t i = 0; i < transitions; ++i) {
    nodes[i] = static_cast<std::uint32_t>(i % node_count);
  }
  return nodes;
}

/// A pattern recorded once from `transitions`, rated by `node_count`
/// nodes, fills, at three fresh rate tables, the generator the reference
/// builds from the same transitions carrying those rates.
template <typename Transitions>
void expect_pattern_fills_reference(std::size_t n,
                                    const Transitions& transitions,
                                    std::size_t node_count) {
  using Transition = typename Transitions::value_type;
  const std::span<const Transition> view(transitions);
  const std::vector<std::uint32_t> nodes =
      round_robin_nodes(transitions.size(), node_count);
  const cc::GeneratorPattern pattern(
      n, view, std::span<const std::uint32_t>(nodes), node_count);
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const std::vector<double> rates = mixed_rates(node_count, seed);
    std::vector<Transition> rated(transitions.begin(), transitions.end());
    for (std::size_t i = 0; i < rated.size(); ++i) rated[i].rate = rates[nodes[i]];
    SCOPED_TRACE(::testing::Message() << "payload seed " << seed << ", "
                                      << node_count << " nodes");
    expect_same_generator(pattern.fill(rates),
                          reference_generator(n, rated));
  }
}

}  // namespace

TEST(AssemblyOracle, PatternFillMatchesReferenceOnScrambledInput) {
  const std::vector<cc::RatedTransition> transitions = scrambled_transitions(40);
  expect_pattern_fills_reference(40, transitions, transitions.size());
  expect_pattern_fills_reference(40, transitions, 7);
}

TEST(AssemblyOracle, PatternFillMatchesReferenceOnGroupedInput) {
  std::vector<cc::RatedTransition> transitions = scrambled_transitions(40);
  std::stable_sort(
      transitions.begin(), transitions.end(),
      [](const auto& a, const auto& b) { return a.source < b.source; });
  expect_pattern_fills_reference(40, transitions, transitions.size());
  expect_pattern_fills_reference(40, transitions, 7);
}

TEST(AssemblyOracle, PatternFillMatchesReferenceOnDerivedSpace) {
  cp::Model model = cp::ring(14);
  cp::Semantics semantics(model.arena());
  const cp::StateSpace space = cp::StateSpace::derive(semantics, model.system());
  expect_pattern_fills_reference(space.state_count(), space.transitions(),
                                 space.transitions().size());
  expect_pattern_fills_reference(space.state_count(), space.transitions(), 5);
}

// The fill validates the rates as build_from() does: the first offending
// transition in input order is reported, with build_from()'s message, a
// self-loop counted in its place although it adds to no entry.
TEST(AssemblyOracle, PatternFillReportsTheFirstNonPositiveRateInInputOrder) {
  const std::vector<cc::RatedTransition> transitions = scrambled_transitions(40);
  const std::span<const cc::RatedTransition> view(transitions);
  auto message = [](auto&& assemble) {
    try {
      assemble();
    } catch (const cu::ModelError& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  auto expect_same_error = [&](const std::vector<std::uint32_t>& nodes,
                               const std::vector<double>& rates) {
    const cc::GeneratorPattern pattern(
        40, view, std::span<const std::uint32_t>(nodes), rates.size());
    std::vector<cc::RatedTransition> rated = transitions;
    for (std::size_t i = 0; i < rated.size(); ++i) rated[i].rate = rates[nodes[i]];
    const std::string expected =
        message([&] { cc::Generator::build(40, rated); });
    EXPECT_EQ(message([&] { pattern.fill(rates); }), expected);
    return expected;
  };

  std::vector<double> rates = mixed_rates(transitions.size(), 14);
  rates[200] = 0.0;
  rates[100] = -1.0;
  rates[300] = std::numeric_limits<double>::infinity();
  const std::string first = expect_same_error(
      round_robin_nodes(transitions.size(), transitions.size()), rates);
  EXPECT_NE(first.find("has non-positive rate -1"), std::string::npos)
      << first;

  // Shared nodes, the first self-loop rated by a node of its own: each node
  // alone made invalid is first used by a different transition.
  std::vector<std::uint32_t> nodes = round_robin_nodes(transitions.size(), 7);
  const auto loop = std::find_if(
      transitions.begin(), transitions.end(),
      [](const cc::RatedTransition& t) { return t.source == t.target; });
  ASSERT_NE(loop, transitions.end());
  nodes[static_cast<std::size_t>(loop - transitions.begin())] = 7;
  for (std::size_t node = 0; node < 8; ++node) {
    std::vector<double> shared = mixed_rates(8, 15);
    shared[node] = node % 2 == 0 ? 0.0 : -2.5;
    SCOPED_TRACE(::testing::Message() << "node " << node);
    const std::string error = expect_same_error(nodes, shared);
    EXPECT_NE(error, "no error");
    if (node == 7) {
      EXPECT_EQ(error, cu::msg("transition ", loop->source, " -> ",
                               loop->target, " has non-positive rate -2.5"));
    }
  }
}

namespace {

/// Two-state chain: pi = (mu, lambda) / (lambda + mu).
cc::Generator two_state(double lambda, double mu) {
  return cc::Generator::build(2, {{0, 1, lambda}, {1, 0, mu}});
}

/// M/M/1/K birth-death chain with arrival lambda and service mu.
std::vector<cc::RatedTransition> mm1k_transitions(std::size_t k, double lambda,
                                                  double mu) {
  std::vector<cc::RatedTransition> transitions;
  for (std::size_t i = 0; i < k; ++i) {
    transitions.push_back({i, i + 1, lambda});
    transitions.push_back({i + 1, i, mu});
  }
  return transitions;
}

cc::Generator mm1k(std::size_t k, double lambda, double mu) {
  return cc::Generator::build(k + 1, mm1k_transitions(k, lambda, mu));
}

std::vector<double> mm1k_exact(std::size_t k, double lambda, double mu) {
  const double rho = lambda / mu;
  std::vector<double> pi(k + 1);
  double sum = 0.0;
  for (std::size_t i = 0; i <= k; ++i) {
    pi[i] = std::pow(rho, static_cast<double>(i));
    sum += pi[i];
  }
  for (double& p : pi) p /= sum;
  return pi;
}

}  // namespace

class SteadyStateMethods : public ::testing::TestWithParam<cc::Method> {};

TEST_P(SteadyStateMethods, TwoStateClosedForm) {
  const double lambda = 2.0, mu = 5.0;
  cc::SolveOptions options;
  options.method = GetParam();
  const auto result = cc::steady_state(two_state(lambda, mu), options);
  ASSERT_EQ(result.distribution.size(), 2u);
  EXPECT_NEAR(result.distribution[0], mu / (lambda + mu), 1e-9);
  EXPECT_NEAR(result.distribution[1], lambda / (lambda + mu), 1e-9);
  EXPECT_EQ(result.method_used, GetParam());
}

TEST_P(SteadyStateMethods, Mm1kClosedForm) {
  const std::size_t k = 12;
  const double lambda = 1.4, mu = 2.0;
  cc::SolveOptions options;
  options.method = GetParam();
  const auto result = cc::steady_state(mm1k(k, lambda, mu), options);
  const auto exact = mm1k_exact(k, lambda, mu);
  for (std::size_t i = 0; i <= k; ++i) {
    EXPECT_NEAR(result.distribution[i], exact[i], 1e-8) << "state " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SteadyStateMethods,
                         ::testing::Values(cc::Method::kDenseLU,
                                           cc::Method::kJacobi,
                                           cc::Method::kGaussSeidel,
                                           cc::Method::kSor, cc::Method::kPower),
                         [](const auto& info) {
                           return cc::method_name(info.param) == std::string("dense-lu")
                                      ? "DenseLU"
                                  : info.param == cc::Method::kJacobi ? "Jacobi"
                                  : info.param == cc::Method::kGaussSeidel
                                      ? "GaussSeidel"
                                  : info.param == cc::Method::kSor ? "Sor"
                                                                   : "Power";
                         });

TEST(SteadyState, AutoPicksDenseForSmallChains) {
  const auto result = cc::steady_state(two_state(1.0, 1.0));
  EXPECT_EQ(result.method_used, cc::Method::kDenseLU);
}

TEST(SteadyState, AutoPicksIterativeForLargeChains) {
  const auto result = cc::steady_state(mm1k(600, 1.0, 2.0));
  EXPECT_EQ(result.method_used, cc::Method::kGaussSeidel);
  const auto exact = mm1k_exact(600, 1.0, 2.0);
  EXPECT_NEAR(result.distribution[0], exact[0], 1e-8);
}

TEST(SteadyState, SweepsRejectAbsorbingStates) {
  auto g = cc::Generator::build(2, {{0, 1, 1.0}});
  cc::SolveOptions options;
  options.method = cc::Method::kGaussSeidel;
  EXPECT_THROW(cc::steady_state(g, options), cu::NumericError);
}

TEST(SteadyState, PowerHandlesAbsorbingChain) {
  auto g = cc::Generator::build(3, {{0, 1, 1.0}, {1, 2, 2.0}});
  cc::SolveOptions options;
  options.method = cc::Method::kPower;
  const auto result = cc::steady_state(g, options);
  EXPECT_NEAR(result.distribution[2], 1.0, 1e-8);
}

TEST(SteadyState, EmptyChainRejected) {
  cc::Generator empty;
  EXPECT_THROW(cc::steady_state(empty), cu::NumericError);
}

TEST(SteadyState, DistributionSumsToOne) {
  const auto result = cc::steady_state(mm1k(30, 3.0, 2.0));  // unstable rho>1
  double sum = 0.0;
  for (double p : result.distribution) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Transient, ConvergesToSteadyState) {
  const auto g = mm1k(8, 1.0, 2.0);
  const auto pi = cc::steady_state(g).distribution;
  const auto result = cc::transient_from_state(g, 0, 200.0);
  for (std::size_t i = 0; i < pi.size(); ++i) {
    EXPECT_NEAR(result.distribution[i], pi[i], 1e-6);
  }
}

TEST(Transient, TimeZeroIsInitial) {
  const auto g = two_state(1.0, 1.0);
  const auto result = cc::transient_from_state(g, 1, 0.0);
  EXPECT_DOUBLE_EQ(result.distribution[1], 1.0);
}

TEST(Transient, TwoStateClosedForm) {
  // pi_1(t) = l/(l+m) (1 - exp(-(l+m) t)) starting from state 0.
  const double l = 2.0, m = 3.0;
  const auto g = two_state(l, m);
  for (double t : {0.1, 0.5, 1.0, 2.0}) {
    const auto result = cc::transient_from_state(g, 0, t);
    const double expected = l / (l + m) * (1.0 - std::exp(-(l + m) * t));
    EXPECT_NEAR(result.distribution[1], expected, 1e-8) << "t=" << t;
  }
}

TEST(Transient, LargeMeanDoesNotUnderflow) {
  const auto g = two_state(100.0, 150.0);
  const auto result = cc::transient_from_state(g, 0, 50.0);  // lambda*t >> 745
  EXPECT_NEAR(result.distribution[0] + result.distribution[1], 1.0, 1e-9);
  EXPECT_NEAR(result.distribution[1], 100.0 / 250.0, 1e-6);
}

TEST(Transient, RejectsBadInputs) {
  const auto g = two_state(1.0, 1.0);
  EXPECT_THROW(cc::transient(g, {1.0}, 1.0), cu::NumericError);
  EXPECT_THROW(cc::transient(g, {1.0, 0.0}, -1.0), cu::NumericError);
}

TEST(Transient, TighterEpsilonUsesMoreTerms) {
  const auto g = mm1k(6, 1.0, 2.0);
  cc::TransientOptions loose, tight;
  loose.epsilon = 1e-4;
  tight.epsilon = 1e-12;
  std::vector<double> initial(g.state_count(), 0.0);
  initial[0] = 1.0;
  const auto coarse = cc::transient(g, initial, 3.0, loose);
  const auto fine = cc::transient(g, initial, 3.0, tight);
  EXPECT_GT(fine.terms, coarse.terms);
  for (std::size_t s = 0; s < g.state_count(); ++s) {
    EXPECT_NEAR(coarse.distribution[s], fine.distribution[s], 1e-3);
  }
}

// --- the solver form against the oracle ----------------------------------
//
// tests/generator_oracle.hpp holds the full-Q/Q^T assembly and the solver
// loops over it; the solver form must reproduce them bit for bit.

TEST(GeneratorOracle, ScrambledTransitionsMatchBitForBit) {
  const std::size_t n = 40;
  std::vector<cc::RatedTransition> transitions = scrambled_transitions(n);
  for (const bool grouped : {false, true}) {
    if (grouped) {
      std::stable_sort(
          transitions.begin(), transitions.end(),
          [](const auto& a, const auto& b) { return a.source < b.source; });
    }
    const std::string what = grouped ? "grouped" : "scrambled";
    const cc::Generator generator = cc::Generator::build(n, transitions);
    const ct::OracleGenerator oracle = ct::oracle_generator(n, transitions);
    ct::expect_generator_matches_oracle(generator, oracle, what);
    ct::expect_every_solve_matches_oracle(generator, oracle, what);
  }
}

// The transient cases above, bit for bit against the oracle's
// uniformisation over the full Q^T.
TEST(Transient, MatchesTheOracleBitForBit) {
  auto expect_same = [](std::size_t n,
                        const std::vector<cc::RatedTransition>& transitions,
                        std::size_t from, double t, double epsilon) {
    const cc::Generator generator = cc::Generator::build(n, transitions);
    const ct::OracleGenerator oracle = ct::oracle_generator(n, transitions);
    std::vector<double> initial(n, 0.0);
    initial[from] = 1.0;
    cc::TransientOptions options;
    options.epsilon = epsilon;
    const cc::TransientResult result =
        cc::transient(generator, initial, t, options);
    ct::expect_same_doubles(result.distribution,
                            ct::oracle_transient(oracle, initial, t, epsilon),
                            "transient at t=" + std::to_string(t));
  };
  expect_same(9, mm1k_transitions(8, 1.0, 2.0), 0, 200.0, 1e-10);
  expect_same(2, {{0, 1, 1.0}, {1, 0, 1.0}}, 1, 0.0, 1e-10);
  for (const double t : {0.1, 0.5, 1.0, 2.0}) {
    expect_same(2, {{0, 1, 2.0}, {1, 0, 3.0}}, 0, t, 1e-10);
  }
  expect_same(2, {{0, 1, 100.0}, {1, 0, 150.0}}, 0, 50.0, 1e-10);
  for (const double epsilon : {1e-4, 1e-12}) {
    expect_same(7, mm1k_transitions(6, 1.0, 2.0), 0, 3.0, epsilon);
  }
}
