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
#include "ctmc/rewards.hpp"
#include "ctmc/sparse.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "pepa/families.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "util/error.hpp"

namespace cc = choreo::ctmc;
namespace cu = choreo::util;
namespace cp = choreo::pepa;

TEST(Sparse, FromTripletsAccumulatesDuplicates) {
  auto m = cc::CsrMatrix::from_triplets(
      3, {{0, 1, 1.0}, {0, 1, 2.0}, {2, 0, 5.0}, {1, 1, -3.0}});
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.nonzeros(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), -3.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(Sparse, ZeroSumEntriesAreDropped) {
  auto m = cc::CsrMatrix::from_triplets(2, {{0, 1, 2.0}, {0, 1, -2.0}});
  EXPECT_EQ(m.nonzeros(), 0u);
}

// at() binary-searches the column-sorted row, so lookups on wide rows must
// stay exact for every present column and zero everywhere between them.
TEST(Sparse, AtBinarySearchesWideRows) {
  std::vector<cc::Triplet> triplets;
  for (std::size_t col = 1; col < 101; col += 2) {
    triplets.push_back({0, col, static_cast<double>(col)});
  }
  auto m = cc::CsrMatrix::from_triplets(128, std::move(triplets));
  EXPECT_EQ(m.nonzeros(), 50u);
  for (std::size_t col = 0; col < 128; ++col) {
    const double expected =
        (col % 2 == 1 && col < 101) ? static_cast<double>(col) : 0.0;
    EXPECT_DOUBLE_EQ(m.at(0, col), expected) << "column " << col;
  }
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);  // empty row
}

// Duplicates accumulate in insertion order — the order that keeps the
// parallel assembly bit-identical to the sequential one.
TEST(Sparse, DuplicatesSumInInsertionOrder) {
  const double big = 1e16;
  // 1e16 + 1 - 1e16 == 2 in doubles when summed left to right (1e16 + 1
  // rounds to 1e16); any other order gives a different bit pattern.
  auto m = cc::CsrMatrix::from_triplets(
      2, {{0, 1, big}, {0, 1, 1.0}, {0, 1, 1.0}, {0, 1, -big}});
  EXPECT_EQ(m.at(0, 1), ((big + 1.0) + 1.0) - big);
}

TEST(Sparse, TransposeInvolution) {
  auto m = cc::CsrMatrix::from_triplets(
      4, {{0, 1, 1.5}, {1, 3, -2.0}, {3, 0, 4.0}, {2, 2, 7.0}});
  auto twice = m.transposed().transposed();
  EXPECT_EQ(twice.to_dense(), m.to_dense());
  EXPECT_DOUBLE_EQ(m.transposed().at(1, 0), 1.5);
}

TEST(Sparse, MultiplyMatchesDense) {
  auto m = cc::CsrMatrix::from_triplets(
      3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}, {2, 0, -1.0}});
  std::vector<double> x{1.0, 2.0, 3.0}, y(3);
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0);
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
// library's Q, Q^T and max exit rate must match it bit for bit, whatever
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

template <typename Transition>
ReferenceGenerator reference_generator(
    std::size_t n, const std::vector<Transition>& transitions) {
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
  expect_same_matrix(generator.matrix(), ref.q, "Q");
  expect_same_matrix(generator.matrix_transposed(), ref.qt, "Q^T");
  EXPECT_EQ(bits(generator.max_exit_rate()), bits(ref.max_exit_rate));
}

/// Unsorted sources, repeated (source, target) pairs, self-loops, a row of
/// self-loops only and rows with no transitions at all.  Rates mix scales
/// so the summation order shows in the low bits.
std::vector<cc::RatedTransition> scrambled_transitions(std::size_t n) {
  std::mt19937_64 rng(20060425);
  const double rates[] = {0.5, 1.0, 1e-3, 1e16, 3.7, 1.0 / 3.0};
  std::vector<cc::RatedTransition> out;
  for (std::size_t i = 0; i < 600; ++i) {
    std::size_t source = rng() % n;
    if (source % 7 == 3) continue;  // rows 3, 10, 17, ... stay empty
    const std::size_t target = i % 11 == 0 ? source : rng() % n;
    out.push_back({source, target, rates[rng() % std::size(rates)]});
    if (i % 5 == 0) out.push_back(out.back());  // an exact duplicate
  }
  out.push_back({5, 5, 2.0});  // row 5 holds only self-loops
  std::erase_if(out, [](const cc::RatedTransition& t) {
    return t.source == 5 && t.target != 5;
  });
  return out;
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
  EXPECT_TRUE(generator.matrix().row_columns(3).empty());
  EXPECT_TRUE(generator.matrix().row_columns(5).empty());
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

TEST(AssemblyOracle, TripletsSumInInputOrderAndDropZeros) {
  const std::size_t n = 12;
  std::mt19937_64 rng(7);
  const double values[] = {1e16, 1.0, -1e16, -1.0, 0.25, 2.5};
  std::vector<cc::Triplet> triplets;
  for (std::size_t i = 0; i < 300; ++i) {
    triplets.push_back({rng() % n, rng() % n, values[rng() % std::size(values)]});
  }
  triplets.push_back({4, 9, 3.0});
  triplets.push_back({4, 9, -3.0});  // a cancelling pair: dropped
  SparseRows reference(n);
  for (const cc::Triplet& t : triplets) reference[t.row][t.col] += t.value;
  drop_zero_sums(reference);
  const cc::CsrMatrix matrix = cc::CsrMatrix::from_triplets(n, triplets);
  expect_same_matrix(matrix, reference, "A");
  expect_same_matrix(matrix.transposed(), transpose(reference), "A^T");
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

/// A pattern recorded once from `transitions` fills, at three fresh rate
/// payloads, the generator the reference builds from the same transitions
/// carrying those rates.
template <typename Transition>
void expect_pattern_fills_reference(std::size_t n,
                                    const std::vector<Transition>& transitions) {
  const std::span<const Transition> view(transitions);
  const cc::GeneratorPattern pattern(
      cc::Generator::build_from<Transition>(n, view), view);
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const std::vector<double> rates = mixed_rates(transitions.size(), seed);
    std::vector<Transition> rated = transitions;
    for (std::size_t i = 0; i < rated.size(); ++i) rated[i].rate = rates[i];
    SCOPED_TRACE(::testing::Message() << "payload seed " << seed);
    expect_same_generator(pattern.fill(view, rates),
                          reference_generator(n, rated));
  }
}

}  // namespace

TEST(AssemblyOracle, PatternFillMatchesReferenceOnScrambledInput) {
  expect_pattern_fills_reference(40, scrambled_transitions(40));
}

TEST(AssemblyOracle, PatternFillMatchesReferenceOnGroupedInput) {
  std::vector<cc::RatedTransition> transitions = scrambled_transitions(40);
  std::stable_sort(
      transitions.begin(), transitions.end(),
      [](const auto& a, const auto& b) { return a.source < b.source; });
  expect_pattern_fills_reference(40, transitions);
}

TEST(AssemblyOracle, PatternFillMatchesReferenceOnDerivedSpace) {
  cp::Model model = cp::ring(14);
  cp::Semantics semantics(model.arena());
  const cp::StateSpace space = cp::StateSpace::derive(semantics, model.system());
  expect_pattern_fills_reference(space.state_count(), space.transitions());
}

// The fill validates the payload as build_from() does: the first offending
// rate in input order is reported, with build_from()'s message.
TEST(AssemblyOracle, PatternFillReportsTheFirstNonPositiveRateInInputOrder) {
  const std::vector<cc::RatedTransition> transitions = scrambled_transitions(40);
  const std::span<const cc::RatedTransition> view(transitions);
  const cc::GeneratorPattern pattern(cc::Generator::build(40, transitions),
                                     view);
  std::vector<double> rates = mixed_rates(transitions.size(), 14);
  rates[200] = 0.0;
  rates[100] = -1.0;
  rates[300] = std::numeric_limits<double>::infinity();
  std::vector<cc::RatedTransition> rated = transitions;
  for (std::size_t i = 0; i < rated.size(); ++i) rated[i].rate = rates[i];
  auto message = [](auto&& assemble) {
    try {
      assemble();
    } catch (const cu::ModelError& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  const std::string expected =
      message([&] { cc::Generator::build(40, rated); });
  EXPECT_NE(expected.find("has non-positive rate -1"), std::string::npos)
      << expected;
  EXPECT_EQ(message([&] { pattern.fill(view, rates); }), expected);
}

namespace {

/// Two-state chain: pi = (mu, lambda) / (lambda + mu).
cc::Generator two_state(double lambda, double mu) {
  return cc::Generator::build(2, {{0, 1, lambda}, {1, 0, mu}});
}

/// M/M/1/K birth-death chain with arrival lambda and service mu.
cc::Generator mm1k(std::size_t k, double lambda, double mu) {
  std::vector<cc::RatedTransition> transitions;
  for (std::size_t i = 0; i < k; ++i) {
    transitions.push_back({i, i + 1, lambda});
    transitions.push_back({i + 1, i, mu});
  }
  return cc::Generator::build(k + 1, transitions);
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

TEST(Rewards, ExpectationAndProbability) {
  const std::vector<double> pi{0.25, 0.5, 0.25};
  const std::vector<double> reward{0.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(cc::expectation(pi, reward), 2.0);
  EXPECT_DOUBLE_EQ(
      cc::probability(pi, [](std::size_t s) { return s != 1; }), 0.5);
}

TEST(Rewards, ThroughputSumsSourceWeightedRates) {
  const std::vector<double> pi{0.5, 0.5};
  const std::vector<cc::RatedTransition> transitions{{0, 1, 4.0}, {1, 0, 2.0}};
  EXPECT_DOUBLE_EQ(cc::throughput(pi, transitions), 3.0);
}

TEST(Rewards, FlowBalanceAtSteadyState) {
  // In steady state the throughput of the forward action equals the
  // throughput of the backward action in a two-state cycle.
  const double l = 2.7, m = 0.9;
  const auto g = two_state(l, m);
  const auto pi = cc::steady_state(g).distribution;
  const double forward = cc::throughput(pi, {{0, 1, l}});
  const double backward = cc::throughput(pi, {{1, 0, m}});
  EXPECT_NEAR(forward, backward, 1e-10);
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
