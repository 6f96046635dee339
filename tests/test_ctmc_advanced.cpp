// Tests for the advanced CTMC analyses: ordinary lumpability, first-passage
// times (the ipc-style analysis), and PRISM explicit-format export.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "ctmc/labelled_lumping.hpp"
#include "ctmc/lumping.hpp"
#include "ctmc/passage.hpp"
#include "ctmc/prism_export.hpp"
#include "ctmc/steady_state.hpp"
#include "generator_oracle.hpp"
#include "pepa/parser.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "util/error.hpp"

namespace cc = choreo::ctmc;
namespace cp = choreo::pepa;
namespace cu = choreo::util;

namespace {

/// Two independent identical toggles: 4 states, lumpable to 3 (the mixed
/// states On|Off and Off|On are equivalent).
cc::Generator two_toggles(double up, double down) {
  // State encoding: 0 = (On,On), 1 = (On,Off), 2 = (Off,On), 3 = (Off,Off).
  return cc::Generator::build(4, {{0, 1, down},
                                  {0, 2, down},
                                  {1, 0, up},
                                  {1, 3, down},
                                  {2, 0, up},
                                  {2, 3, down},
                                  {3, 1, up},
                                  {3, 2, up}});
}

}  // namespace

TEST(Lumping, SymmetricReplicasCollapse) {
  const auto g = two_toggles(3.0, 2.0);
  const auto lumping = cc::compute_lumping(g);
  EXPECT_EQ(lumping.block_count, 3u);
  EXPECT_EQ(lumping.block_of[1], lumping.block_of[2]);  // mixed states merge
  EXPECT_NE(lumping.block_of[0], lumping.block_of[3]);
  cc::check_lumpable(g, lumping);
}

TEST(Lumping, QuotientSteadyStateMatchesAggregation) {
  const auto g = two_toggles(3.0, 2.0);
  const auto lumping = cc::compute_lumping(g);
  const auto quotient = lumping.quotient(g);
  quotient.validate();

  const auto pi_full = cc::steady_state(g).distribution;
  const auto pi_quotient = cc::steady_state(quotient).distribution;
  const auto aggregated = lumping.aggregate(pi_full);
  ASSERT_EQ(pi_quotient.size(), aggregated.size());
  for (std::size_t b = 0; b < aggregated.size(); ++b) {
    EXPECT_NEAR(pi_quotient[b], aggregated[b], 1e-10);
  }
}

TEST(Lumping, LiftUniformRecoversSymmetricDistribution) {
  const auto g = two_toggles(1.0, 1.0);
  const auto lumping = cc::compute_lumping(g);
  const auto pi_quotient = cc::steady_state(lumping.quotient(g)).distribution;
  const auto lifted = lumping.lift_uniform(pi_quotient, g.state_count());
  const auto pi_full = cc::steady_state(g).distribution;
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_NEAR(lifted[s], pi_full[s], 1e-10);
  }
}

TEST(Lumping, InitialPartitionIsRespected) {
  // Force the mixed states apart: the lumping must refine, never merge.
  const auto g = two_toggles(3.0, 2.0);
  std::vector<std::size_t> initial{0, 1, 2, 0};
  const auto lumping = cc::compute_lumping(g, initial);
  EXPECT_NE(lumping.block_of[1], lumping.block_of[2]);
  EXPECT_EQ(lumping.block_count, 4u);  // splitting 0/3 apart too
}

TEST(Lumping, AsymmetricChainDoesNotLump) {
  auto g = cc::Generator::build(
      3, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 3.0}});
  const auto lumping = cc::compute_lumping(g);
  EXPECT_EQ(lumping.block_count, 3u);  // coarsest lumping is trivial
}

TEST(Lumping, DetectsNonLumpablePartition) {
  const auto g = two_toggles(3.0, 2.0);
  cc::Lumping bad;
  bad.block_of = {0, 0, 1, 1};  // merges (On,On) with (On,Off): not lumpable
  bad.block_count = 2;
  bad.representatives = {0, 2};
  EXPECT_THROW(cc::check_lumpable(g, bad), cu::NumericError);
}

TEST(Lumping, PepaReplicasLumpExponentialGain) {
  // Three interleaved three-state clients: 27 states lump to the
  // population-vector quotient of C(3+2,2) = 10 blocks.
  auto model = cp::parse_model(R"(
    C = (req, 1.0).(wait, 2.0).(think, 3.0).C;
    S = C || C || C;
    @system S;
  )");
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  ASSERT_EQ(space.state_count(), 27u);
  const auto lumping = cc::compute_lumping(space.generator());
  EXPECT_EQ(lumping.block_count, 10u);
  const auto pi_full = cc::steady_state(space.generator()).distribution;
  const auto pi_quotient =
      cc::steady_state(lumping.quotient(space.generator())).distribution;
  const auto aggregated = lumping.aggregate(pi_full);
  for (std::size_t b = 0; b < lumping.block_count; ++b) {
    EXPECT_NEAR(pi_quotient[b], aggregated[b], 1e-9);
  }
}

TEST(Passage, TwoStateIsExponential) {
  const double rate = 2.5;
  auto g = cc::Generator::build(2, {{0, 1, rate}, {1, 0, 1.0}});
  EXPECT_NEAR(cc::mean_passage_time(g, 0, {1}), 1.0 / rate, 1e-10);
  // CDF at several points: 1 - exp(-rate t).
  std::vector<double> initial{1.0, 0.0};
  const std::vector<double> times{0.0, 0.1, 0.5, 1.0, 2.0};
  const auto cdf = cc::passage_cdf(g, initial, {1}, times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(cdf[i], 1.0 - std::exp(-rate * times[i]), 1e-7) << times[i];
  }
}

TEST(Passage, ErlangChainMeanIsSumOfStages) {
  // 0 ->(2) 1 ->(4) 2 ->(8) 3; mean passage 0->3 = 1/2 + 1/4 + 1/8.
  auto g = cc::Generator::build(
      4, {{0, 1, 2.0}, {1, 2, 4.0}, {2, 3, 8.0}, {3, 0, 1.0}});
  EXPECT_NEAR(cc::mean_passage_time(g, 0, {3}), 0.875, 1e-9);
  const auto all = cc::mean_passage_times(g, {3});
  EXPECT_NEAR(all[1], 0.375, 1e-9);
  EXPECT_NEAR(all[2], 0.125, 1e-9);
  EXPECT_DOUBLE_EQ(all[3], 0.0);
}

TEST(Passage, BranchingChainClosedForm) {
  // From 0: to 1 at rate a, to 2 at rate b; from 1 back to 0 at rate c.
  // Mean hitting time of {2}: m0 = 1/(a+b) + a/(a+b) (m1), m1 = 1/c + m0.
  const double a = 1.0, b = 3.0, c = 5.0;
  auto g = cc::Generator::build(3, {{0, 1, a}, {0, 2, b}, {1, 0, c}, {2, 0, 1.0}});
  const double p = a / (a + b);
  const double m0 = (1.0 / (a + b) + p / c) / (1.0 - p);
  EXPECT_NEAR(cc::mean_passage_time(g, 0, {2}), m0, 1e-9);
}

TEST(Passage, UnreachableTargetRejected) {
  auto g = cc::Generator::build(3, {{0, 1, 1.0}, {1, 0, 1.0}, {2, 0, 1.0}});
  EXPECT_THROW(cc::mean_passage_times(g, {2}), cu::NumericError);
  EXPECT_THROW(cc::mean_passage_times(g, {}), cu::NumericError);
}

TEST(Passage, CdfIsMonotoneAndConvergesToOne) {
  auto g = cc::Generator::build(
      4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 1.5}, {1, 0, 0.5}, {3, 0, 1.0}});
  std::vector<double> initial{1.0, 0.0, 0.0, 0.0};
  const auto cdf = cc::passage_cdf(g, initial, {3}, {0.5, 1.0, 2.0, 5.0, 50.0});
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i] + 1e-12, cdf[i - 1]);
  }
  EXPECT_NEAR(cdf.back(), 1.0, 1e-6);
}

TEST(Passage, PepaResponseTimeOrdering) {
  // Request -> response passage is shorter when the service rate is higher.
  auto passage = [](double service) {
    auto model = cp::parse_model(
        "Idle = (req, 1.0).Busy; Busy = (serve, " +
        std::to_string(service) + ").Idle; @system Idle;");
    cp::Semantics semantics(model.arena());
    const auto space = cp::StateSpace::derive(semantics, model.system());
    const auto busy = *space.index_of(model.term("Busy"));
    const auto idle = *space.index_of(model.term("Idle"));
    return cc::mean_passage_time(space.generator(), busy, {idle});
  };
  EXPECT_GT(passage(1.0), passage(4.0));
  EXPECT_NEAR(passage(2.0), 0.5, 1e-9);
}

// Every Passage.* model above: mean passage times, CDFs and densities bit
// for bit against the oracle's full-Q analysis (tests/generator_oracle.hpp).
TEST(Passage, MatchesTheOracleBitForBit) {
  namespace ct = choreo::test;
  auto expect_same = [](std::size_t n,
                        const std::vector<cc::RatedTransition>& transitions,
                        const std::vector<std::size_t>& targets,
                        const std::vector<double>& times) {
    const cc::Generator g = cc::Generator::build(n, transitions);
    const ct::OracleGenerator oracle = ct::oracle_generator(n, transitions);
    const std::string what = std::to_string(n) + "-state chain";
    ct::expect_same_doubles(cc::mean_passage_times(g, targets),
                            ct::oracle_mean_passage_times(oracle, targets),
                            what + " mean passage");
    std::vector<double> initial(n, 0.0);
    initial[0] = 1.0;
    ct::expect_same_doubles(
        cc::passage_cdf(g, initial, targets, times),
        ct::oracle_passage(oracle, initial, targets, times, false),
        what + " cdf");
    ct::expect_same_doubles(
        cc::passage_pdf(g, initial, targets, times),
        ct::oracle_passage(oracle, initial, targets, times, true),
        what + " pdf");
  };
  expect_same(2, {{0, 1, 2.5}, {1, 0, 1.0}}, {1}, {0.0, 0.1, 0.2, 0.5, 1.0, 2.0});
  expect_same(4, {{0, 1, 2.0}, {1, 2, 4.0}, {2, 3, 8.0}, {3, 0, 1.0}}, {3},
              {0.5, 1.0});
  expect_same(3, {{0, 1, 1.0}, {0, 2, 3.0}, {1, 0, 5.0}, {2, 0, 1.0}}, {2},
              {0.5, 2.0});
  std::vector<double> grid;
  for (int i = 0; i <= 200; ++i) grid.push_back(0.05 * i);
  grid.push_back(50.0);
  expect_same(4,
              {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 1.5}, {1, 0, 0.5}, {3, 0, 1.0}},
              {3}, grid);
  expect_same(4, {{0, 1, 2.0}, {1, 2, 2.0}, {2, 3, 2.0}, {3, 0, 1.0}}, {3},
              {0.0, 0.5, 1.0, 4.0});
  for (const double service : {1.0, 2.0, 4.0}) {
    auto model = cp::parse_model("Idle = (req, 1.0).Busy; Busy = (serve, " +
                                 std::to_string(service) +
                                 ").Idle; @system Idle;");
    cp::Semantics semantics(model.arena());
    const auto space = cp::StateSpace::derive(semantics, model.system());
    const auto idle = *space.index_of(model.term("Idle"));
    ct::expect_same_doubles(
        cc::mean_passage_times(space.generator(), {idle}),
        ct::oracle_mean_passage_times(
            ct::oracle_generator(space.state_count(), space.transitions()),
            {idle}),
        "response time at service " + std::to_string(service));
  }
}

TEST(PrismExport, TraFormat) {
  auto g = cc::Generator::build(2, {{0, 1, 2.5}, {1, 0, 1.0}});
  EXPECT_EQ(cc::to_prism_tra(g), "2 2\n0 1 2.5\n1 0 1\n");
}

TEST(PrismExport, StaFormat) {
  auto g = cc::Generator::build(2, {{0, 1, 1.0}, {1, 0, 1.0}});
  EXPECT_EQ(cc::to_prism_sta(g), "(s)\n0:(0)\n1:(1)\n");
}

TEST(PrismExport, LabFormatWithDeadlockAndExtras) {
  auto g = cc::Generator::build(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  const std::string lab =
      cc::to_prism_lab(g, 0, {{"target", {1, 2}}});
  EXPECT_EQ(lab,
            "0=\"init\" 1=\"deadlock\" 2=\"target\"\n"
            "0: 0\n"
            "1: 2\n"
            "2: 1 2\n");
}

TEST(PrismExport, WritesAllThreeFiles) {
  auto g = cc::Generator::build(2, {{0, 1, 1.0}, {1, 0, 2.0}});
  const std::string base = testing::TempDir() + "/choreo_prism";
  cc::write_prism_files(g, base, 0);
  for (const char* extension : {".tra", ".sta", ".lab"}) {
    std::ifstream stream(base + extension);
    EXPECT_TRUE(stream.good()) << extension;
  }
}

TEST(Passage, PdfIsExponentialForTwoState) {
  const double rate = 2.5;
  auto g = cc::Generator::build(2, {{0, 1, rate}, {1, 0, 1.0}});
  std::vector<double> initial{1.0, 0.0};
  const std::vector<double> times{0.0, 0.2, 0.5, 1.0};
  const auto pdf = cc::passage_pdf(g, initial, {1}, times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(pdf[i], rate * std::exp(-rate * times[i]), 1e-7) << times[i];
  }
}

TEST(Passage, PdfIntegratesToCdf) {
  // Trapezoidal integral of the pdf matches the CDF increments.
  auto g = cc::Generator::build(
      4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 1.5}, {1, 0, 0.5}, {3, 0, 1.0}});
  std::vector<double> initial{1.0, 0.0, 0.0, 0.0};
  std::vector<double> grid;
  for (int i = 0; i <= 200; ++i) grid.push_back(0.05 * i);
  const auto pdf = cc::passage_pdf(g, initial, {3}, grid);
  const auto cdf = cc::passage_cdf(g, initial, {3}, {grid.back()});
  double integral = 0.0;
  for (std::size_t i = 1; i < grid.size(); ++i) {
    integral += 0.5 * (pdf[i] + pdf[i - 1]) * (grid[i] - grid[i - 1]);
  }
  EXPECT_NEAR(integral, cdf[0], 2e-3);
}

TEST(Passage, ErlangPdfPeaksAfterZero) {
  // A 3-stage Erlang passage has f(0) = 0 and a strictly interior mode.
  auto g = cc::Generator::build(
      4, {{0, 1, 2.0}, {1, 2, 2.0}, {2, 3, 2.0}, {3, 0, 1.0}});
  std::vector<double> initial{1.0, 0.0, 0.0, 0.0};
  const std::vector<double> times{0.0, 0.5, 1.0, 4.0};
  const auto pdf = cc::passage_pdf(g, initial, {3}, times);
  EXPECT_NEAR(pdf[0], 0.0, 1e-9);
  EXPECT_GT(pdf[2], pdf[0]);
  EXPECT_GT(pdf[2], pdf[3]);
}

// --- lumping edge cases ----------------------------------------------------
// The boundary inputs the quotient-direct derivation leans on: empty and
// one-state chains, self-loop-only chains (the generator drops diagonal
// mass, the labelled quotient keeps it), idempotence on an already-lumped
// quotient, and the exact witness text of check_lumpable.

TEST(Lumping, EmptyGeneratorLumpsToNothing) {
  const auto g = cc::Generator::build(0, {});
  const auto lumping = cc::compute_lumping(g);
  EXPECT_EQ(lumping.block_count, 0u);
  EXPECT_TRUE(lumping.block_of.empty());
  EXPECT_TRUE(lumping.representatives.empty());
  cc::check_lumpable(g, lumping);  // vacuously lumpable, must not throw

  const auto labelled = cc::compute_labelled_lumping(0, {});
  EXPECT_EQ(labelled.block_count, 0u);
  EXPECT_TRUE(labelled.quotient_transitions.empty());
}

TEST(Lumping, SingleStateIsItsOwnBlock) {
  const auto g = cc::Generator::build(1, {});
  const auto lumping = cc::compute_lumping(g);
  EXPECT_EQ(lumping.block_count, 1u);
  ASSERT_EQ(lumping.block_of.size(), 1u);
  EXPECT_EQ(lumping.block_of[0], 0u);
  ASSERT_EQ(lumping.representatives.size(), 1u);
  EXPECT_EQ(lumping.representatives[0], 0u);
  cc::check_lumpable(g, lumping);

  const auto labelled = cc::compute_labelled_lumping(1, {});
  EXPECT_EQ(labelled.block_count, 1u);
}

TEST(Lumping, SelfLoopOnlyChainCollapsesAndKeepsLabelledLoops) {
  // Two states whose only activity is a self-loop: the bare generator
  // drops the diagonal, so both states have empty signatures and merge.
  const auto g = cc::Generator::build(2, {{0, 0, 2.0}, {1, 1, 2.0}});
  const auto lumping = cc::compute_lumping(g);
  EXPECT_EQ(lumping.block_count, 1u);
  cc::check_lumpable(g, lumping);

  // The labelled quotient must keep the self-loop: it carries throughput
  // even though it never moves the chain.
  const auto labelled = cc::compute_labelled_lumping(
      2, {{0, 0, /*label=*/7, 2.0}, {1, 1, /*label=*/7, 2.0}});
  EXPECT_EQ(labelled.block_count, 1u);
  ASSERT_EQ(labelled.quotient_transitions.size(), 1u);
  EXPECT_EQ(labelled.quotient_transitions[0].source,
            labelled.quotient_transitions[0].target);
  EXPECT_EQ(labelled.quotient_transitions[0].label, 7u);
  EXPECT_NEAR(labelled.quotient_transitions[0].rate, 2.0, 1e-12);
}

TEST(Lumping, IdempotentOnAnAlreadyLumpedQuotient) {
  // Re-lumping the quotient of the coarsest lumping must find nothing
  // further to merge — the coarsest partition is a fixed point.
  const auto g = two_toggles(3.0, 2.0);
  const auto lumping = cc::compute_lumping(g);
  ASSERT_EQ(lumping.block_count, 3u);
  const auto quotient = lumping.quotient(g);
  const auto again = cc::compute_lumping(quotient);
  EXPECT_EQ(again.block_count, lumping.block_count);
  for (std::size_t b = 0; b < again.block_of.size(); ++b) {
    EXPECT_EQ(again.block_of[b], b);  // identity partition on the quotient
  }
}

TEST(Lumping, CheckLumpableNamesTheWitness) {
  // 0 and 1 leave at different rates into {2}; merging them must produce
  // a witness that names the offending state and both rates.
  const auto g = cc::Generator::build(3, {{0, 2, 1.0}, {1, 2, 2.0}});
  cc::Lumping bad;
  bad.block_of = {0, 0, 1};
  bad.block_count = 2;
  bad.representatives = {0, 2};
  try {
    cc::check_lumpable(g, bad);
    FAIL() << "non-lumpable partition accepted";
  } catch (const cu::NumericError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("partition not lumpable: state 1"), std::string::npos)
        << what;
    EXPECT_NE(what.find("representative has"), std::string::npos) << what;
  }
}
