// Tests for the design-space sweep engine: spec expansion, parser rate
// provenance, structure-sharing rebind correctness against independent
// re-derivation, derive-once accounting, thread-count determinism, golden
// tables, and the multi-lane sweep on the shared pool.
#include <algorithm>
#include <bit>
#include <cctype>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fluid/analysis.hpp"
#include "generator_oracle.hpp"
#include "pepa/families.hpp"
#include "pepa/leaf_layout.hpp"
#include "pepa/parser.hpp"
#include "pepa/printer.hpp"
#include "service/cache.hpp"
#include "service/metrics.hpp"
#include "service/scheduler.hpp"
#include "sweep/rebind.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace choreo;

std::string tomcat_source(double locs) {
  std::ostringstream out;
  out << "req = 5.0; offp = 2.0;\n"
      << "locs = " << util::format_double(locs)
      << "; exec = 10.0; resp = 25.0;\n"
      << "GenerateRequest  = (request, req).WaitForResponse;\n"
      << "WaitForResponse  = (response, infty).ProcessResponse;\n"
      << "ProcessResponse  = (offlineProcessing, offp).GenerateRequest;\n"
      << "ServerIdle       = (request, infty).ProcessRequest;\n"
      << "ProcessRequest   = (locateservlet, locs).CompiledJavaCode;\n"
      << "CompiledJavaCode = (execute, exec).SendHTTPResponse;\n"
      << "SendHTTPResponse = (response, resp).ServerIdle;\n"
      << "System = GenerateRequest <request, response> ServerIdle;\n"
      << "@system System;\n";
  return out.str();
}

/// models/tomcat.pepa (the uncached JSP lifecycle: locate, translate,
/// compile) with `clients` replicated clients.
std::string tomcat_jsp_source(std::size_t clients) {
  return util::msg(
      "req = 5.0; offp = 2.0;\n"
      "locj = 20.0; tran = 0.5; comp = 0.8; exec = 10.0; resp = 25.0;\n"
      "GenerateRequest   = (request, req).WaitForResponse;\n"
      "WaitForResponse   = (response, infty).ProcessResponse;\n"
      "ProcessResponse   = (offlineProcessing, offp).GenerateRequest;\n"
      "ServerIdle        = (request, infty).ProcessRequest;\n"
      "ProcessRequest    = (locatejsp, locj).AccessJSPFile;\n"
      "AccessJSPFile     = (translate, tran).GeneratedJavaCode;\n"
      "GeneratedJavaCode = (compile, comp).CompiledJavaCode;\n"
      "CompiledJavaCode  = (execute, exec).SendHTTPResponse;\n"
      "SendHTTPResponse  = (response, resp).ServerIdle;\n"
      "System = GenerateRequest[",
      clients,
      "] <request, response> ServerIdle;\n"
      "@system System;\n");
}

/// bench_sweep's replicated client/server.  `r` rates the shared action
/// `request`, so sweeping it re-evaluates the cooperation rate law (and
/// the apparent rates behind it) at every state.
std::string client_server_source(std::size_t clients) {
  return util::msg(
      "r = 1.0; s = 2.0; t = 1.5;\n"
      "Client = (request, r).Wait;\n"
      "Wait   = (response, infty).Think;\n"
      "Think  = (think, t).Client;\n"
      "Server = (request, infty).Serve;\n"
      "Serve  = (response, s).Server;\n"
      "System = Client[",
      clients,
      "] <request, response> Server[2];\n"
      "@system System;\n");
}

// --- sweep specifications -------------------------------------------------

TEST(SweepSpec, LinearAxisIsInclusiveAndEvenlySpaced) {
  const sweep::Axis axis = sweep::Axis::linear("r", 1.0, 3.0, 5);
  ASSERT_EQ(axis.values.size(), 5u);
  EXPECT_DOUBLE_EQ(axis.values.front(), 1.0);
  EXPECT_DOUBLE_EQ(axis.values[2], 2.0);
  EXPECT_DOUBLE_EQ(axis.values.back(), 3.0);
}

TEST(SweepSpec, LogAxisIsGeometric) {
  const sweep::Axis axis = sweep::Axis::logspace("r", 1.0, 100.0, 3);
  ASSERT_EQ(axis.values.size(), 3u);
  EXPECT_NEAR(axis.values[0], 1.0, 1e-12);
  EXPECT_NEAR(axis.values[1], 10.0, 1e-12);
  EXPECT_NEAR(axis.values[2], 100.0, 1e-12);
}

TEST(SweepSpec, CartesianEnumeratesLastAxisFastest) {
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::list("a", {1.0, 2.0}),
               sweep::Axis::list("b", {10.0, 20.0, 30.0})};
  spec.validate();
  ASSERT_EQ(spec.point_count(), 6u);
  EXPECT_EQ(spec.point(0), (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(spec.point(1), (std::vector<double>{1.0, 20.0}));
  EXPECT_EQ(spec.point(3), (std::vector<double>{2.0, 10.0}));
  EXPECT_EQ(spec.point(5), (std::vector<double>{2.0, 30.0}));
}

TEST(SweepSpec, ZipPairsPositionByPosition) {
  sweep::SweepSpec spec;
  spec.combine = sweep::Combine::kZip;
  spec.axes = {sweep::Axis::list("a", {1.0, 2.0}),
               sweep::Axis::list("b", {10.0, 20.0})};
  spec.validate();
  ASSERT_EQ(spec.point_count(), 2u);
  EXPECT_EQ(spec.point(1), (std::vector<double>{2.0, 20.0}));
}

TEST(SweepSpec, ValidateRejectsIllFormedSpecs) {
  sweep::SweepSpec empty;
  EXPECT_THROW(empty.validate(), util::ModelError);

  sweep::SweepSpec nonpositive;
  nonpositive.axes = {sweep::Axis::list("a", {1.0, 0.0})};
  EXPECT_THROW(nonpositive.validate(), util::ModelError);

  sweep::SweepSpec duplicate;
  duplicate.axes = {sweep::Axis::list("a", {1.0}),
                    sweep::Axis::list("a", {2.0})};
  EXPECT_THROW(duplicate.validate(), util::ModelError);

  sweep::SweepSpec ragged;
  ragged.combine = sweep::Combine::kZip;
  ragged.axes = {sweep::Axis::list("a", {1.0, 2.0}),
                 sweep::Axis::list("b", {1.0})};
  EXPECT_THROW(ragged.validate(), util::ModelError);
}

TEST(SweepSpec, ParsesAxisSyntax) {
  const sweep::Axis linear = sweep::parse_axis("locs=2:80:40");
  EXPECT_EQ(linear.parameter, "locs");
  EXPECT_EQ(linear.values.size(), 40u);
  EXPECT_DOUBLE_EQ(linear.values.front(), 2.0);
  EXPECT_DOUBLE_EQ(linear.values.back(), 80.0);

  const sweep::Axis log = sweep::parse_axis("r=log:0.1:10:5");
  EXPECT_EQ(log.values.size(), 5u);
  EXPECT_NEAR(log.values[2], 1.0, 1e-12);

  const sweep::Axis list = sweep::parse_axis("s=1,2.5,7");
  EXPECT_EQ(list.values, (std::vector<double>{1.0, 2.5, 7.0}));

  const sweep::Axis single = sweep::parse_axis("s=4.25");
  EXPECT_EQ(single.values, (std::vector<double>{4.25}));

  EXPECT_THROW(sweep::parse_axis("noequals"), util::Error);
  EXPECT_THROW(sweep::parse_axis("r=1:2"), util::Error);
  EXPECT_THROW(sweep::parse_axis("r=1:2:notanumber"), util::Error);
}

// --- parser provenance ----------------------------------------------------

TEST(RateProvenance, SingleAndScaledParametersAreSweepable) {
  pepa::Model model = pepa::parse_model(
      "r = 1.0; s = 2.0;\n"
      "P = (fast, 2*r).Q;\n"
      "Q = (slow, s).P;\n"
      "@system P;\n",
      "provenance");
  // Both parameters resolve to clean tags: the rebinder accepts them.
  sweep::RateRebinder rebinder(model, {"r", "s"});
  EXPECT_EQ(rebinder.base_values(), (std::vector<double>{1.0, 2.0}));
}

TEST(RateProvenance, CompoundExpressionsMakeParametersOpaque) {
  pepa::Model model = pepa::parse_model(
      "r = 1.0;\n"
      "P = (a, r + 1).P;\n"
      "@system P;\n",
      "compound");
  EXPECT_TRUE(model.parameter_is_opaque("r"));
  EXPECT_THROW(sweep::RateRebinder(model, {"r"}), util::ModelError);
}

TEST(RateProvenance, DerivedParametersMakeTheirInputsOpaque) {
  pepa::Model model = pepa::parse_model(
      "r = 1.0; r2 = r * 2;\n"
      "P = (a, r).(b, r2).P;\n"
      "@system P;\n",
      "derived");
  // r2 was evaluated from r at parse time; sweeping r would leave r2 stale.
  EXPECT_TRUE(model.parameter_is_opaque("r"));
  EXPECT_FALSE(model.parameter_is_opaque("r2"));
  EXPECT_THROW(sweep::RateRebinder(model, {"r"}), util::ModelError);
  EXPECT_NO_THROW(sweep::RateRebinder(model, {"r2"}));
}

TEST(RateProvenance, HashConsingConflictWithLiteralIsDetected) {
  // Both prefixes intern to the same term (same action, rate value and
  // continuation) but only one was written through the parameter.
  pepa::Model model = pepa::parse_model(
      "r = 2.0;\n"
      "P = (a, r).Stop + (a, 2.0).Stop;\n"
      "@system P;\n",
      "conflict");
  EXPECT_TRUE(model.parameter_is_opaque("r"));
  EXPECT_THROW(sweep::RateRebinder(model, {"r"}), util::ModelError);
}

TEST(RateProvenance, UnusedParameterIsRejected) {
  pepa::Model model = pepa::parse_model(
      "r = 1.0; unused = 3.0;\n"
      "P = (a, r).P;\n"
      "@system P;\n",
      "unused");
  EXPECT_THROW(sweep::RateRebinder(model, {"unused"}), util::ModelError);
  EXPECT_THROW(sweep::RateRebinder(model, {"nosuch"}), util::ModelError);
}

// --- fingerprints ---------------------------------------------------------

TEST(Fingerprint, StructureIgnoresRateValuesButNotShape) {
  pepa::Model base = pepa::parse_model(tomcat_source(40.0), "base");
  pepa::Model other = pepa::parse_model(tomcat_source(7.5), "other");
  EXPECT_EQ(sweep::structure_fingerprint(base),
            sweep::structure_fingerprint(other));

  pepa::Model different = pepa::parse_model(
      "r_o = 2.0; r_r = 1.8; r_w = 1.2; r_c = 3.0;\n"
      "File      = (openread, r_o).InStream + (openwrite, r_o).OutStream;\n"
      "InStream  = (read, r_r).InStream + (close, r_c).File;\n"
      "OutStream = (write, r_w).OutStream + (close, r_c).File;\n"
      "@system File;\n",
      "file");
  EXPECT_NE(sweep::structure_fingerprint(base),
            sweep::structure_fingerprint(different));
}

TEST(Fingerprint, RatePayloadDistinguishesPoints) {
  pepa::Model model = pepa::parse_model(tomcat_source(40.0), "tomcat");
  sweep::RateRebinder rebinder(model, {"locs"});
  const std::vector<double> a{10.0};
  const std::vector<double> b{20.0};
  EXPECT_EQ(rebinder.rate_fingerprint(a), rebinder.rate_fingerprint(a));
  EXPECT_NE(rebinder.rate_fingerprint(a), rebinder.rate_fingerprint(b));
}

// --- rebind correctness ---------------------------------------------------

/// `source` with each of `parameters`' definitions ("name = value;")
/// rewritten to the matching entry of `values`: the model a sweep point
/// stands for, to be parsed afresh.
std::string with_values(std::string source,
                        const std::vector<std::string>& parameters,
                        const std::vector<double>& values) {
  for (std::size_t i = 0; i < parameters.size(); ++i) {
    const std::string key = parameters[i] + " = ";
    std::size_t at = source.find(key);
    // Skip matches inside a longer name ("locs = " holds "s = ").
    while (at != std::string::npos && at != 0 && source[at - 1] != ';' &&
           !std::isspace(static_cast<unsigned char>(source[at - 1]))) {
      at = source.find(key, at + 1);
    }
    if (at == std::string::npos) {
      ADD_FAILURE() << "no definition of " << parameters[i];
      continue;
    }
    const std::size_t begin = at + key.size();
    source.replace(begin, source.find(';', begin) - begin,
                   util::format_double(values[i]));
  }
  return source;
}

/// At every point, rebind_rates() expanded per transition must equal bit
/// for bit the transition rates of a fresh derivation of the model
/// re-parsed at the point's values, over the same transitions in the same
/// order.
void expect_rebind_matches_reparse(
    const std::string& source, const std::vector<std::string>& parameters,
    const std::vector<std::vector<double>>& points) {
  pepa::Model model = pepa::parse_model(source, "rebind");
  sweep::SharedStructure shared(model, parameters);
  const std::span<const pepa::StateTransition> base =
      shared.space().transitions();
  for (const std::vector<double>& values : points) {
    const std::vector<double> rates = shared.transition_rates(
        shared.rebind_rates(shared.rebinder().at(values)));
    pepa::Model reference = pepa::parse_model(
        with_values(source, parameters, values), "reference");
    pepa::Semantics semantics(reference.arena());
    const pepa::StateSpace fresh =
        pepa::StateSpace::derive(semantics, reference.system());
    ASSERT_EQ(fresh.state_count(), shared.space().state_count());
    ASSERT_EQ(fresh.transitions().size(), rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const pepa::StateTransition& t = fresh.transitions()[i];
      ASSERT_EQ(t.source, base[i].source) << "transition " << i;
      ASSERT_EQ(t.target, base[i].target) << "transition " << i;
      ASSERT_EQ(t.action, base[i].action) << "transition " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rates[i]),
                std::bit_cast<std::uint64_t>(t.rate))
          << "transition " << i << ": rebound " << rates[i] << ", re-parsed "
          << t.rate << " at " << parameters[0] << "=" << values[0];
    }
  }
}

TEST(SweepRunner, MatchesIndependentDerivationAtEveryPoint) {
  pepa::Model model = pepa::parse_model(tomcat_source(40.0), "tomcat");
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::list("locs", {10.0, 40.0, 80.0})};
  sweep::SweepOptions options;
  options.threads = 1;
  const sweep::SweepTable table = sweep::sweep(model, spec, options);

  ASSERT_EQ(table.rows.size(), 3u);
  EXPECT_EQ(table.derivations, 1u);
  for (const sweep::SweepRow& row : table.rows) {
    ASSERT_TRUE(row.ok()) << row.error;

    // Reference: a completely fresh parse + derivation + solve at this
    // point's rates.
    pepa::Model reference =
        pepa::parse_model(tomcat_source(row.values[0]), "reference");
    pepa::Semantics semantics(reference.arena());
    const pepa::StateSpace space =
        pepa::StateSpace::derive(semantics, reference.system());
    const ctmc::SolveResult solved = ctmc::steady_state(space.generator());
    ASSERT_EQ(table.measures.size(),
              reference.arena().action_count() - 1);
    for (pepa::ActionId action = 1;
         action < reference.arena().action_count(); ++action) {
      const double expected =
          space.lts().action_throughput(solved.distribution, action);
      EXPECT_NEAR(row.measures[action - 1], expected, 1e-9)
          << "action " << reference.arena().action_name(action)
          << " at locs=" << row.values[0];
    }
  }

  // The per-point rate payload itself, bit for bit: a private rate, a
  // scaled tag ("2*r") inside a cooperation, and a shared-action rate.
  expect_rebind_matches_reparse(tomcat_source(40.0), {"locs"},
                              {{10.0}, {40.0}, {80.0}});
  expect_rebind_matches_reparse(
      "r = 1.0; s = 3.0;\n"
      "P = (fast, 2*r).Q;\n"
      "Q = (slow, s).P;\n"
      "Sink = (fast, infty).Sink;\n"
      "System = P[3] <fast> Sink;\n"
      "@system System;\n",
      {"r"}, {{0.5}, {1.0}, {4.0}});
  expect_rebind_matches_reparse(client_server_source(4), {"r"},
                              {{0.3}, {1.0}, {3.7}});
}

// Models that reach every kind of rate-tape node (literal, swept axis,
// apparent sum, minimum, cooperation law) and every fold (a zero operand of
// a sum or minimum, a passive operand of a minimum), each checked at its
// base values and at two other points.
TEST(SweepRunner, RebindMatchesRemapOnEveryTapeNodeKind) {
  // Hiding a shared action: the cooperation's moves become tau moves, and
  // an outer cooperation on the hidden action finds no apparent rate.
  expect_rebind_matches_reparse(
      "r = 1.0; s = 2.0; t = 4.0;\n"
      "P = (a, r).P1; P1 = (b, s).P;\n"
      "Q = (a, infty).Q1; Q1 = (c, t).Q;\n"
      "R = (a, t).R + (d, s).R;\n"
      "System = ((P <a> Q) / {a}) <a> R;\n"
      "@system System;\n",
      {"r", "s"}, {{0.5, 2.0}, {1.0, 2.0}, {3.0, 0.25}});
  // Weighted passive cooperation: the passive side splits the active rate
  // 2:1 between its two branches.
  expect_rebind_matches_reparse(
      "r = 1.0; s = 2.0;\n"
      "P = (a, r).P;\n"
      "Q = (a, 2*infty).Q1 + (a, infty).Q2;\n"
      "Q1 = (b, s).Q; Q2 = (c, s).Q;\n"
      "System = P <a> Q;\n"
      "@system System;\n",
      {"r", "s"}, {{0.2, 7.0}, {1.0, 2.0}, {5.0, 0.5}});
  // A choice offering one action twice (an apparent-rate sum of two active
  // rates), against a partner that offers it twice passively.
  expect_rebind_matches_reparse(
      "r = 1.0; s = 3.0; u = 2.0;\n"
      "P = (a, r).P1 + (a, s).P2;\n"
      "P1 = (b, u).P; P2 = (c, u).P;\n"
      "Q = (a, infty).Q + (a, 3*infty).Q;\n"
      "System = P <a> Q;\n"
      "@system System;\n",
      {"r", "s"}, {{0.1, 3.0}, {1.0, 3.0}, {2.5, 0.7}});
  // Nested same-action cooperation, each level asking the apparent rate of
  // the one below: P <a> R offers min(r, infty), which folds to r; against
  // Q that gives min(r, s), a minimum of two actives; and S's cooperation
  // law takes the minimum of that and u.
  expect_rebind_matches_reparse(
      "r = 1.0; s = 2.0; t = 3.0; u = 1.5;\n"
      "P = (a, r).P1; P1 = (b, t).P;\n"
      "R = (a, infty).R1; R1 = (d, t).R;\n"
      "Q = (a, s).Q1; Q1 = (c, t).Q;\n"
      "S = (a, u).S1; S1 = (e, t).S;\n"
      "System = ((P <a> R) <a> Q) <a> S;\n"
      "@system System;\n",
      {"r", "s"}, {{0.5, 4.0}, {1.0, 2.0}, {6.0, 0.3}});
  // A self-loop, which the generator drops but the rates keep.
  expect_rebind_matches_reparse(
      "r = 1.0; s = 2.0;\n"
      "P = (spin, r).P + (go, s).Q;\n"
      "Q = (back, s).P;\n"
      "@system P;\n",
      {"r"}, {{0.5}, {1.0}, {9.0}});
}

/// Sweeps `source` over `axes` at `threads` lanes and requires every row's
/// measures to equal, bit for bit, the throughputs of the model re-parsed
/// at the row's values: derived afresh, assembled by build_from and solved
/// with the sweep's solver options.
void expect_sweep_rows_match_reparse(const std::string& source,
                                     const std::vector<sweep::Axis>& axes,
                                     std::size_t threads) {
  pepa::Model model = pepa::parse_model(source, "sweep");
  sweep::SweepSpec spec;
  spec.axes = axes;
  util::ThreadPool pool(threads);
  sweep::SweepOptions options;
  options.threads = threads;
  options.pool = &pool;
  const sweep::SweepTable table = sweep::sweep(model, spec, options);
  ASSERT_EQ(table.rows.size(), spec.point_count());
  for (const sweep::SweepRow& row : table.rows) {
    ASSERT_TRUE(row.ok()) << row.error;
    pepa::Model reference = pepa::parse_model(
        with_values(source, spec.parameter_names(), row.values), "reference");
    pepa::Semantics semantics(reference.arena());
    const pepa::StateSpace space =
        pepa::StateSpace::derive(semantics, reference.system());
    const ctmc::SolveResult solved =
        ctmc::steady_state(space.generator(), options.solver);
    ASSERT_EQ(row.measures.size(), reference.arena().action_count() - 1);
    for (pepa::ActionId action = 1; action < reference.arena().action_count();
         ++action) {
      const double expected =
          space.lts().action_throughput(solved.distribution, action);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row.measures[action - 1]),
                std::bit_cast<std::uint64_t>(expected))
          << table.measures[action - 1] << " at " << threads
          << " lanes: swept " << row.measures[action - 1] << ", re-parsed "
          << expected << " at " << axes[0].parameter << "=" << row.values[0];
    }
  }
}

/// The two generators are the same bit for bit: structure, values and
/// exit rates.
void expect_same_generator(const ctmc::Generator& actual,
                           const ctmc::Generator& expected,
                           const std::string& what) {
  EXPECT_EQ(actual.structure().row_ptr, expected.structure().row_ptr) << what;
  EXPECT_TRUE(std::equal(actual.structure().split.begin(),
                         actual.structure().split.end(),
                         expected.structure().split.begin(),
                         expected.structure().split.end()))
      << what;
  EXPECT_TRUE(std::equal(actual.structure().columns.begin(),
                         actual.structure().columns.end(),
                         expected.structure().columns.begin(),
                         expected.structure().columns.end()))
      << what;
  test::expect_same_doubles(actual.values(), expected.values(),
                            what + " values");
  test::expect_same_doubles(actual.exit_rates(), expected.exit_rates(),
                            what + " exit rates");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.max_exit_rate()),
            std::bit_cast<std::uint64_t>(expected.max_exit_rate()))
      << what;
}

// Sums of more than one rate: a state's a- and b-moves into one target
// merge into one generator entry, and every exit rate adds several
// transitions, while the c- and e-moves are self-loops, which add to no
// entry but are still checked in input order.  Every point's generator and
// throughputs must equal build_from's over the re-parsed model's derived
// rates, and every row the re-parsed solve's, at lanes {1, 2, nproc}.
TEST(SweepRunner, MergedEntriesAndSelfLoopsMatchBuildFrom) {
  const std::string source =
      "r = 1.0; s = 2.0; t = 3.0; u = 0.25;\n"
      "P = (c, u).P + (a, r).Q + (b, s).Q;\n"
      "Q = (d, t).P + (e, r).Q;\n"
      "System = P[3];\n"
      "@system System;\n";
  const std::vector<sweep::Axis> axes = {
      sweep::Axis::list("r", {0.3, 1.0, 7.0}),
      sweep::Axis::list("s", {0.5, 2.0})};
  sweep::SweepSpec spec;
  spec.axes = axes;

  pepa::Model model = pepa::parse_model(source, "merged");
  sweep::SharedStructure shared(model, spec.parameter_names());
  for (std::size_t p = 0; p < spec.point_count(); ++p) {
    const std::vector<double> rates =
        shared.rebind_rates(shared.rebinder().at(spec.point(p)));
    pepa::Model reference = pepa::parse_model(
        with_values(source, spec.parameter_names(), spec.point(p)),
        "reference");
    pepa::Semantics semantics(reference.arena());
    const pepa::StateSpace space =
        pepa::StateSpace::derive(semantics, reference.system());
    const ctmc::Generator expected = ctmc::Generator::build_from(
        space.state_count(), space.transitions());
    const std::string what = "point " + std::to_string(p);
    const ctmc::Generator generator = shared.generator(rates);
    expect_same_generator(generator, expected, what);
    ASSERT_GT(generator.structure().columns.size(), 0u);
    EXPECT_LT(generator.structure().columns.size(),
              space.transitions().size())
        << "no entry merges two transitions";
    const ctmc::SolveResult solved = ctmc::steady_state(expected);
    const std::vector<double> throughputs =
        shared.throughputs(solved.distribution, rates);
    for (pepa::ActionId action = 1; action < reference.arena().action_count();
         ++action) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(throughputs[action - 1]),
                std::bit_cast<std::uint64_t>(space.lts().action_throughput(
                    solved.distribution, action)))
          << what << ", action " << reference.arena().action_name(action);
    }
  }

  const std::size_t nproc =
      std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, nproc}) {
    expect_sweep_rows_match_reparse(source, axes, threads);
  }

  // Each tape node made invalid in turn: the generator reports build_from's
  // error for the first offending transition in input order.  State 0's
  // first transition is the self-loop rated u, whose node nothing earlier
  // uses.
  auto message = [](auto&& assemble) {
    try {
      assemble();
    } catch (const util::ModelError& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  const std::span<const pepa::StateTransition> base =
      shared.space().transitions();
  ASSERT_EQ(base[0].source, base[0].target);
  bool self_loop_reported = false;
  for (std::size_t node = 0; node < shared.tape_size(); ++node) {
    std::vector<double> rates =
        shared.rebind_rates(shared.rebinder().at(spec.point(0)));
    rates[node] = node % 2 == 0 ? -1.0 : 0.0;
    std::vector<pepa::StateTransition> rated(base.begin(), base.end());
    const std::vector<double> per_transition = shared.transition_rates(rates);
    for (std::size_t i = 0; i < rated.size(); ++i) {
      rated[i].rate = per_transition[i];
    }
    const std::string expected = message([&] {
      ctmc::Generator::build_from(
          shared.space().state_count(),
          std::span<const pepa::StateTransition>(rated));
    });
    EXPECT_EQ(message([&] { shared.generator(rates); }), expected)
        << "node " << node;
    self_loop_reported =
        self_loop_reported ||
        expected ==
            util::msg("transition 0 -> 0 has non-positive rate ", rates[node]);
  }
  EXPECT_TRUE(self_loop_reported);
}

/// Trees that are not a flat interleaving, with a sweep over each: a
/// dynamic leaf (a cooperation under a prefix, whose local terms' moves and
/// apparent rates the tape walk reaches), a hidden shared action under an
/// outer cooperation, and weighted passive partners under a replicated
/// operand.
struct NestedTree {
  std::string source;
  std::vector<sweep::Axis> axes;
  std::vector<std::vector<double>> points;
};

std::vector<NestedTree> nested_trees() {
  return {
      {"r = 1.0; s = 2.0; t = 3.0;\n"
       "Boot = (boot, r).(Work <sync> Help);\n"
       "Work = (sync, s).Rest; Rest = (tick, t).Work;\n"
       "Help = (sync, infty).Help2; Help2 = (tick, s).Help;\n"
       "Clock = (tick, infty).Clock;\n"
       "System = Boot <tick> Clock;\n"
       "@system System;\n",
       {sweep::Axis::list("s", {0.5, 2.0, 6.0}),
        sweep::Axis::list("t", {0.2, 3.0})},
       {{0.5, 0.2}, {2.0, 3.0}, {6.0, 1.5}}},
      {"r = 1.0; s = 2.0; t = 4.0;\n"
       "P = (a, r).P1; P1 = (b, s).P;\n"
       "Q = (a, infty).Q1 + (e, t).Q; Q1 = (c, t).Q;\n"
       "R = (a, t).R1 + (b, infty).R1; R1 = (d, s).R;\n"
       "System = ((P <a> Q) / {a}) <a, b> R;\n"
       "@system System;\n",
       {sweep::Axis::list("r", {0.5, 1.0, 3.0}),
        sweep::Axis::list("s", {0.25, 2.0})},
       {{0.5, 2.0}, {1.0, 2.0}, {3.0, 0.25}}},
      {"r = 1.0; s = 2.0;\n"
       "P = (a, r).P;\n"
       "Q = (a, 2*infty).Q1 + (a, infty).Q2;\n"
       "Q1 = (b, s).Q; Q2 = (c, s).Q;\n"
       "System = P <a> Q[2];\n"
       "@system System;\n",
       {sweep::Axis::list("r", {0.2, 1.0, 5.0}),
        sweep::Axis::list("s", {0.5, 7.0})},
       {{0.2, 7.0}, {1.0, 2.0}, {5.0, 0.5}}},
  };
}

// Each nested tree rebinds bit for bit like the re-parsed model, and its
// sweep rows match re-parsed solves.
TEST(SweepRunner, LeafLayoutRecordingMatchesReparseOnNestedTrees) {
  for (const NestedTree& c : nested_trees()) {
    SCOPED_TRACE(c.source);
    std::vector<std::string> parameters;
    for (const sweep::Axis& axis : c.axes) parameters.push_back(axis.parameter);
    expect_rebind_matches_reparse(c.source, parameters, c.points);
    expect_sweep_rows_match_reparse(c.source, c.axes, 1);
  }
}

/// The parameters of `model` a rebinder can sweep: those some prefix's rate
/// was written as.  A model built through the arena (the families) records
/// no rate provenance, so each of its active prefixes whose rate is a
/// parameter's value is first tagged with that parameter.
std::vector<std::string> sweepable_parameters(pepa::Model& model) {
  if (model.prefix_rate_tags().empty()) {
    const pepa::ProcessArena& arena = model.arena();
    for (pepa::ProcessId id = 0; id < arena.node_count(); ++id) {
      const pepa::ProcessNode& node = arena.node(id);
      if (node.op != pepa::Op::kPrefix || node.rate.is_passive()) continue;
      for (const auto& [name, value] : model.parameters()) {
        if (node.rate.value() == value) {
          model.note_prefix_rate(id, pepa::PrefixRateTag{name, 1.0});
          break;
        }
      }
    }
  }
  std::vector<std::string> parameters;
  for (const auto& [name, value] : model.parameters()) {
    if (model.parameter_is_opaque(name)) continue;
    for (const auto& [prefix, tag] : model.prefix_rate_tags()) {
      if (tag.parameter == name) {
        parameters.push_back(name);
        break;
      }
    }
  }
  return parameters;
}

/// The text of the util::Error that `run` throws, or empty.
template <typename Run>
std::string error_of(Run&& run) {
  try {
    run();
  } catch (const util::Error& error) {
    return error.what();
  }
  return {};
}

/// A tape walk over `model` agrees with `semantics` on each of `terms`: the
/// same derivatives in action and target, each rate's node worth the Rate
/// bit for bit at the base values, and the same apparent rate of every
/// action of the arena (or the same error computing one).
void expect_walks_agree(pepa::Model& model, pepa::Semantics& semantics,
                        std::span<const pepa::ProcessId> terms,
                        const std::string& what) {
  const sweep::RateRebinder rebinder(model, sweepable_parameters(model));
  sweep::RateTape tape;
  sweep::TapeWalk walk(model.arena(), sweep::TapeRecorder(rebinder, tape));
  const pepa::ProcessArena& arena = model.arena();
  auto same = [&walk](sweep::RateTape::NodeId node, const pepa::Rate& rate) {
    const pepa::Rate base = walk.algebra().base_rate(node);
    return base.is_passive() == rate.is_passive() &&
           std::bit_cast<std::uint64_t>(base.value()) ==
               std::bit_cast<std::uint64_t>(rate.value());
  };
  for (const pepa::ProcessId term : terms) {
    const std::string where = what + ": " + pepa::to_string(arena, term);
    std::span<const pepa::Derivative> expected;
    std::span<const sweep::TapeWalk::Move> moves;
    const std::string raised =
        error_of([&] { expected = semantics.derivatives(term); });
    EXPECT_EQ(error_of([&] { moves = walk.derivatives(term); }), raised)
        << where;
    if (raised.empty()) {
      ASSERT_EQ(moves.size(), expected.size()) << where;
      for (std::size_t j = 0; j < moves.size(); ++j) {
        EXPECT_EQ(moves[j].action, expected[j].action) << where << ", move " << j;
        EXPECT_EQ(moves[j].target, expected[j].target) << where << ", move " << j;
        EXPECT_TRUE(same(moves[j].rate, expected[j].rate))
            << where << ", move " << j << ": "
            << walk.algebra().base_rate(moves[j].rate).to_string() << " vs "
            << expected[j].rate.to_string();
      }
    }
    for (pepa::ActionId action = 0; action < arena.action_count(); ++action) {
      pepa::Rate rate;
      sweep::RateTape::NodeId node = sweep::TapeRecorder::kZero;
      const std::string apparent_raised =
          error_of([&] { rate = semantics.apparent_rate(term, action); });
      EXPECT_EQ(error_of([&] { node = walk.apparent_rate(term, action); }),
                apparent_raised)
          << where << ", apparent " << arena.action_name(action);
      if (apparent_raised.empty()) {
        EXPECT_TRUE(same(node, rate))
            << where << ", apparent " << arena.action_name(action) << ": "
            << walk.algebra().base_rate(node).to_string() << " vs "
            << rate.to_string();
      }
    }
  }
}

/// expect_walks_agree on every leaf-table term of `model`'s derive, and on
/// every local state of its vector form where the form builds.  Returns
/// whether the form built.
bool expect_walks_agree_on_local_terms(pepa::Model& model,
                                       const std::string& what) {
  pepa::Semantics semantics(model.arena());
  const pepa::StateSpace space =
      pepa::StateSpace::derive(semantics, model.system());
  std::vector<pepa::ProcessId> terms;
  for (std::uint32_t t = 0; t < space.layout().table_count(); ++t) {
    const std::vector<pepa::ProcessId>& local = space.layout().table(t).terms;
    terms.insert(terms.end(), local.begin(), local.end());
  }
  EXPECT_FALSE(terms.empty()) << what;
  expect_walks_agree(model, semantics, terms, what + " leaf tables");

  std::optional<fluid::VectorForm> form;
  error_of([&] { form = fluid::VectorForm::build(semantics, model.system()); });
  if (!form) return false;
  terms.clear();
  for (const fluid::Group& group : form->groups()) {
    terms.insert(terms.end(), group.states.begin(), group.states.end());
  }
  expect_walks_agree(model, semantics, terms, what + " vector form");
  return true;
}

// pepa's one SOS walk in its two algebras: the tape instance reproduces the
// Rate instance on every local term a sweep walks, targets included.
TEST(SweepRunner, TapeWalkMatchesTheRateWalkOnEveryLocalTerm) {
  std::size_t files = 0;
  std::size_t forms = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(CHOREO_MODELS_DIR)) {
    if (entry.path().extension() != ".pepa") continue;
    std::ifstream stream(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    pepa::Model model =
        pepa::parse_model(buffer.str(), entry.path().filename().string());
    forms += expect_walks_agree_on_local_terms(
        model, entry.path().filename().string());
    ++files;
  }
  EXPECT_GE(files, 3u);
  for (const auto& [clients, servers] :
       std::vector<std::pair<std::size_t, std::size_t>>{{4, 3}, {1, 1}}) {
    pepa::Model model = pepa::client_server(clients, {.servers = servers});
    forms += expect_walks_agree_on_local_terms(
        model, util::msg("client_server(", clients, ", ", servers, ")"));
  }
  {
    pepa::Model model = pepa::pda_handover(5, {.transmitters = 3});
    forms += expect_walks_agree_on_local_terms(model, "pda_handover(5, 3)");
  }
  {
    pepa::Model model = pepa::ring(8);
    forms += expect_walks_agree_on_local_terms(model, "ring(8)");
  }
  for (const NestedTree& c : nested_trees()) {
    pepa::Model model = pepa::parse_model(c.source, "nested");
    forms += expect_walks_agree_on_local_terms(model, c.source);
  }
  // The form builds for the model files, the families and one nested tree.
  EXPECT_GE(forms, 8u);
}

// rebind.hpp's promise: sweep set-up writes nothing into the model's arena.
// Every term the tape walk reaches was interned by the base derive (exact
// backend) or by the vector form's build (fluid backend).
TEST(SweepRunner, SetUpInternsNoTerm) {
  std::vector<std::pair<std::string, std::vector<sweep::Axis>>> models;
  for (const NestedTree& c : nested_trees()) models.emplace_back(c.source, c.axes);
  models.emplace_back(tomcat_jsp_source(3),
                      std::vector<sweep::Axis>{
                          sweep::Axis::list("tran", {0.2, 3.0}),
                          sweep::Axis::list("comp", {0.3, 2.0})});
  for (const auto& [source, axes] : models) {
    SCOPED_TRACE(source);
    sweep::SweepSpec spec;
    spec.axes = axes;
    {
      pepa::Model model = pepa::parse_model(source, "exact");
      {
        pepa::Semantics semantics(model.arena());
        pepa::StateSpace::derive(semantics, model.system());
      }
      const std::size_t derived = model.arena().node_count();
      const sweep::SharedStructure shared(model, spec.parameter_names());
      EXPECT_EQ(model.arena().node_count(), derived);
    }
    {
      pepa::Model model = pepa::parse_model(source, "fluid");
      {
        pepa::Semantics semantics(model.arena());
        error_of([&] { fluid::VectorForm::build(semantics, model.system()); });
      }
      const std::size_t built = model.arena().node_count();
      sweep::SweepOptions options;
      options.backend = sweep::Backend::kFluid;
      options.threads = 1;
      sweep::sweep(model, spec, options);
      EXPECT_EQ(model.arena().node_count(), built);
    }
  }
}

// A point whose arithmetic fails records the error the SOS raises there
// and leaves the other rows alone.
TEST(SweepRunner, OverflowingPointRecordsTheRateError) {
  pepa::Model model = pepa::parse_model(
      "r = 1.0; s = 3.0;\n"
      "P = (fast, 2*r).Q;\n"
      "Q = (slow, s).P;\n"
      "@system P;\n",
      "overflow");
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::list("r", {1.0, 1e308, 0.5})};
  sweep::SweepOptions options;
  options.threads = 1;
  const sweep::SweepTable table = sweep::sweep(model, spec, options);
  ASSERT_EQ(table.rows.size(), 3u);
  EXPECT_TRUE(table.rows[0].ok()) << table.rows[0].error;
  EXPECT_EQ(table.rows[1].error,
            "active rate must be positive and finite, got inf");
  EXPECT_TRUE(table.rows[2].ok()) << table.rows[2].error;
  EXPECT_EQ(table.rows[0].measures.size(), 2u);
  EXPECT_EQ(table.rows[2].measures.size(), 2u);
}

// The set-up check: every transition's (exact) or local derivative's
// (fluid) tape node must reproduce its derived rate bit for bit at the base
// values.  A swept rate written as r/3 is parsed as 5/3 but swept as
// (1/3)*5, which differs in the last bit, so the sweep is refused before
// any point runs; r/4 scales exactly.
TEST(SweepRunner, SetUpRefusesRatesTheTapeCannotReproduce) {
  auto source = [](const std::string& rate) {
    return "r = 5.0; s = 1.0;\nP = (a, " + rate +
           ").Q;\nQ = (b, s).P;\n@system P;\n";
  };
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::list("r", {5.0})};
  for (const sweep::Backend backend :
       {sweep::Backend::kExact, sweep::Backend::kFluid}) {
    sweep::SweepOptions options;
    options.backend = backend;
    options.threads = 1;
    pepa::Model inexact = pepa::parse_model(source("r/3"), "inexact");
    try {
      sweep::sweep(inexact, spec, options);
      ADD_FAILURE() << "r/3 at r = 5 was accepted by the "
                    << sweep::to_string(backend) << " backend";
    } catch (const util::ModelError& error) {
      EXPECT_NE(std::string(error.what()).find("do not reproduce"),
                std::string::npos)
          << error.what();
    }
    pepa::Model exact = pepa::parse_model(source("r/4"), "exact");
    const sweep::SweepTable table = sweep::sweep(exact, spec, options);
    EXPECT_TRUE(table.rows[0].ok()) << table.rows[0].error;
  }
}

// The tape holds one node per distinct rate expression; a lost hash-cons
// would grow it with the state space.
TEST(SweepRunner, TapeStaysSmallOnTheTomcatGrid) {
  pepa::Model model = pepa::parse_model(tomcat_jsp_source(10), "tomcat");
  const sweep::SharedStructure shared(model, {"tran", "comp"});
  EXPECT_EQ(shared.space().state_count(), 26624u);
  EXPECT_GT(shared.tape_size(), 0u);
  EXPECT_LE(shared.tape_size(), 64u);
}

TEST(SweepRunner, RowsRecordTheirSolverStats) {
  pepa::Model model = pepa::parse_model(tomcat_jsp_source(3), "tomcat");
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::list("tran", {0.2, 0.5, 3.0}),
               sweep::Axis::list("comp", {0.3, 2.0})};
  sweep::SweepOptions options;
  options.threads = 1;
  options.solver.method = ctmc::Method::kGaussSeidel;
  const sweep::SweepTable table = sweep::sweep(model, spec, options);
  ASSERT_EQ(table.rows.size(), 6u);
  for (const sweep::SweepRow& row : table.rows) {
    ASSERT_TRUE(row.ok()) << row.error;
    EXPECT_GT(row.iterations, 0u);
    EXPECT_LE(row.residual, options.solver.tolerance);
  }
  const std::string json = table.to_json();
  EXPECT_NE(json.find("\"iterations\": " +
                      std::to_string(table.rows[0].iterations)),
            std::string::npos);
  EXPECT_NE(json.find("\"residual\": "), std::string::npos);
}

TEST(SweepRunner, DerivesExactlyOnceForManyPoints) {
  pepa::Model model = pepa::parse_model(tomcat_source(40.0), "tomcat");
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::linear("locs", 2.0, 80.0, 25)};
  sweep::SweepOptions options;
  options.threads = 1;
  const sweep::SweepTable table = sweep::sweep(model, spec, options);

  EXPECT_EQ(table.derivations, 1u);
  EXPECT_GT(table.derive_stats.levels, 0u);
  EXPECT_GT(table.state_count, 0u);
  EXPECT_GT(table.transition_count, 0u);
  for (const sweep::SweepRow& row : table.rows) {
    EXPECT_TRUE(row.ok()) << row.error;
  }
}

/// Sweeps the Tomcat model over `spec` at 1, 2 and 8 lanes and requires
/// bit-identical tables.
void expect_identical_at_thread_counts(const sweep::SweepSpec& spec,
                                       sweep::Backend backend) {
  auto run = [&](std::size_t threads) {
    pepa::Model model = pepa::parse_model(tomcat_source(40.0), "tomcat");
    sweep::SweepOptions options;
    options.backend = backend;
    options.threads = threads;
    util::ThreadPool pool(threads);
    if (threads > 1) options.pool = &pool;
    return sweep::sweep(model, spec, options);
  };

  const sweep::SweepTable one = run(1);
  const sweep::SweepTable two = run(2);
  const sweep::SweepTable eight = run(8);

  ASSERT_EQ(one.rows.size(), 12u);
  ASSERT_EQ(two.rows.size(), one.rows.size());
  ASSERT_EQ(eight.rows.size(), one.rows.size());
  for (std::size_t r = 0; r < one.rows.size(); ++r) {
    EXPECT_EQ(one.rows[r].values, two.rows[r].values);
    EXPECT_EQ(one.rows[r].values, eight.rows[r].values);
    ASSERT_TRUE(one.rows[r].ok()) << one.rows[r].error;
    // Bit-identical, not just close: every per-point computation is
    // independent of the lane count.
    ASSERT_EQ(one.rows[r].measures.size(), two.rows[r].measures.size());
    ASSERT_EQ(one.rows[r].measures.size(), eight.rows[r].measures.size());
    for (std::size_t m = 0; m < one.rows[r].measures.size(); ++m) {
      EXPECT_EQ(one.rows[r].measures[m], two.rows[r].measures[m]);
      EXPECT_EQ(one.rows[r].measures[m], eight.rows[r].measures[m]);
    }
  }
  EXPECT_EQ(one.to_csv(), two.to_csv());
  EXPECT_EQ(one.to_csv(), eight.to_csv());
}

TEST(SweepRunner, TableIsIdenticalAtThreadCounts128) {
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::linear("locs", 5.0, 60.0, 4),
               sweep::Axis::linear("req", 2.0, 8.0, 3)};
  for (const sweep::Backend backend :
       {sweep::Backend::kExact, sweep::Backend::kFluid}) {
    SCOPED_TRACE(sweep::to_string(backend));
    expect_identical_at_thread_counts(spec, backend);
  }
}

// --- golden sweep tables ---------------------------------------------------
//
// The committed tables under tests/golden/ were written by the assembly and
// rebind code that predates the flat per-point storage; every later change
// must reproduce them byte for byte at every lane count.  Regenerate (only
// for an intentional format change) with:
//   CHOREO_GOLDEN_REGEN=1 ./tests/test_sweep --gtest_filter='SweepGolden.*'

std::string read_golden(const std::string& name) {
  std::ifstream stream(std::string(CHOREO_GOLDEN_DIR) + "/" + name,
                       std::ios::binary);
  EXPECT_TRUE(stream.good()) << "missing golden file " << name;
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return buffer.str();
}

/// Sweeps `source` at lane counts {1, 2, nproc} and compares each table's
/// CSV with tests/golden/<name>.
void expect_golden_sweep(const std::string& name, const std::string& source,
                         const sweep::SweepSpec& spec) {
  const std::size_t nproc =
      std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, nproc}) {
    pepa::Model model = pepa::parse_model(source, name);
    util::ThreadPool pool(threads);
    sweep::SweepOptions options;
    options.threads = threads;
    options.pool = &pool;
    const std::string csv = sweep::sweep(model, spec, options).to_csv();
    if (std::getenv("CHOREO_GOLDEN_REGEN") != nullptr) {
      if (threads == 1) {
        std::ofstream out(std::string(CHOREO_GOLDEN_DIR) + "/" + name,
                          std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write golden file " << name;
        out << csv;
      }
      continue;
    }
    EXPECT_EQ(csv, read_golden(name)) << name << " at " << threads
                                      << " threads";
  }
}

TEST(SweepGolden, TomcatTranslateCompileGrid) {
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::list("tran", {0.2, 0.5, 1.25, 3.0}),
               sweep::Axis::list("comp", {0.3, 0.8, 2.0, 5.0})};
  expect_golden_sweep("sweep_tomcat_tran_comp.csv", tomcat_jsp_source(4),
                      spec);
}

TEST(SweepGolden, ClientServerSharedActionRate) {
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::list("r", {0.25, 0.7, 1.0, 1.9, 4.5})};
  expect_golden_sweep("sweep_client_server_r.csv", client_server_source(6),
                      spec);
}

// Every point of the golden grids: the point's generator, filled over the
// shared pattern, matches the oracle's full-Q assembly of the same
// transitions at the point's rates, and its solve matches the oracle's bit
// for bit (tests/generator_oracle.hpp).  Every point's generator shares one
// structure: a point copies no index array.
TEST(SweepGolden, EveryPointMatchesTheGeneratorOracle) {
  struct Grid {
    std::string source;
    std::vector<sweep::Axis> axes;
  };
  const std::vector<Grid> grids = {
      {tomcat_jsp_source(4),
       {sweep::Axis::list("tran", {0.2, 0.5, 1.25, 3.0}),
        sweep::Axis::list("comp", {0.3, 0.8, 2.0, 5.0})}},
      {client_server_source(6),
       {sweep::Axis::list("r", {0.25, 0.7, 1.0, 1.9, 4.5})}}};
  for (const Grid& grid : grids) {
    sweep::SweepSpec spec;
    spec.axes = grid.axes;
    pepa::Model model = pepa::parse_model(grid.source, "golden");
    sweep::SharedStructure shared(model, spec.parameter_names());
    const std::span<const pepa::StateTransition> base =
        shared.space().transitions();
    const ctmc::Generator::Structure* structure = nullptr;
    for (std::size_t p = 0; p < spec.point_count(); ++p) {
      const std::vector<double> rates =
          shared.rebind_rates(shared.rebinder().at(spec.point(p)));
      const ctmc::Generator generator = shared.generator(rates);
      if (structure == nullptr) structure = &generator.structure();
      EXPECT_EQ(&generator.structure(), structure) << "point " << p;
      const std::vector<double> transition_rates =
          shared.transition_rates(rates);
      std::vector<pepa::StateTransition> rated(base.begin(), base.end());
      for (std::size_t i = 0; i < rated.size(); ++i) {
        rated[i].rate = transition_rates[i];
      }
      const test::OracleGenerator oracle =
          test::oracle_generator(shared.space().state_count(), rated);
      const std::string what = "point " + std::to_string(p);
      test::expect_generator_matches_oracle(generator, oracle, what);
      test::expect_solve_matches_oracle(generator, oracle,
                                        sweep::SweepOptions{}.solver, what);
    }
  }
}

// --- the multi-lane sweep on the shared pool --------------------------------

/// Fails the test process when the guarded scope outlives `limit`.  A join
/// blocked on a future never polls a util::Budget, so a deadline alone
/// cannot turn a deadlock into a failure.
class Watchdog {
 public:
  Watchdog(std::chrono::seconds limit, std::string what)
      : thread_([this, limit, what = std::move(what)] {
          std::unique_lock lock(mutex_);
          if (!done_cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::cerr << "watchdog: " << what << " did not finish within "
                      << limit.count() << " s" << std::endl;
            std::_Exit(EXIT_FAILURE);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    done_cv_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
  std::thread thread_;
};

// Each point runs as a pool task and assembles a generator of 82,944
// transitions, beyond the size at which assembly once forked lanes of its
// own.  Every join on the way must help drain the pool; a plain
// future.get() inside a worker-held point starves the points queued behind
// it and the sweep hangs.
TEST(SweepRunner, MultiLaneSweepOnTheSharedPoolCompletes) {
  pepa::Model model =
      pepa::parse_model(client_server_source(9), "client_server");
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::linear("r", 0.5, 4.0, 16)};
  util::Budget budget;
  budget.set_deadline_seconds(90.0);
  sweep::SweepOptions options;  // default threads on the shared pool
  options.budget = &budget;

  sweep::SweepTable table;
  {
    const Watchdog watchdog(std::chrono::seconds(120),
                            "the 16-point multi-lane sweep");
    table = sweep::sweep(model, spec, options);
  }
  EXPECT_EQ(table.state_count, 9728u);
  EXPECT_EQ(table.transition_count, 82944u);
  ASSERT_EQ(table.rows.size(), 16u);
  for (const sweep::SweepRow& row : table.rows) {
    EXPECT_TRUE(row.ok()) << row.error;
  }
}

TEST(SweepRunner, ScaledTagMatchesAnalyticThroughput) {
  pepa::Model model = pepa::parse_model(
      "r = 1.0; s = 3.0;\n"
      "P = (fast, 2*r).Q;\n"
      "Q = (slow, s).P;\n"
      "@system P;\n",
      "scaled");
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::list("r", {0.5, 1.0, 4.0})};
  sweep::SweepOptions options;
  options.threads = 1;
  const sweep::SweepTable table = sweep::sweep(model, spec, options);
  ASSERT_EQ(table.measures.size(), 2u);
  EXPECT_EQ(table.measures[0], "throughput:fast");
  for (const sweep::SweepRow& row : table.rows) {
    ASSERT_TRUE(row.ok()) << row.error;
    const double r = row.values[0];
    // Two-state cycle: throughput(fast) = 2r * s / (2r + s).
    const double expected = 2.0 * r * 3.0 / (2.0 * r + 3.0);
    EXPECT_NEAR(row.measures[0], expected, 1e-12);
    EXPECT_NEAR(row.measures[1], expected, 1e-12);  // slow balances fast
  }
}

TEST(SweepRunner, FailedPointsDoNotPoisonTheTable) {
  pepa::Model model = pepa::parse_model(tomcat_source(40.0), "tomcat");
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::list("locs", {10.0, 40.0})};
  sweep::SweepOptions options;
  options.threads = 1;
  options.solver.method = ctmc::Method::kPower;
  options.solver.max_iterations = 1;
  options.solver.tolerance = 1e-300;  // unreachable: every solve fails
  const sweep::SweepTable table = sweep::sweep(model, spec, options);
  ASSERT_EQ(table.rows.size(), 2u);
  for (const sweep::SweepRow& row : table.rows) {
    EXPECT_FALSE(row.ok());
    EXPECT_FALSE(row.error.empty());
  }
  EXPECT_EQ(table.derivations, 1u);  // the derivation itself succeeded
}

TEST(SweepRunner, FluidBackendNeverDerives) {
  pepa::Model model = pepa::parse_model(
      "r = 1.0; s = 2.0;\n"
      "Think = (task, r).Wait;\n"
      "Wait  = (reply, s).Think;\n"
      "Pop = Think[50];\n"
      "@system Pop;\n",
      "fluid");
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::list("r", {0.5, 1.0, 2.0})};
  sweep::SweepOptions options;
  options.threads = 1;
  options.backend = sweep::Backend::kFluid;
  const std::size_t nodes = model.arena().node_count();
  const std::size_t constants = model.arena().constant_count();
  const sweep::SweepTable table = sweep::sweep(model, spec, options);
  EXPECT_EQ(table.derivations, 0u);
  EXPECT_EQ(table.state_count, 0u);
  // Points refill one shared vector form: nothing is interned or declared.
  EXPECT_EQ(model.arena().node_count(), nodes);
  EXPECT_EQ(model.arena().constant_count(), constants);
  ASSERT_EQ(table.rows.size(), 3u);
  for (const sweep::SweepRow& row : table.rows) {
    ASSERT_TRUE(row.ok()) << row.error;
    for (const double measure : row.measures) {
      EXPECT_TRUE(std::isfinite(measure));
      EXPECT_GT(measure, 0.0);
    }
  }
  // More thinkers per unit time as r grows: throughput is monotone.
  EXPECT_LT(table.rows[0].measures[0], table.rows[1].measures[0]);
  EXPECT_LT(table.rows[1].measures[0], table.rows[2].measures[0]);
}

/// Sweeps `source` with the fluid backend over `axes` and requires every
/// row to equal, bit for bit, the fluid solve of the model re-parsed at the
/// row's values.
void expect_fluid_rows_match_reparse(const std::string& source,
                                     const std::vector<sweep::Axis>& axes) {
  pepa::Model model = pepa::parse_model(source, "fluid");
  sweep::SweepSpec spec;
  spec.axes = axes;
  sweep::SweepOptions options;
  options.threads = 1;
  options.backend = sweep::Backend::kFluid;
  const sweep::SweepTable table = sweep::sweep(model, spec, options);
  ASSERT_EQ(table.rows.size(), spec.point_count());
  for (const sweep::SweepRow& row : table.rows) {
    ASSERT_TRUE(row.ok()) << row.error;
    pepa::Model reference = pepa::parse_model(
        with_values(source, spec.parameter_names(), row.values), "reference");
    pepa::Semantics semantics(reference.arena());
    const fluid::FluidResult solved =
        fluid::solve_steady(semantics, reference.system());
    std::vector<double> expected(reference.arena().action_count() - 1, 0.0);
    for (const auto& [action, value] : solved.throughputs) {
      if (action != pepa::kTau) expected[action - 1] = value;
    }
    ASSERT_EQ(row.measures.size(), expected.size());
    for (std::size_t m = 0; m < expected.size(); ++m) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row.measures[m]),
                std::bit_cast<std::uint64_t>(expected[m]))
          << table.measures[m] << ": swept " << row.measures[m]
          << ", re-parsed " << expected[m] << " at " << axes[0].parameter
          << "=" << row.values[0];
    }
  }
}

TEST(SweepRunner, FluidRowsMatchTheReparsedSolveBitForBit) {
  // A passive cooperation: thinkers wait passively for a server's reply.
  expect_fluid_rows_match_reparse(
      "r = 1.0; s = 2.0;\n"
      "Think  = (work, r).Wait;\n"
      "Wait   = (reply, infty).Think;\n"
      "Server = (work, infty).Busy;\n"
      "Busy   = (reply, s).Server;\n"
      "System = Think[20] <work, reply> Server[2];\n"
      "@system System;\n",
      {sweep::Axis::list("r", {0.5, 1.0, 3.0}),
       sweep::Axis::list("s", {0.7, 2.0})});
  // A scaled tag ("2*r") on a shared action.
  expect_fluid_rows_match_reparse(
      "r = 1.0; s = 3.0;\n"
      "P = (fast, 2*r).Q;\n"
      "Q = (slow, s).P;\n"
      "Sink = (fast, infty).Sink;\n"
      "System = P[3] <fast> Sink;\n"
      "@system System;\n",
      {sweep::Axis::list("r", {0.5, 1.0, 4.0})});
  // Two prefixes with the same action and target: one local transition
  // whose rate is the sum of both derivatives' rates.
  expect_fluid_rows_match_reparse(
      "r = 1.0; s = 2.5; t = 4.0;\n"
      "P = (a, r).Q + (a, s).Q;\n"
      "Q = (b, t).P;\n"
      "System = P[10];\n"
      "@system System;\n",
      {sweep::Axis::list("r", {0.3, 1.0, 6.0}),
       sweep::Axis::list("s", {0.1, 2.5})});
}

// A model the vector form cannot represent fails every row with the form's
// own error; the sweep itself completes.
TEST(SweepRunner, FluidRowsCarryTheVectorFormError) {
  pepa::Model model = pepa::parse_model(
      "r = 1.0; s = 2.0;\n"
      "P = (a, r).P1; P1 = (b, s).P;\n"
      "Q = (a, infty).Q1; Q1 = (c, s).Q;\n"
      "System = (P <a> Q) / {a};\n"
      "@system System;\n",
      "hidden");
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::list("r", {0.5, 1.0, 2.0})};
  sweep::SweepOptions options;
  options.threads = 1;
  options.backend = sweep::Backend::kFluid;
  const sweep::SweepTable table = sweep::sweep(model, spec, options);
  ASSERT_EQ(table.rows.size(), 3u);
  for (const sweep::SweepRow& row : table.rows) {
    EXPECT_EQ(row.error,
              "fluid: hiding or choice over a composition cannot be "
              "represented as a sequential component");
    EXPECT_TRUE(row.measures.empty());
  }
}

TEST(SweepTable, CsvAndJsonAreWellFormed) {
  pepa::Model model = pepa::parse_model(tomcat_source(40.0), "tomcat");
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::list("locs", {10.0, 40.0})};
  sweep::SweepOptions options;
  options.threads = 1;
  const sweep::SweepTable table = sweep::sweep(model, spec, options);

  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("# structure=0x"), std::string::npos);
  EXPECT_NE(csv.find("locs,throughput:"), std::string::npos);
  // Header comment + column header + one line per point.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);

  const std::string json = table.to_json();
  EXPECT_NE(json.find("\"derivations\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
}

// --- the service's sweep job kind -----------------------------------------

std::string write_temp_model(const std::string& name,
                             const std::string& source) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary);
  out << source;
  EXPECT_TRUE(out.flush().good());
  return path;
}

TEST(SweepService, SchedulerDerivesOnceAndServesRepeatsFromCache) {
  const std::string path =
      write_temp_model("sweep_service_tomcat.pepa", tomcat_source(40.0));

  service::Registry registry;
  service::ResultCache cache({.registry = &registry});
  service::SchedulerOptions scheduler_options;
  scheduler_options.workers = 2;
  scheduler_options.cache = &cache;
  scheduler_options.registry = &registry;
  service::Scheduler scheduler(scheduler_options);

  service::JobRequest request;
  request.sweep.emplace();
  request.sweep->model_path = path;
  request.sweep->spec.axes = {sweep::Axis::linear("locs", 5.0, 100.0, 10)};

  const service::JobResult first = scheduler.submit(request).wait();
  ASSERT_EQ(first.status, service::JobStatus::kDone) << first.error;
  ASSERT_TRUE(first.sweep.has_value());
  EXPECT_EQ(first.sweep->rows.size(), 10u);
  EXPECT_EQ(first.sweep->derivations, 1u);
  EXPECT_EQ(first.sweep->points_from_cache, 0u);
  EXPECT_FALSE(first.from_cache);
  EXPECT_EQ(first.aggregation_used, chor::Aggregation::kNone);
  for (const sweep::SweepRow& row : first.sweep->rows) {
    ASSERT_TRUE(row.ok()) << row.error;
  }

  // A K-point sweep performs exactly one derivation, visible both on the
  // table and on the service metrics.
  EXPECT_EQ(registry.counter("choreo_sweep_derivations_total", "").value(),
            1u);
  EXPECT_EQ(registry.counter("choreo_sweep_points_total", "").value(), 10u);
  EXPECT_EQ(
      registry.counter("choreo_sweep_point_cache_hits_total", "").value(),
      0u);

  // The same sweep again: every point hits the per-point cache, no
  // derivation happens, and the table is identical.
  const service::JobResult second = scheduler.submit(request).wait();
  ASSERT_EQ(second.status, service::JobStatus::kDone) << second.error;
  ASSERT_TRUE(second.sweep.has_value());
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.attempts, 0u);
  EXPECT_EQ(second.sweep->derivations, 0u);
  EXPECT_EQ(second.sweep->points_from_cache, 10u);
  EXPECT_EQ(registry.counter("choreo_sweep_derivations_total", "").value(),
            1u);
  EXPECT_EQ(
      registry.counter("choreo_sweep_point_cache_hits_total", "").value(),
      10u);
  ASSERT_EQ(second.sweep->rows.size(), first.sweep->rows.size());
  for (std::size_t r = 0; r < first.sweep->rows.size(); ++r) {
    EXPECT_EQ(second.sweep->rows[r].values, first.sweep->rows[r].values);
    EXPECT_EQ(second.sweep->rows[r].measures, first.sweep->rows[r].measures);
  }
  // The CSV bodies match exactly; only the metadata header line differs
  // (derivations=0, points_from_cache=10 on the cached run).
  const std::string first_csv = first.sweep->to_csv();
  const std::string second_csv = second.sweep->to_csv();
  EXPECT_EQ(second_csv.substr(second_csv.find('\n')),
            first_csv.substr(first_csv.find('\n')));
}

TEST(SweepService, OverlappingSweepsSharePointsThroughTheCache) {
  const std::string path =
      write_temp_model("sweep_service_overlap.pepa", tomcat_source(40.0));

  service::Registry registry;
  service::ResultCache cache({.registry = &registry});
  service::SchedulerOptions scheduler_options;
  scheduler_options.workers = 1;
  scheduler_options.cache = &cache;
  scheduler_options.registry = &registry;
  service::Scheduler scheduler(scheduler_options);

  service::JobRequest first_request;
  first_request.sweep.emplace();
  first_request.sweep->model_path = path;
  first_request.sweep->spec.axes = {
      sweep::Axis::list("locs", {10.0, 20.0, 30.0})};
  const service::JobResult first = scheduler.submit(first_request).wait();
  ASSERT_EQ(first.status, service::JobStatus::kDone) << first.error;

  // A different slice of the same design space: the two shared points hit,
  // only the two new ones are evaluated (against one fresh derivation).
  service::JobRequest second_request;
  second_request.sweep.emplace();
  second_request.sweep->model_path = path;
  second_request.sweep->spec.axes = {
      sweep::Axis::list("locs", {20.0, 30.0, 40.0, 50.0})};
  const service::JobResult second = scheduler.submit(second_request).wait();
  ASSERT_EQ(second.status, service::JobStatus::kDone) << second.error;
  ASSERT_TRUE(second.sweep.has_value());
  EXPECT_EQ(second.sweep->points_from_cache, 2u);
  EXPECT_FALSE(second.from_cache);
  EXPECT_EQ(registry.counter("choreo_sweep_derivations_total", "").value(),
            2u);

  // Cached and freshly evaluated rows agree with the first sweep.
  EXPECT_EQ(second.sweep->rows[0].measures, first.sweep->rows[1].measures);
  EXPECT_EQ(second.sweep->rows[1].measures, first.sweep->rows[2].measures);
  for (const sweep::SweepRow& row : second.sweep->rows) {
    ASSERT_TRUE(row.ok()) << row.error;
    EXPECT_EQ(row.measures.size(), second.sweep->measures.size());
  }
}

TEST(SweepService, FluidSweepJobReportsFluidAggregation) {
  const std::string path = write_temp_model(
      "sweep_service_fluid.pepa",
      "r = 1.0; s = 2.0;\n"
      "Think  = (work, r).Wait;\n"
      "Wait   = (reply, infty).Think;\n"
      "Server = (work, infty).Busy;\n"
      "Busy   = (reply, s).Server;\n"
      "System = Think[20] <work, reply> Server[2];\n"
      "@system System;\n");

  service::Registry registry;
  service::SchedulerOptions scheduler_options;
  scheduler_options.workers = 1;
  scheduler_options.registry = &registry;
  service::Scheduler scheduler(scheduler_options);

  service::JobRequest request;
  request.sweep.emplace();
  request.sweep->model_path = path;
  request.sweep->backend = sweep::Backend::kFluid;
  request.sweep->spec.axes = {sweep::Axis::list("r", {0.5, 1.0, 2.0})};
  const service::JobResult result = scheduler.submit(request).wait();
  ASSERT_EQ(result.status, service::JobStatus::kDone) << result.error;
  EXPECT_EQ(result.aggregation_used, chor::Aggregation::kFluid);
  ASSERT_TRUE(result.sweep.has_value());
  EXPECT_EQ(result.sweep->derivations, 0u);
  EXPECT_EQ(registry.counter("choreo_sweep_derivations_total", "").value(),
            0u);
  for (const sweep::SweepRow& row : result.sweep->rows) {
    ASSERT_TRUE(row.ok()) << row.error;
  }
}

TEST(SweepService, SweepJobWritesTheTableToTheOutputPath) {
  const std::string model_path =
      write_temp_model("sweep_service_out.pepa", tomcat_source(40.0));
  const std::string table_path = ::testing::TempDir() + "sweep_table.csv";

  service::Scheduler scheduler({.workers = 1});
  service::JobRequest request;
  request.output_path = table_path;
  request.sweep.emplace();
  request.sweep->model_path = model_path;
  request.sweep->spec.axes = {sweep::Axis::list("locs", {10.0, 40.0})};
  const service::JobResult result = scheduler.submit(request).wait();
  ASSERT_EQ(result.status, service::JobStatus::kDone) << result.error;

  std::ifstream stream(table_path, std::ios::binary);
  ASSERT_TRUE(stream.good());
  std::string line;
  ASSERT_TRUE(std::getline(stream, line));
  EXPECT_EQ(line.find("# structure=0x"), 0u);
}

}  // namespace
