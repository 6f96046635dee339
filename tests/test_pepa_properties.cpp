// Property-based tests: random PEPA models (seed-parameterised TEST_P
// sweeps) checked against semantic invariants that must hold for *every*
// model -- determinism of derivation, probability conservation, throughput
// accounting, cooperation commutativity, hiding invariance, lumping
// exactness, transient/steady-state consistency, state measures equal to
// the per-state scan, and the derive equal to the term-level derive.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>

#include "ctmc/lumping.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "generator_oracle.hpp"
#include "pepa/measures.hpp"
#include "pepa/parser.hpp"
#include "pepa/printer.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "state_measures_oracle.hpp"
#include "term_derive_oracle.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace cp = choreo::pepa;
namespace cc = choreo::ctmc;
namespace cu = choreo::util;

namespace {

constexpr const char* kActions[] = {"a", "b", "c", "d"};

/// Generates a random PEPA model in source form: 2-3 sequential components
/// (each a guarded choice of prefixes per state, so derivation always
/// terminates) composed under cooperation over random action subsets.
/// `swap_operands` flips the top-level cooperation for the commutativity
/// property; `hide` wraps the system in a hiding set.
std::string random_model(std::uint64_t seed, bool swap_operands = false,
                         const std::string& hide_set = "") {
  cu::Xoshiro256 rng(seed);
  const std::size_t components = 2 + rng.below(2);
  std::string source;
  std::vector<std::string> component_names;
  for (std::size_t c = 0; c < components; ++c) {
    const std::size_t states = 2 + rng.below(3);
    std::vector<std::string> state_names;
    for (std::size_t s = 0; s < states; ++s) {
      state_names.push_back(cu::msg("C", c, "S", s));
    }
    component_names.push_back(state_names[0]);
    for (std::size_t s = 0; s < states; ++s) {
      source += state_names[s] + " = ";
      const std::size_t branches = 1 + rng.below(2);
      for (std::size_t b = 0; b < branches; ++b) {
        if (b != 0) source += " + ";
        const char* action = kActions[rng.below(4)];
        const double rate = 0.5 + 0.25 * static_cast<double>(rng.below(14));
        const std::size_t target = rng.below(states);
        source += cu::msg("(", action, ", ", cu::format_double(rate), ").",
                          state_names[target]);
      }
      source += ";\n";
    }
  }
  auto coop_set = [&rng]() {
    std::string set;
    for (const char* action : kActions) {
      if (rng.below(3) == 0) {  // each action in the set with p = 1/3
        if (!set.empty()) set += ", ";
        set += action;
      }
    }
    return set.empty() ? std::string("||") : "<" + set + ">";
  };
  std::string system = component_names.back();
  for (std::size_t c = components - 1; c-- > 0;) {
    const std::string op = coop_set();
    system = swap_operands && c == 0
                 ? "(" + system + ") " + op + " " + component_names[c]
                 : component_names[c] + " " + op + " (" + system + ")";
  }
  if (!hide_set.empty()) system = "(" + system + ")/{" + hide_set + "}";
  source += "Sys = " + system + ";\n@system Sys;\n";
  return source;
}

struct Solved {
  std::size_t states = 0;
  /// Deadlocked or reducible with several recurrent classes (the steady
  /// state is then not unique); the distribution-level properties skip.
  bool has_deadlock = false;
  double residual = 0.0;
  std::vector<double> distribution;
  std::map<std::string, double> throughputs;
  double total_event_rate = 0.0;
};

Solved solve_source(const std::string& source) {
  cp::Model model = cp::parse_model(source);
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  Solved out;
  out.states = space.state_count();
  out.has_deadlock = !space.deadlock_states().empty();
  if (out.has_deadlock) return out;
  cc::SolveResult solved;
  try {
    solved = cc::steady_state(space.generator());
  } catch (const cu::NumericError&) {
    out.has_deadlock = true;  // singular system: several recurrent classes
    return out;
  }
  out.residual = solved.residual;
  out.distribution = solved.distribution;
  for (const auto& [action, value] :
       cp::all_throughputs(space, solved.distribution, model.arena())) {
    out.throughputs[model.arena().action_name(action)] = value;
    out.total_event_rate += value;
  }
  return out;
}

}  // namespace

class RandomModels : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomModels, DerivationIsDeterministic) {
  const std::string source = random_model(GetParam());
  const Solved first = solve_source(source);
  const Solved second = solve_source(source);
  EXPECT_EQ(first.states, second.states);
  EXPECT_EQ(first.throughputs, second.throughputs);
}

TEST_P(RandomModels, SteadyStateIsAProbabilityDistribution) {
  const Solved solved = solve_source(random_model(GetParam()));
  if (solved.has_deadlock) GTEST_SKIP() << "deadlocked composition";
  double sum = 0.0;
  for (double p : solved.distribution) {
    EXPECT_GE(p, -1e-12);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_LT(solved.residual, 1e-8);
}

TEST_P(RandomModels, ThroughputsAccountForTotalEventRate) {
  // Sum of per-action throughputs == expected total exit rate.
  const std::string source = random_model(GetParam());
  cp::Model model = cp::parse_model(source);
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  if (!space.deadlock_states().empty()) GTEST_SKIP() << "deadlocked";
  const auto generator = space.generator();
  cc::SolveResult solved;
  try {
    solved = cc::steady_state(generator);
  } catch (const cu::NumericError&) {
    GTEST_SKIP() << "several recurrent classes";
  }
  double total_throughput = 0.0;
  for (const auto& [action, value] :
       cp::all_throughputs(space, solved.distribution, model.arena())) {
    total_throughput += value;
  }
  // The generator drops self-loops (they do not affect the distribution),
  // but self-loop activities still complete and count towards throughput.
  double self_loop_rate = 0.0;
  for (const auto& t : space.transitions()) {
    if (t.source == t.target) {
      self_loop_rate += solved.distribution[t.source] * t.rate;
    }
  }
  double expected_exit = 0.0;
  for (std::size_t s = 0; s < space.state_count(); ++s) {
    expected_exit += solved.distribution[s] * generator.exit_rate(s);
  }
  EXPECT_NEAR(total_throughput, expected_exit + self_loop_rate, 1e-8);
}

// The generator's solver form and every solver method match the full-Q
// oracle bit for bit (tests/generator_oracle.hpp).
TEST_P(RandomModels, GeneratorAndSolvesMatchTheOracle) {
  cp::Model model = cp::parse_model(random_model(GetParam()));
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  const cc::Generator generator = space.generator();
  const choreo::test::OracleGenerator oracle =
      choreo::test::oracle_generator(space.state_count(), space.transitions());
  const std::string what = "seed " + std::to_string(GetParam());
  choreo::test::expect_generator_matches_oracle(generator, oracle, what);
  choreo::test::expect_every_solve_matches_oracle(generator, oracle, what);
}

TEST_P(RandomModels, CooperationIsCommutative) {
  // P <L> Q and Q <L> P derive isomorphic chains: identical state counts
  // and identical per-action throughputs.
  const Solved normal = solve_source(random_model(GetParam(), false));
  const Solved swapped = solve_source(random_model(GetParam(), true));
  EXPECT_EQ(normal.states, swapped.states);
  EXPECT_EQ(normal.has_deadlock, swapped.has_deadlock);
  if (normal.has_deadlock) GTEST_SKIP() << "deadlocked composition";
  ASSERT_EQ(normal.throughputs.size(), swapped.throughputs.size());
  for (const auto& [action, value] : normal.throughputs) {
    ASSERT_TRUE(swapped.throughputs.count(action)) << action;
    EXPECT_NEAR(value, swapped.throughputs.at(action), 1e-8) << action;
  }
}

TEST_P(RandomModels, HidingPreservesDynamics) {
  // Hiding renames labels to tau but leaves the chain isomorphic: state
  // count and total event rate are invariant, and the hidden actions'
  // throughput reappears as tau's.
  const Solved plain = solve_source(random_model(GetParam()));
  const Solved hidden = solve_source(random_model(GetParam(), false, "a, b"));
  EXPECT_EQ(plain.states, hidden.states);
  EXPECT_EQ(plain.has_deadlock, hidden.has_deadlock);
  if (plain.has_deadlock) GTEST_SKIP() << "deadlocked composition";
  EXPECT_NEAR(plain.total_event_rate, hidden.total_event_rate, 1e-8);
  const double hidden_mass =
      (plain.throughputs.count("a") ? plain.throughputs.at("a") : 0.0) +
      (plain.throughputs.count("b") ? plain.throughputs.at("b") : 0.0);
  const double tau_mass =
      hidden.throughputs.count("tau") ? hidden.throughputs.at("tau") : 0.0;
  EXPECT_NEAR(hidden_mass, tau_mass, 1e-8);
}

TEST_P(RandomModels, LumpingQuotientIsExact) {
  const std::string source = random_model(GetParam());
  cp::Model model = cp::parse_model(source);
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  if (!space.deadlock_states().empty()) GTEST_SKIP() << "deadlocked";
  const auto generator = space.generator();
  const auto lumping = cc::compute_lumping(generator);
  cc::check_lumpable(generator, lumping);
  std::vector<double> pi_full, pi_quotient;
  try {
    pi_full = cc::steady_state(generator).distribution;
    pi_quotient = cc::steady_state(lumping.quotient(generator)).distribution;
  } catch (const cu::NumericError&) {
    GTEST_SKIP() << "several recurrent classes";
  }
  const auto aggregated = lumping.aggregate(pi_full);
  ASSERT_EQ(pi_quotient.size(), aggregated.size());
  for (std::size_t b = 0; b < aggregated.size(); ++b) {
    EXPECT_NEAR(pi_quotient[b], aggregated[b], 1e-8);
  }
}

TEST_P(RandomModels, TransientConvergesToSteadyState) {
  const std::string source = random_model(GetParam());
  cp::Model model = cp::parse_model(source);
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  if (!space.deadlock_states().empty()) GTEST_SKIP() << "deadlocked";
  const auto generator = space.generator();
  std::vector<double> pi;
  try {
    pi = cc::steady_state(generator).distribution;
  } catch (const cu::NumericError&) {
    GTEST_SKIP() << "several recurrent classes";
  }
  // A reducible but deadlock-free chain may have transient states whose
  // long-run mass is zero; uniformisation must agree with pi Q = 0 in that
  // case too as long as the recurrent class is unique.  Conservatively run
  // from the steady state itself: it must be a fixed point of evolution.
  const auto evolved = cc::transient(generator, pi, 10.0);
  for (std::size_t s = 0; s < pi.size(); ++s) {
    EXPECT_NEAR(evolved.distribution[s], pi[s], 1e-6);
  }
}

TEST_P(RandomModels, StateMeasuresMatchPerStateScan) {
  // The local-state index against the per-state scan, bit for bit, for
  // every declared constant: on the plain model, under hiding, and with
  // three more replicas of the first component beside the system (so one
  // constant fills several positions of a state), full and quotient-direct.
  std::string replicated = random_model(GetParam());
  replicated.replace(replicated.rfind("@system Sys;"), std::string::npos,
                     "Rep = C0S0[3] || Sys;\n@system Rep;\n");
  const struct {
    std::string source;
    bool aggregate;
  } cases[] = {{random_model(GetParam()), false},
               {random_model(GetParam(), false, "a, b"), false},
               {replicated, false},
               {replicated, true}};
  for (const auto& c : cases) {
    cp::Model model = cp::parse_model(c.source);
    cp::Semantics semantics(model.arena());
    cp::DeriveOptions options;
    options.aggregate = c.aggregate;
    const auto space =
        cp::StateSpace::derive(semantics, model.system(), options);
    choreo::test::expect_state_measures_match_scan(
        space, choreo::test::ragged_weights(space.state_count(), GetParam()),
        model.arena());
  }
}

TEST_P(RandomModels, LeafVectorDeriveMatchesTheTermDerive) {
  // The derive against the term derive it replaced, bit for bit: this
  // seed and every 24th after it below 408, each plain, with the top-level
  // cooperation swapped, hidden under {a, c}, and with three more replicas
  // of its first component (so the quotient collapses), full and
  // quotient-direct, at lanes {1, 2, nproc}.
  const std::size_t cores =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  cu::ThreadPool pool(3);
  for (std::uint64_t seed = GetParam(); seed < 408; seed += 24) {
    std::string replicated = random_model(seed);
    replicated.replace(replicated.rfind("@system Sys;"), std::string::npos,
                       "Rep = C0S0[3] || Sys;\n@system Rep;\n");
    for (const std::string& source :
         {random_model(seed), random_model(seed, true),
          random_model(seed, false, "a, c"), replicated}) {
      cp::Model model = cp::parse_model(source);
      for (const bool aggregate : {false, true}) {
        cp::DeriveOptions options;
        options.aggregate = aggregate;
        cp::Semantics reference_semantics(model.arena());
        const choreo::test::TermSpace reference = choreo::test::term_derive(
            reference_semantics, model.system(), options);
        for (const std::size_t lanes : {std::size_t{1}, std::size_t{2}, cores}) {
          cp::Semantics semantics(model.arena());
          options.threads = lanes;
          options.pool = &pool;
          const auto space =
              cp::StateSpace::derive(semantics, model.system(), options);
          choreo::test::expect_same_space(
              space, reference,
              "seed " + std::to_string(seed) +
                  (aggregate ? " quotient" : " full") + " at " +
                  std::to_string(lanes) + " lanes:\n" + source);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModels,
                         ::testing::Range<std::uint64_t>(0, 24));
