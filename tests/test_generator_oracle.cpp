// The generator's solver form against the test-only reference in
// generator_oracle.hpp, on derived spaces: the parametric families and the
// Tomcat study at one to twelve clients, cached and uncached, each derived
// at lanes {1, 2, 4, 8} so that the generator's counting sorts and fill run
// split over the derive's lanes.  Every generator entry, exit rate and
// solve must match bit for bit.  Also checks that the solver methods agree
// with each other where dense LU can run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "choreographer/extract_statechart.hpp"
#include "choreographer/paper_models.hpp"
#include "ctmc/steady_state.hpp"
#include "generator_oracle.hpp"
#include "pepa/families.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace cc = choreo::ctmc;
namespace chor = choreo::chor;
namespace cp = choreo::pepa;
namespace ct = choreo::test;

struct Family {
  std::string name;
  std::function<cp::Model()> make;
};

/// Family instances of at most 512 states, the size dense LU takes.
std::vector<Family> small_families() {
  std::vector<Family> out;
  for (std::size_t clients = 1; clients <= 4; ++clients) {
    for (std::size_t servers = 1; servers <= 3; ++servers) {
      cp::ClientServerParams params;
      params.servers = servers;
      out.push_back({"client_server(" + std::to_string(clients) + ", " +
                         std::to_string(servers) + ")",
                     [clients, params] { return cp::client_server(clients, params); }});
    }
  }
  for (std::size_t pdas = 1; pdas <= 5; ++pdas) {
    out.push_back({"pda_handover(" + std::to_string(pdas) + ")",
                   [pdas] { return cp::pda_handover(pdas); }});
  }
  for (std::size_t stations = 2; stations <= 8; ++stations) {
    out.push_back({"ring(" + std::to_string(stations) + ")",
                   [stations] { return cp::ring(stations); }});
  }
  return out;
}

/// The derive lane counts every oracle check runs at.
constexpr std::size_t kLaneCounts[] = {1, 2, 4, 8};

/// Derives `model` at `lanes` lanes of a pool with real workers, which the
/// space keeps for its generator.
cp::StateSpace derive_at(cp::Semantics& semantics, cp::Model& model,
                         std::size_t lanes) {
  static choreo::util::ThreadPool pool(3);
  cp::DeriveOptions options;
  options.threads = lanes;
  options.pool = &pool;
  return cp::StateSpace::derive(semantics, model.system(), options);
}

void expect_space_matches_oracle(const cp::StateSpace& space,
                                 const std::string& what, bool every_method) {
  const cc::Generator generator = space.generator();
  const ct::OracleGenerator oracle =
      ct::oracle_generator(space.state_count(), space.transitions());
  ct::expect_generator_matches_oracle(generator, oracle, what);
  if (every_method) {
    ct::expect_every_solve_matches_oracle(generator, oracle, what);
  } else {
    ct::expect_solve_matches_oracle(generator, oracle, cc::SolveOptions{},
                                    what);
  }
}

TEST(GeneratorOracle, FamiliesMatchBitForBit) {
  for (const std::size_t lanes : kLaneCounts) {
    const std::string at = " at " + std::to_string(lanes) + " lanes";
    for (const Family& family : small_families()) {
      cp::Model model = family.make();
      cp::Semantics semantics(model.arena());
      const cp::StateSpace space = derive_at(semantics, model, lanes);
      ASSERT_LE(space.state_count(), 512u) << family.name;
      expect_space_matches_oracle(space, family.name + at, true);
    }
    // Beyond dense LU: Gauss-Seidel on chains large enough for the parallel
    // mat-vec of the residual check, and for the sorts to split.
    for (const std::size_t stations : {12u, 15u}) {
      cp::Model model = cp::ring(stations);
      cp::Semantics semantics(model.arena());
      const cp::StateSpace space = derive_at(semantics, model, lanes);
      expect_space_matches_oracle(
          space, "ring(" + std::to_string(stations) + ")" + at, false);
    }
  }
}

TEST(GeneratorOracle, TomcatOneToTwelveClientsMatchBitForBit) {
  for (const std::size_t lanes : kLaneCounts) {
    for (const bool cached : {false, true}) {
      for (std::size_t clients = 1; clients <= 12; ++clients) {
        chor::TomcatParams params;
        params.clients = clients;
        auto extraction =
            chor::extract_state_machines(chor::tomcat_model(cached, params));
        cp::Semantics semantics(extraction.model.arena());
        const cp::StateSpace space =
            derive_at(semantics, extraction.model, lanes);
        const std::string what =
            std::string(cached ? "cached " : "") + "tomcat[" +
            std::to_string(clients) + "cl] at " + std::to_string(lanes) +
            " lanes";
        expect_space_matches_oracle(space, what, space.state_count() <= 1024);
      }
    }
  }
}

// LU, Gauss-Seidel, SOR, Jacobi and power iteration reach the same
// distribution to 1e-9 on every family size dense LU takes.
TEST(SolverMethods, AgreeOnFamilySizesDenseLUTakes) {
  for (const Family& family : small_families()) {
    cp::Model model = family.make();
    cp::Semantics semantics(model.arena());
    const cp::StateSpace space =
        cp::StateSpace::derive(semantics, model.system());
    const cc::Generator generator = space.generator();
    cc::SolveOptions options;
    options.method = cc::Method::kDenseLU;
    const std::vector<double> exact =
        cc::steady_state(generator, options).distribution;
    for (const cc::Method method :
         {cc::Method::kGaussSeidel, cc::Method::kSor, cc::Method::kJacobi,
          cc::Method::kPower}) {
      options.method = method;
      const std::vector<double> pi =
          cc::steady_state(generator, options).distribution;
      ASSERT_EQ(pi.size(), exact.size());
      for (std::size_t s = 0; s < pi.size(); ++s) {
        ASSERT_NEAR(pi[s], exact[s], 1e-9)
            << family.name << " (" << cc::method_name(method) << ") state "
            << s;
      }
    }
  }
}

}  // namespace
