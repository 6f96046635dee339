// Seeded inputs, produced through the program's own writers: UML models
// from chor's paper-model builders serialised with uml::to_xmi and
// xml::to_string (plus a Poseidon-style layout block, so the pre- and
// postprocessor have work to do), and PEPA source text.  The seed varies
// rates, never structure.
#pragma once

#include <cstddef>
#include <string>

#include "bench.hpp"
#include "choreographer/paper_models.hpp"

namespace perfbench::inputs {

/// The paper's Tomcat rates (Figures 8-9), each scaled by a seeded factor
/// in [0.8, 1.25).
choreo::chor::TomcatParams tomcat_params(Rng& rng, std::size_t clients);

/// Project XMI text (model plus layout) of the Tomcat state diagrams.
std::string tomcat_project(bool cached,
                           const choreo::chor::TomcatParams& params,
                           Rng& rng);

/// Project XMI text of the PDA handover ring with `hops` transmitters;
/// continue and abort keep equal rates.
std::string pda_project(std::size_t hops, Rng& rng);

/// Project XMI text of the instant-message activity diagram.
std::string instant_message_project(Rng& rng);

/// PEPA source of models/tomcat.pepa (or tomcat_cached.pepa) with seeded
/// rates and the client replicated `clients` times in the system equation.
std::string tomcat_pepa(bool cached, std::size_t clients, Rng& rng);

}  // namespace perfbench::inputs
