#include "inputs.hpp"

#include <sstream>

#include "uml/xmi.hpp"
#include "util/strings.hpp"
#include "xml/write.hpp"

namespace perfbench::inputs {

namespace {

using choreo::util::format_double;

double scaled(Rng& rng, double base) { return base * rng.uniform(0.8, 1.25); }

/// The model's XMI with a <Poseidon.layout> block placing every state and
/// action node at seeded coordinates, serialised as text.
std::string project_text(const choreo::uml::Model& model, Rng& rng) {
  choreo::xml::Document document = choreo::uml::to_xmi(model);
  choreo::xml::Node layout = choreo::xml::Node::element("Poseidon.layout");
  auto place = [&](const std::string& ref) {
    choreo::xml::Node& node = layout.add_element("node");
    node.set_attr("ref", ref);
    node.set_attr("x", std::to_string(rng.index(1200)));
    node.set_attr("y", std::to_string(rng.index(800)));
  };
  for (const auto& graph : model.activity_graphs()) {
    for (const auto& node : graph.nodes()) place(graph.name() + "/" + node.name);
  }
  for (const auto& machine : model.state_machines()) {
    for (const auto& state : machine.states()) {
      place(machine.name() + "/" + state.name);
    }
  }
  document.root().add_child(std::move(layout));
  return choreo::xml::to_string(document);
}

}  // namespace

choreo::chor::TomcatParams tomcat_params(Rng& rng, std::size_t clients) {
  choreo::chor::TomcatParams params;
  params.clients = clients;
  params.request_rate = scaled(rng, params.request_rate);
  params.offline_processing_rate = scaled(rng, params.offline_processing_rate);
  params.locate_jsp_rate = scaled(rng, params.locate_jsp_rate);
  params.translate_rate = scaled(rng, params.translate_rate);
  params.compile_rate = scaled(rng, params.compile_rate);
  params.execute_rate = scaled(rng, params.execute_rate);
  params.respond_rate = scaled(rng, params.respond_rate);
  params.locate_servlet_rate = scaled(rng, params.locate_servlet_rate);
  return params;
}

std::string tomcat_project(bool cached,
                           const choreo::chor::TomcatParams& params,
                           Rng& rng) {
  return project_text(choreo::chor::tomcat_model(cached, params), rng);
}

std::string pda_project(std::size_t hops, Rng& rng) {
  choreo::chor::PdaParams params;
  params.transmitters = hops;
  params.download_rate = scaled(rng, params.download_rate);
  params.detect_rate = scaled(rng, params.detect_rate);
  params.search_rate = scaled(rng, params.search_rate);
  params.handover_rate = scaled(rng, params.handover_rate);
  params.continue_rate = scaled(rng, params.continue_rate);
  params.abort_rate = params.continue_rate;
  return project_text(choreo::chor::pda_handover_model(params), rng);
}

std::string instant_message_project(Rng& rng) {
  choreo::chor::InstantMessageParams params;
  params.write_rate = scaled(rng, params.write_rate);
  params.transmit_rate = scaled(rng, params.transmit_rate);
  params.open_rate = scaled(rng, params.open_rate);
  params.read_rate = scaled(rng, params.read_rate);
  params.close_rate = scaled(rng, params.close_rate);
  params.archive_rate = scaled(rng, params.archive_rate);
  return project_text(choreo::chor::instant_message_model(params), rng);
}

std::string tomcat_pepa(bool cached, std::size_t clients, Rng& rng) {
  const choreo::chor::TomcatParams p = tomcat_params(rng, clients);
  std::ostringstream out;
  out << "req = " << format_double(p.request_rate)
      << "; offp = " << format_double(p.offline_processing_rate) << ";\n";
  if (cached) {
    out << "locs = " << format_double(p.locate_servlet_rate);
  } else {
    out << "locj = " << format_double(p.locate_jsp_rate)
        << "; tran = " << format_double(p.translate_rate)
        << "; comp = " << format_double(p.compile_rate);
  }
  out << "; exec = " << format_double(p.execute_rate)
      << "; resp = " << format_double(p.respond_rate) << ";\n\n"
      << "GenerateRequest = (request, req).WaitForResponse;\n"
         "WaitForResponse = (response, infty).ProcessResponse;\n"
         "ProcessResponse = (offlineProcessing, offp).GenerateRequest;\n\n"
         "ServerIdle = (request, infty).ProcessRequest;\n";
  if (cached) {
    out << "ProcessRequest = (locateservlet, locs).CompiledJavaCode;\n";
  } else {
    out << "ProcessRequest = (locatejsp, locj).AccessJSPFile;\n"
           "AccessJSPFile = (translate, tran).GeneratedJavaCode;\n"
           "GeneratedJavaCode = (compile, comp).CompiledJavaCode;\n";
  }
  out << "CompiledJavaCode = (execute, exec).SendHTTPResponse;\n"
         "SendHTTPResponse = (response, resp).ServerIdle;\n\n"
      << "System = GenerateRequest[" << clients
      << "] <request, response> ServerIdle;\n"
         "@system System;\n";
  return out.str();
}

}  // namespace perfbench::inputs
