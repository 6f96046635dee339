#include "choreographer/extract_activity.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

#include "choreographer/names.hpp"
#include "util/error.hpp"

namespace choreo::chor {

namespace uml = choreo::uml;
namespace pepa = choreo::pepa;
namespace pepanet = choreo::pepanet;

namespace {

using uml::ActivityGraph;
using uml::ActivityNode;
using uml::NodeId;
using uml::ObjectNodeId;

/// Builds the PEPA behaviour of one "walker" over the diagram's control
/// structure: a token (walker = one object) or a static component (walker =
/// the object-less activities of one location).  One constant is defined
/// per diagram node so control cycles translate to recursive definitions.
class BehaviourBuilder {
 public:
  BehaviourBuilder(const ActivityGraph& graph, pepa::ProcessArena& arena,
                   NamePool& pool, std::string prefix,
                   std::vector<bool> involved,
                   std::vector<pepa::ActionId> actions,
                   std::vector<pepa::Rate> rates, bool cyclic)
      : graph_(graph),
        arena_(arena),
        pool_(pool),
        prefix_(std::move(prefix)),
        involved_(std::move(involved)),
        actions_(std::move(actions)),
        rates_(std::move(rates)),
        cyclic_(cyclic),
        memo_(graph.nodes().size(), pepa::kInvalidProcess) {}

  /// The behaviour starting at the diagram's initial node.
  pepa::ProcessId initial_behaviour() {
    return behaviour_from(graph_.initial_node());
  }

 private:
  pepa::ProcessId behaviour_from(NodeId node) {
    if (memo_[node] != pepa::kInvalidProcess) return memo_[node];
    // Create (and memoise) the constant before computing the body so that
    // control cycles close over it.
    const std::string label = graph_.nodes()[node].name.empty()
                                  ? util::msg("n", node)
                                  : graph_.nodes()[node].name;
    const pepa::ConstantId constant =
        arena_.declare(pool_.unique(prefix_ + "_" + label));
    memo_[node] = arena_.constant(constant);
    arena_.define(constant, body_of(node));
    return memo_[node];
  }

  pepa::ProcessId body_of(NodeId node) {
    const ActivityNode& n = graph_.nodes()[node];
    switch (n.kind) {
      case ActivityNode::Kind::kInitial:
      case ActivityNode::Kind::kDecision:
        return continuation(node);
      case ActivityNode::Kind::kFinal:
        return restart();
      case ActivityNode::Kind::kAction: {
        const pepa::ProcessId cont = continuation(node);
        if (!involved_[node]) return cont;
        return arena_.prefix(actions_[node], rates_[node], cont);
      }
    }
    CHOREO_ASSERT(false);
    return arena_.stop();
  }

  /// Choice over the behaviours at the successors (restart at dead ends).
  pepa::ProcessId continuation(NodeId node) {
    const std::vector<NodeId> successors = graph_.successors(node);
    if (successors.empty()) return restart();
    pepa::ProcessId out = behaviour_from(successors.front());
    for (std::size_t i = 1; i < successors.size(); ++i) {
      out = arena_.choice(out, behaviour_from(successors[i]));
    }
    return out;
  }

  pepa::ProcessId restart() {
    return cyclic_ ? behaviour_from(graph_.initial_node()) : arena_.stop();
  }

  const ActivityGraph& graph_;
  pepa::ProcessArena& arena_;
  NamePool& pool_;
  std::string prefix_;
  std::vector<bool> involved_;
  std::vector<pepa::ActionId> actions_;
  std::vector<pepa::Rate> rates_;
  bool cyclic_;
  std::vector<pepa::ProcessId> memo_;
};

/// Chases alias definitions (a constant whose body is just another
/// constant), so the token's initial derivative is the first *behavioural*
/// state rather than a transient pseudo-state alias.
pepa::ProcessId resolve_alias(const pepa::ProcessArena& arena,
                              pepa::ProcessId process) {
  std::size_t hops = 0;
  while (arena.node(process).op == pepa::Op::kConstant &&
         arena.is_defined(arena.node(process).constant)) {
    const pepa::ProcessId body = arena.body(arena.node(process).constant);
    if (arena.node(body).op != pepa::Op::kConstant) break;
    process = body;
    if (++hops > arena.constant_count()) {
      throw util::ModelError("alias cycle between constants");
    }
  }
  return process;
}

}  // namespace

ActivityExtraction extract_activity_graph(const uml::ActivityGraph& graph,
                                          const ExtractOptions& options) {
  graph.validate();
  if (graph.objects().empty()) {
    throw util::ModelError(util::msg(
        "activity graph '", graph.name(),
        "' has no objects: a PEPA net needs at least one token"));
  }

  ActivityExtraction extraction;
  pepanet::PepaNet& net = extraction.net;
  pepa::ProcessArena& arena = net.arena();
  NamePool pool;
  const std::size_t node_count = graph.nodes().size();

  // --- PEPA action types for every action state ---------------------------
  extraction.action_names.assign(node_count, std::nullopt);
  std::vector<pepa::ActionId> node_action(node_count, 0);
  std::vector<pepa::Rate> node_rate(node_count);
  {
    NamePool action_pool;
    for (NodeId id = 0; id < node_count; ++id) {
      const ActivityNode& node = graph.nodes()[id];
      if (node.kind != ActivityNode::Kind::kAction) continue;
      const std::string action_name = action_pool.unique(node.name);
      extraction.action_names[id] = action_name;
      node_action[id] = arena.action(action_name);
      node_rate[id] =
          pepa::Rate::active(node.tags.get_double("rate", options.default_rate));
    }
  }

  // --- places: one per distinct location (Section 3, step 1) --------------
  // Objects without an atloc live in the implicit location "main".
  auto location_name = [](const std::string& location) {
    return location.empty() ? std::string("main") : location;
  };
  std::map<std::string, pepanet::PlaceId> place_of;  // by raw location name
  std::vector<std::string> location_order;
  for (const uml::ObjectBox& box : graph.objects()) {
    const std::string loc = location_name(box.location());
    if (!place_of.count(loc)) {
      place_of.emplace(loc, static_cast<pepanet::PlaceId>(location_order.size()));
      location_order.push_back(loc);
    }
  }

  // --- per-node locations --------------------------------------------------
  // An action's location is that of its input objects when present;
  // otherwise it inherits the location reached along the control flow
  // ("the last location to which a move was made").  Moves change the
  // current location to their output objects' location.
  std::vector<std::string> node_location(node_count);
  {
    auto boxes_location = [&](const std::vector<ObjectNodeId>& boxes) {
      for (ObjectNodeId id : boxes) {
        const std::string loc = graph.objects()[id].location();
        if (!loc.empty()) return loc;
      }
      return std::string();
    };
    std::vector<bool> visited(node_count, false);
    const NodeId initial = graph.initial_node();
    std::deque<std::pair<NodeId, std::string>> frontier;
    frontier.emplace_back(initial, location_name(graph.objects()[0].location()));
    visited[initial] = true;
    while (!frontier.empty()) {
      auto [node, arrival] = frontier.front();
      frontier.pop_front();
      std::string effective = arrival;
      std::string after = arrival;
      if (graph.nodes()[node].kind == ActivityNode::Kind::kAction) {
        const std::string in_loc = boxes_location(graph.inputs_of(node));
        if (!in_loc.empty()) effective = in_loc;
        after = effective;
        if (graph.nodes()[node].is_move) {
          const std::string out_loc = boxes_location(graph.outputs_of(node));
          if (!out_loc.empty()) after = out_loc;
        }
      }
      node_location[node] = effective;
      for (NodeId successor : graph.successors(node)) {
        if (visited[successor]) continue;
        visited[successor] = true;
        frontier.emplace_back(successor, after);
      }
    }
  }

  // --- tokens: one per object (Section 3, step 3) --------------------------
  const std::vector<std::string> object_names = graph.object_names();
  std::vector<pepanet::TokenTypeId> token_type_of(object_names.size());
  std::vector<pepa::ProcessId> token_initial(object_names.size());
  for (std::size_t o = 0; o < object_names.size(); ++o) {
    const std::string& object = object_names[o];
    std::vector<bool> involved(node_count, false);
    bool any = false;
    for (const uml::ObjectFlow& flow : graph.object_flows()) {
      if (graph.objects()[flow.object].name == object) {
        involved[flow.action] = true;
        any = true;
      }
    }
    if (!any) {
      throw util::ModelError(util::msg(
          "object '", object, "' in activity graph '", graph.name(),
          "' is associated with no activity: its token would be inert"));
    }
    BehaviourBuilder builder(graph, arena, pool, sanitise_identifier(object),
                             std::move(involved), node_action, node_rate,
                             options.cyclic);
    token_initial[o] = resolve_alias(arena, builder.initial_behaviour());
    const std::string type_name = pool.unique(object + "_token");
    token_type_of[o] = net.add_token_type(type_name, token_initial[o]);
    extraction.tokens.emplace_back(object, type_name);
  }

  // --- net transitions from moves (Section 3, step 2) ----------------------
  for (NodeId id = 0; id < node_count; ++id) {
    const ActivityNode& node = graph.nodes()[id];
    if (node.kind != ActivityNode::Kind::kAction || !node.is_move) continue;
    // One input arc per moved object, one output arc per moved object.
    auto arc_places = [&](const std::vector<ObjectNodeId>& boxes,
                          const char* role) {
      std::vector<pepanet::PlaceId> places;
      std::vector<std::string> seen_objects;
      for (ObjectNodeId box : boxes) {
        const std::string& object = graph.objects()[box].name;
        if (std::find(seen_objects.begin(), seen_objects.end(), object) !=
            seen_objects.end()) {
          continue;  // one arc per object, not per box
        }
        seen_objects.push_back(object);
        const pepanet::PlaceId place =
            place_of.at(location_name(graph.objects()[box].location()));
        if (std::find(places.begin(), places.end(), place) != places.end()) {
          throw util::ModelError(util::msg(
              "move activity '", node.name, "' relocates two objects ", role,
              " the same place; arc multiplicities are not supported"));
        }
        places.push_back(place);
      }
      return places;
    };
    const auto inputs = arc_places(graph.inputs_of(id), "from");
    const auto outputs = arc_places(graph.outputs_of(id), "to");
    const auto priority = static_cast<unsigned>(
        node.tags.get_double("priority", 1.0));
    net.add_transition(*extraction.action_names[id], node_rate[id], inputs,
                       outputs, priority);
  }

  // --- static components (Section 3, step 4) -------------------------------
  // Activities with no associated object belong to the static component of
  // their location.
  std::map<std::string, pepa::ProcessId> static_of;
  {
    std::vector<bool> object_less(node_count, false);
    for (NodeId id = 0; id < node_count; ++id) {
      object_less[id] =
          graph.nodes()[id].kind == ActivityNode::Kind::kAction &&
          graph.inputs_of(id).empty() && graph.outputs_of(id).empty();
    }
    for (const std::string& location : location_order) {
      std::vector<bool> involved(node_count, false);
      bool any = false;
      for (NodeId id = 0; id < node_count; ++id) {
        if (object_less[id] && location_name(node_location[id]) == location) {
          involved[id] = true;
          any = true;
        }
      }
      if (!any) continue;
      BehaviourBuilder builder(
          graph, arena, pool, pool.unique("Static_" + location),
          std::move(involved), node_action, node_rate, options.cyclic);
      static_of.emplace(location, resolve_alias(arena, builder.initial_behaviour()));
      extraction.static_locations.push_back(location);
    }
  }

  // --- places, cells and the initial marking (Section 3, final step) -------
  // Each place has a cell for every object that exhibits the location; the
  // object's token starts at its first recorded location.
  for (const std::string& location : location_order) {
    const pepanet::PlaceId place = net.add_place(sanitise_identifier(location));
    extraction.place_names.push_back(sanitise_identifier(location));
    CHOREO_ASSERT(place + 1 == net.place_count());
    for (std::size_t o = 0; o < object_names.size(); ++o) {
      const auto boxes = graph.boxes_of(object_names[o]);
      const bool exhibits = std::any_of(
          boxes.begin(), boxes.end(), [&](ObjectNodeId box) {
            return location_name(graph.objects()[box].location()) == location;
          });
      if (!exhibits) continue;
      const bool starts_here =
          location_name(graph.objects()[boxes.front()].location()) == location;
      net.add_cell(place, token_type_of[o],
                   starts_here ? token_initial[o] : pepanet::kVacant);
    }
    if (auto it = static_of.find(location); it != static_of.end()) {
      net.add_static(place, it->second);
    }
    net.use_shared_alphabet_cooperation(place);
  }

  net.validate();
  return extraction;
}

}  // namespace choreo::chor
