#include "pepanet/net_dot.hpp"

#include <sstream>

#include "pepa/dot.hpp"
#include "pepa/printer.hpp"
#include "pepanet/net_printer.hpp"
#include "util/strings.hpp"

namespace choreo::pepanet {

std::string structure_to_dot(const PepaNet& net) {
  std::ostringstream out;
  out << "digraph pepanet {\n"
      << "  rankdir=LR;\n";
  for (PlaceId p = 0; p < net.place_count(); ++p) {
    const Place& place = net.place(p);
    std::string label = place.name;
    for (const Slot& slot : place.slots) {
      label += "\\n";
      if (slot.kind == Slot::Kind::kCell) {
        label += '[';
        label += net.token_type(slot.cell_type).name;
        label += slot.initial == kVacant ? ": _]" : ": o]";
      } else {
        label += '|';
        label += pepa::to_string(net.arena(), slot.initial);
        label += '|';
      }
    }
    out << "  p" << p << " [shape=ellipse, label=\"" << pepa::dot_escape(label)
        << "\"];\n";
  }
  for (NetTransitionId t = 0; t < net.transition_count(); ++t) {
    const NetTransition& transition = net.transition(t);
    out << "  t" << t << " [shape=box, style=filled, fillcolor=lightgray,"
        << " label=\"" << pepa::dot_escape(transition.name) << "\\n("
        << transition.rate.to_string() << ", prio " << transition.priority
        << ")\"];\n";
    for (PlaceId input : transition.inputs) {
      out << "  p" << input << " -> t" << t << ";\n";
    }
    for (PlaceId output : transition.outputs) {
      out << "  t" << t << " -> p" << output << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

std::string marking_graph_to_dot(const PepaNet& net, const NetStateSpace& space) {
  std::ostringstream out;
  out << "digraph markings {\n"
      << "  rankdir=LR;\n"
      << "  node [shape=box, fontname=\"monospace\"];\n";
  for (std::size_t m = 0; m < space.marking_count(); ++m) {
    out << "  m" << m << " [label=\""
        << pepa::dot_escape(marking_to_string(net, space.marking(m))) << '"'
        << (m == 0 ? ", style=bold" : "") << "];\n";
  }
  for (const MarkingTransition& t : space.transitions()) {
    out << "  m" << t.source << " -> m" << t.target << " [label=\""
        << pepa::dot_escape(net.arena().action_name(t.action)) << ", "
        << util::format_double(t.rate) << '"'
        << (t.is_firing ? ", style=bold" : "") << "];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace choreo::pepanet
