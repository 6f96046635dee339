#include "uml/layout.hpp"

#include "util/strings.hpp"

namespace choreo::uml {

bool is_metamodel_element(const xml::Node& node) {
  if (!node.is_element()) return true;  // text/comments pass through
  return util::starts_with(node.name(), "XMI") ||
         util::starts_with(node.name(), "UML:");
}

SplitProject preprocess(const xml::Document& project) {
  SplitProject split;
  split.model = project;
  xml::Node& root = split.model.root();
  std::vector<xml::Node> kept;
  kept.reserve(root.children().size());
  for (xml::Node& child : root.children()) {
    if (is_metamodel_element(child)) {
      kept.push_back(std::move(child));
    } else {
      split.layout.push_back(std::move(child));
    }
  }
  root.children() = std::move(kept);
  return split;
}

xml::Document postprocess(xml::Document reflected,
                          const std::vector<xml::Node>& layout) {
  for (const xml::Node& node : layout) {
    reflected.root().add_child(node);
  }
  return reflected;
}

}  // namespace choreo::uml
