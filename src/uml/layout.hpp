// The Poseidon pre/postprocessor pair of the paper's Figure 4.
//
// Drawing tools store diagram layout in tool-specific elements that are not
// part of the UML metamodel; a metadata repository rejects them.  The
// preprocessor splits a project document into (a) a metamodel-conforming
// XMI document and (b) the saved layout subtrees; after analysis the
// postprocessor merges the reflected XMI with the original layout so the
// user's diagram arrangement survives the round trip.
//
// Layout lives in top-level extension elements whose names are outside the
// UML namespace (conventionally <Poseidon.layout>, but any non-"XMI.*",
// non-"UML:*" top-level child is treated as tool data).
#pragma once

#include <vector>

#include "xml/dom.hpp"

namespace choreo::uml {

struct SplitProject {
  /// Metamodel-conforming document (tool elements removed).
  xml::Document model;
  /// The removed top-level tool/layout subtrees, in document order.
  std::vector<xml::Node> layout;
};

/// True for element names that belong to the XMI/UML metamodel.
bool is_metamodel_element(const xml::Node& node);

/// Splits a project document (Poseidon preprocessor).
SplitProject preprocess(const xml::Document& project);

/// Merges reflected model content with the original layout subtrees
/// (Poseidon postprocessor).  Layout nodes are re-appended to the root in
/// their original order.  Pass a document the caller no longer needs as an
/// rvalue to merge into it without a copy.
xml::Document postprocess(xml::Document reflected,
                          const std::vector<xml::Node>& layout);

}  // namespace choreo::uml
