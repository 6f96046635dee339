#include "xml/write.hpp"

#include <fstream>

#include "util/error.hpp"

namespace choreo::xml {

namespace {

/// Appends `raw` to `out`, replacing each character `entity` names with
/// its reference; runs of plain characters are appended whole.
template <typename Entity>
void append_escaped(std::string& out, std::string_view raw, Entity entity) {
  std::size_t plain = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const char* reference = entity(raw[i]);
    if (reference == nullptr) continue;
    out.append(raw, plain, i - plain);
    out.append(reference);
    plain = i + 1;
  }
  out.append(raw, plain);
}

const char* text_entity(char c) {
  switch (c) {
    case '<': return "&lt;";
    case '>': return "&gt;";
    case '&': return "&amp;";
    default: return nullptr;
  }
}

const char* attribute_entity(char c) {
  switch (c) {
    case '"': return "&quot;";
    case '\n': return "&#10;";
    case '\t': return "&#9;";
    default: return text_entity(c);
  }
}

void append_attribute(std::string& out, const Attribute& attribute) {
  out += ' ';
  out += attribute.name;
  out += "=\"";
  append_escaped(out, attribute.value, attribute_entity);
  out += '"';
}

bool has_element_children_only(const Node& node) {
  bool any = false;
  for (const Node& child : node.children()) {
    if (child.is_text() || child.kind() == Node::Kind::CData) return false;
    any = true;
  }
  return any;
}

void write_node(std::string& out, const Node& node, int indent, int depth) {
  const std::size_t pad =
      indent > 0 ? static_cast<std::size_t>(indent * depth) : 0;
  switch (node.kind()) {
    case Node::Kind::Text:
      append_escaped(out, node.content(), text_entity);
      return;
    case Node::Kind::Comment:
      out.append(pad, ' ');
      out += "<!--";
      out += node.content();
      out += "-->";
      if (indent > 0) out += '\n';
      return;
    case Node::Kind::CData:
      out += "<![CDATA[";
      out += node.content();
      out += "]]>";
      return;
    case Node::Kind::Element:
      break;
  }

  out.append(pad, ' ');
  out += '<';
  out += node.name();
  for (const Attribute& attribute : node.attributes()) {
    append_attribute(out, attribute);
  }
  if (node.children().empty()) {
    out += "/>";
    if (indent > 0) out += '\n';
    return;
  }
  out += '>';

  // Mixed or text content is written inline to preserve character data;
  // element-only content is pretty-printed.
  const bool structured = indent > 0 && has_element_children_only(node);
  if (structured) out += '\n';
  for (const Node& child : node.children()) {
    write_node(out, child, structured ? indent : 0, depth + 1);
  }
  if (structured) out.append(pad, ' ');
  out += "</";
  out += node.name();
  out += '>';
  if (indent > 0) out += '\n';
}

}  // namespace

std::string escape_text(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  append_escaped(out, raw, text_entity);
  return out;
}

std::string escape_attribute(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  append_escaped(out, raw, attribute_entity);
  return out;
}

std::string to_string(const Node& node, const WriteOptions& options) {
  std::string out;
  write_node(out, node, options.indent, 0);
  return out;
}

std::string to_string(const Document& document, const WriteOptions& options) {
  std::string out;
  if (options.declaration) {
    out += "<?xml";
    if (document.declaration().empty()) {
      out += " version=\"1.0\" encoding=\"UTF-8\"";
    } else {
      for (const Attribute& attribute : document.declaration()) {
        append_attribute(out, attribute);
      }
    }
    out += "?>";
    if (options.indent > 0) out += '\n';
  }
  write_node(out, document.root(), options.indent, 0);
  return out;
}

void write_file(const Document& document, const std::string& path,
                const WriteOptions& options) {
  std::ofstream stream(path, std::ios::binary);
  if (!stream) {
    throw util::Error(util::msg("cannot open '", path, "' for writing"));
  }
  stream << to_string(document, options);
  if (!stream) throw util::Error(util::msg("failed writing '", path, "'"));
}

}  // namespace choreo::xml
