// Test-only references for the document path: the XML writer that streamed
// into a std::ostringstream and the parser that advanced one byte at a time,
// tracking line and column as it went.  The library's writer appends into
// one string and its parser scans spans, counting line and column only when
// it raises; both must reproduce these byte for byte: the same text, the
// same Document (root and declaration) or the same ParseError text.
#pragma once

#include <cctype>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "xml/dom.hpp"
#include "xml/parse.hpp"
#include "xml/write.hpp"

namespace choreo::test::xml_oracle {

namespace xml = choreo::xml;
namespace util = choreo::util;

// --- writer ---------------------------------------------------------------

inline std::string escape_text(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

inline std::string escape_attribute(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      case '"': out += "&quot;"; break;
      case '\n': out += "&#10;"; break;
      case '\t': out += "&#9;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

inline bool has_element_children_only(const xml::Node& node) {
  bool any = false;
  for (const xml::Node& child : node.children()) {
    if (child.is_text() || child.kind() == xml::Node::Kind::CData) return false;
    any = true;
  }
  return any;
}

inline void write_node(std::ostringstream& out, const xml::Node& node, int indent, int depth) {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ') : "";
  switch (node.kind()) {
    case xml::Node::Kind::Text:
      out << escape_text(node.content());
      return;
    case xml::Node::Kind::Comment:
      out << pad << "<!--" << node.content() << "-->";
      if (indent > 0) out << '\n';
      return;
    case xml::Node::Kind::CData:
      out << "<![CDATA[" << node.content() << "]]>";
      return;
    case xml::Node::Kind::Element:
      break;
  }

  out << pad << '<' << node.name();
  for (const xml::Attribute& attribute : node.attributes()) {
    out << ' ' << attribute.name << "=\"" << escape_attribute(attribute.value)
        << '"';
  }
  if (node.children().empty()) {
    out << "/>";
    if (indent > 0) out << '\n';
    return;
  }
  out << '>';

  // Mixed or text content is written inline to preserve character data;
  // element-only content is pretty-printed.
  const bool structured = indent > 0 && has_element_children_only(node);
  if (structured) out << '\n';
  for (const xml::Node& child : node.children()) {
    write_node(out, child, structured ? indent : 0, depth + 1);
  }
  if (structured) out << pad;
  out << "</" << node.name() << '>';
  if (indent > 0) out << '\n';
}

inline std::string to_string(const xml::Document& document,
                             const xml::WriteOptions& options) {
  std::ostringstream out;
  if (options.declaration) {
    out << "<?xml";
    if (document.declaration().empty()) {
      out << " version=\"1.0\" encoding=\"UTF-8\"";
    } else {
      for (const xml::Attribute& attribute : document.declaration()) {
        out << ' ' << attribute.name << "=\""
            << escape_attribute(attribute.value) << '"';
      }
    }
    out << "?>";
    if (options.indent > 0) out << '\n';
  }
  write_node(out, document.root(), options.indent, 0);
  return out.str();
}

// --- parser ---------------------------------------------------------------

inline bool is_name_start(char c) {
  auto uc = static_cast<unsigned char>(c);
  return std::isalpha(uc) || c == '_' || c == ':';
}

inline bool is_name_char(char c) {
  auto uc = static_cast<unsigned char>(c);
  return std::isalnum(uc) || c == '_' || c == ':' || c == '-' || c == '.';
}

class Parser {
 public:
  Parser(std::string_view input, const xml::ParseOptions& options)
      : input_(input), options_(options) {}

  xml::Document run() {
    xml::Document document;
    skip_bom();
    if (lookahead("<?xml")) document.set_declaration(parse_declaration());
    skip_misc();
    if (lookahead("<!DOCTYPE")) {
      skip_doctype();
      skip_misc();
    }
    if (at_end() || peek() != '<') fail("expected root element");
    document.set_root(parse_element());
    skip_misc();
    if (!at_end()) fail("content after the root element");
    return document;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw util::ParseError(options_.source_name, line_, column_, message);
  }

  bool at_end() const noexcept { return pos_ >= input_.size(); }
  char peek() const { return input_[pos_]; }

  char advance() {
    const char c = input_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  bool lookahead(std::string_view token) const {
    return input_.substr(pos_, token.size()) == token;
  }

  bool consume(std::string_view token) {
    if (!lookahead(token)) return false;
    for (std::size_t i = 0; i < token.size(); ++i) advance();
    return true;
  }

  void expect(std::string_view token, const char* what) {
    if (!consume(token)) fail(util::msg("expected ", what));
  }

  void skip_bom() {
    consume("\xEF\xBB\xBF");
  }

  void skip_ws() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) advance();
  }

  /// Skips whitespace and comments between top-level constructs.
  void skip_misc() {
    while (true) {
      skip_ws();
      if (lookahead("<!--")) {
        parse_comment();
      } else if (lookahead("<?")) {
        skip_processing_instruction();
      } else {
        return;
      }
    }
  }

  std::vector<xml::Attribute> parse_declaration() {
    expect("<?xml", "XML declaration");
    std::vector<xml::Attribute> attributes;
    while (true) {
      skip_ws();
      if (consume("?>")) return attributes;
      if (at_end()) fail("unterminated XML declaration");
      attributes.push_back(parse_attribute());
    }
  }

  void skip_processing_instruction() {
    expect("<?", "processing instruction");
    while (!at_end()) {
      if (consume("?>")) return;
      advance();
    }
    fail("unterminated processing instruction");
  }

  void skip_doctype() {
    expect("<!DOCTYPE", "DOCTYPE declaration");
    // Angle brackets inside quoted literals of the internal subset (entity
    // values, system identifiers) are data, not markup, so bracket depth is
    // only adjusted outside quotes.
    int depth = 1;
    char quote = '\0';
    while (!at_end() && depth > 0) {
      const char c = advance();
      if (quote != '\0') {
        if (c == quote) quote = '\0';
        continue;
      }
      if (c == '"' || c == '\'') {
        quote = c;
      } else if (c == '<') {
        ++depth;
      } else if (c == '>') {
        --depth;
      }
    }
    if (depth != 0 || quote != '\0') fail("unterminated DOCTYPE declaration");
  }

  std::string parse_name() {
    if (at_end() || !is_name_start(peek())) fail("expected a name");
    std::string name;
    name.push_back(advance());
    while (!at_end() && is_name_char(peek())) name.push_back(advance());
    return name;
  }

  xml::Attribute parse_attribute() {
    xml::Attribute attribute;
    attribute.name = parse_name();
    skip_ws();
    expect("=", "'=' after attribute name");
    skip_ws();
    if (at_end() || (peek() != '"' && peek() != '\'')) {
      fail("expected a quoted attribute value");
    }
    const char quote = advance();
    std::string raw;
    while (!at_end() && peek() != quote) {
      if (peek() == '<') fail("'<' in attribute value");
      raw.push_back(advance());
    }
    if (at_end()) fail("unterminated attribute value");
    advance();  // closing quote
    attribute.value = decode_entities(raw);
    return attribute;
  }

  xml::Node parse_comment() {
    expect("<!--", "comment");
    std::string content;
    while (!at_end()) {
      if (consume("-->")) return xml::Node::comment(std::move(content));
      content.push_back(advance());
    }
    fail("unterminated comment");
  }

  xml::Node parse_cdata() {
    expect("<![CDATA[", "CDATA section");
    std::string content;
    while (!at_end()) {
      if (consume("]]>")) return xml::Node::cdata(std::move(content));
      content.push_back(advance());
    }
    fail("unterminated CDATA section");
  }

  xml::Node parse_element() {
    expect("<", "'<'");
    xml::Node node = xml::Node::element(parse_name());
    while (true) {
      skip_ws();
      if (consume("/>")) return node;
      if (consume(">")) break;
      if (at_end()) fail("unterminated start tag");
      xml::Attribute attribute = parse_attribute();
      if (node.has_attr(attribute.name)) {
        fail(util::msg("duplicate attribute '", attribute.name, "'"));
      }
      node.set_attr(attribute.name, attribute.value);
    }
    parse_content(node);
    return node;
  }

  void parse_content(xml::Node& parent) {
    std::string pending_text;
    auto flush_text = [&] {
      if (pending_text.empty()) return;
      const bool ignorable =
          options_.drop_ignorable_whitespace &&
          util::trim(pending_text).empty();
      if (!ignorable) parent.add_text(decode_entities(pending_text));
      pending_text.clear();
    };

    while (true) {
      if (at_end()) fail(util::msg("unterminated element <", parent.name(), ">"));
      if (lookahead("</")) {
        flush_text();
        consume("</");
        const std::string name = parse_name();
        if (name != parent.name()) {
          fail(util::msg("mismatched end tag </", name, "> for <", parent.name(),
                         ">"));
        }
        skip_ws();
        expect(">", "'>' of end tag");
        return;
      }
      if (lookahead("<!--")) {
        flush_text();
        parent.add_child(parse_comment());
        continue;
      }
      if (lookahead("<![CDATA[")) {
        flush_text();
        parent.add_child(parse_cdata());
        continue;
      }
      if (lookahead("<?")) {
        flush_text();
        skip_processing_instruction();
        continue;
      }
      if (peek() == '<') {
        flush_text();
        parent.add_child(parse_element());
        continue;
      }
      pending_text.push_back(advance());
    }
  }

  std::string decode_entities(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out.push_back(raw[i++]);
        continue;
      }
      const std::size_t semicolon = raw.find(';', i);
      if (semicolon == std::string_view::npos) fail("unterminated entity");
      const std::string_view entity = raw.substr(i + 1, semicolon - i - 1);
      if (entity == "lt") {
        out.push_back('<');
      } else if (entity == "gt") {
        out.push_back('>');
      } else if (entity == "amp") {
        out.push_back('&');
      } else if (entity == "quot") {
        out.push_back('"');
      } else if (entity == "apos") {
        out.push_back('\'');
      } else if (!entity.empty() && entity.front() == '#') {
        out += decode_char_reference(entity.substr(1));
      } else {
        fail(util::msg("unknown entity '&", std::string(entity), ";'"));
      }
      i = semicolon + 1;
    }
    return out;
  }

  std::string decode_char_reference(std::string_view digits) {
    const bool hex =
        !digits.empty() && (digits.front() == 'x' || digits.front() == 'X');
    const std::string_view body = hex ? digits.substr(1) : digits;
    if (body.empty()) {
      fail(hex ? "empty hex character reference"
               : "empty character reference");
    }
    unsigned long code = 0;
    if (hex) {
      for (char c : body) {
        auto uc = static_cast<unsigned char>(c);
        if (!std::isxdigit(uc)) fail("malformed hex character reference");
        code = code * 16 +
               (std::isdigit(uc) ? uc - '0' : std::tolower(uc) - 'a' + 10);
        // Fail as soon as the value leaves Unicode range, before a long
        // digit string can wrap the accumulator.
        if (code > 0x10FFFF) fail("character reference out of range");
      }
    } else {
      for (char c : body) {
        if (!std::isdigit(static_cast<unsigned char>(c))) {
          fail("malformed character reference");
        }
        code = code * 10 + static_cast<unsigned long>(c - '0');
        if (code > 0x10FFFF) fail("character reference out of range");
      }
    }
    if (code == 0) fail("character reference to U+0000");
    if (code >= 0xD800 && code <= 0xDFFF) {
      fail("character reference to a surrogate code point");
    }
    // UTF-8 encode.
    std::string out;
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x110000) {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      fail("character reference out of range");
    }
    return out;
  }

  std::string_view input_;
  const xml::ParseOptions& options_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t column_ = 1;
};

inline xml::Document parse_document(std::string_view input,
                                   const xml::ParseOptions& options = {}) {
  return Parser(input, options).run();
}

}  // namespace choreo::test::xml_oracle
