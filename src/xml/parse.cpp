#include "xml/parse.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace choreo::xml {

namespace {

bool is_name_start(char c) {
  auto uc = static_cast<unsigned char>(c);
  return std::isalpha(uc) || c == '_' || c == ':';
}

bool is_name_char(char c) {
  auto uc = static_cast<unsigned char>(c);
  return std::isalnum(uc) || c == '_' || c == ':' || c == '-' || c == '.';
}

class Parser {
 public:
  Parser(std::string_view input, const ParseOptions& options)
      : input_(input), options_(options) {}

  Document run() {
    Document document;
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
  static constexpr std::size_t npos = std::string_view::npos;

  /// Raises at the current position.  Line and column are counted from the
  /// input here, so scanning never tracks them: the line is one more than
  /// the newlines before the position, the column one more than the bytes
  /// since the last of them.
  [[noreturn]] void fail(const std::string& message) const {
    const std::string_view before = input_.substr(0, pos_);
    const auto newlines =
        static_cast<std::size_t>(std::count(before.begin(), before.end(), '\n'));
    const std::size_t last_newline = before.rfind('\n');
    const std::size_t column =
        last_newline == npos ? pos_ + 1 : pos_ - last_newline;
    throw util::ParseError(options_.source_name, newlines + 1, column, message);
  }

  /// Moves to the end of the input and raises there.
  [[noreturn]] void fail_at_end(const std::string& message) {
    pos_ = input_.size();
    fail(message);
  }

  bool at_end() const noexcept { return pos_ >= input_.size(); }
  char peek() const { return input_[pos_]; }

  bool lookahead(std::string_view token) const {
    return input_.substr(pos_, token.size()) == token;
  }

  bool consume(std::string_view token) {
    if (!lookahead(token)) return false;
    pos_ += token.size();
    return true;
  }

  void expect(std::string_view token, const char* what) {
    if (!consume(token)) fail(util::msg("expected ", what));
  }

  /// Returns the text up to the next `terminator` and moves past the
  /// terminator; raises `unterminated` at the end of the input when there is
  /// none.
  std::string_view scan_to(std::string_view terminator, const char* unterminated) {
    const std::size_t found = input_.find(terminator, pos_);
    if (found == npos) fail_at_end(unterminated);
    const std::string_view text = input_.substr(pos_, found - pos_);
    pos_ = found + terminator.size();
    return text;
  }

  void skip_bom() {
    consume("\xEF\xBB\xBF");
  }

  void skip_ws() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
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

  std::vector<Attribute> parse_declaration() {
    expect("<?xml", "XML declaration");
    std::vector<Attribute> attributes;
    while (true) {
      skip_ws();
      if (consume("?>")) return attributes;
      if (at_end()) fail("unterminated XML declaration");
      const auto [name, value] = parse_attribute();
      attributes.push_back({std::string(name), std::string(value)});
    }
  }

  void skip_processing_instruction() {
    expect("<?", "processing instruction");
    scan_to("?>", "unterminated processing instruction");
  }

  void skip_doctype() {
    expect("<!DOCTYPE", "DOCTYPE declaration");
    // Angle brackets inside quoted literals of the internal subset (entity
    // values, system identifiers) are data, not markup, so bracket depth is
    // only adjusted outside quotes.
    int depth = 1;
    char quote = '\0';
    while (!at_end() && depth > 0) {
      const char c = input_[pos_++];
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

  std::string_view parse_name() {
    if (at_end() || !is_name_start(peek())) fail("expected a name");
    const std::size_t begin = pos_++;
    while (!at_end() && is_name_char(peek())) ++pos_;
    return input_.substr(begin, pos_ - begin);
  }

  /// Parses name="value" and returns the name and the decoded value (see
  /// decode_entities for how long the value's view lives).
  std::pair<std::string_view, std::string_view> parse_attribute() {
    const std::string_view name = parse_name();
    skip_ws();
    expect("=", "'=' after attribute name");
    skip_ws();
    if (at_end() || (peek() != '"' && peek() != '\'')) {
      fail("expected a quoted attribute value");
    }
    const char quote = input_[pos_++];
    const std::size_t begin = pos_;
    while (!at_end() && peek() != quote) {
      if (peek() == '<') fail("'<' in attribute value");
      ++pos_;
    }
    if (at_end()) fail("unterminated attribute value");
    const std::string_view raw = input_.substr(begin, pos_ - begin);
    ++pos_;  // closing quote
    return {name, decode_entities(raw)};
  }

  Node parse_comment() {
    expect("<!--", "comment");
    return Node::comment(std::string(scan_to("-->", "unterminated comment")));
  }

  Node parse_cdata() {
    expect("<![CDATA[", "CDATA section");
    return Node::cdata(std::string(scan_to("]]>", "unterminated CDATA section")));
  }

  Node parse_element() {
    expect("<", "'<'");
    Node node = Node::element(std::string(parse_name()));
    while (true) {
      skip_ws();
      if (consume("/>")) return node;
      if (consume(">")) break;
      if (at_end()) fail("unterminated start tag");
      const auto [name, value] = parse_attribute();
      if (node.has_attr(name)) {
        fail(util::msg("duplicate attribute '", name, "'"));
      }
      node.set_attr(name, value);
    }
    parse_content(node);
    return node;
  }

  void parse_content(Node& parent) {
    while (true) {
      // Character data runs to the next markup; it is decoded (and checked)
      // only there, so an element cut off inside text reports the cut.
      const std::size_t markup = input_.find('<', pos_);
      if (markup == npos) {
        fail_at_end(util::msg("unterminated element <", parent.name(), ">"));
      }
      const std::string_view text = input_.substr(pos_, markup - pos_);
      pos_ = markup;
      if (!text.empty() && !(options_.drop_ignorable_whitespace &&
                             util::trim(text).empty())) {
        parent.add_text(std::string(decode_entities(text)));
      }
      if (consume("</")) {
        const std::string_view name = parse_name();
        if (name != parent.name()) {
          fail(util::msg("mismatched end tag </", name, "> for <", parent.name(),
                         ">"));
        }
        skip_ws();
        expect(">", "'>' of end tag");
        return;
      }
      if (lookahead("<!--")) {
        parent.add_child(parse_comment());
      } else if (lookahead("<![CDATA[")) {
        parent.add_child(parse_cdata());
      } else if (lookahead("<?")) {
        skip_processing_instruction();
      } else {
        parent.add_child(parse_element());
      }
    }
  }

  /// Resolves entity and character references.  Returns `raw` itself when
  /// it has none, and otherwise a view of a buffer the next call reuses.
  std::string_view decode_entities(std::string_view raw) {
    std::size_t amp = raw.find('&');
    if (amp == npos) return raw;
    decoded_.clear();
    std::size_t plain = 0;
    for (; amp != npos; amp = raw.find('&', plain)) {
      decoded_.append(raw, plain, amp - plain);
      const std::size_t semicolon = raw.find(';', amp);
      if (semicolon == npos) fail("unterminated entity");
      const std::string_view entity = raw.substr(amp + 1, semicolon - amp - 1);
      if (entity == "lt") {
        decoded_.push_back('<');
      } else if (entity == "gt") {
        decoded_.push_back('>');
      } else if (entity == "amp") {
        decoded_.push_back('&');
      } else if (entity == "quot") {
        decoded_.push_back('"');
      } else if (entity == "apos") {
        decoded_.push_back('\'');
      } else if (!entity.empty() && entity.front() == '#') {
        append_char_reference(entity.substr(1));
      } else {
        fail(util::msg("unknown entity '&", entity, ";'"));
      }
      plain = semicolon + 1;
    }
    decoded_.append(raw, plain);
    return decoded_;
  }

  /// Appends the UTF-8 encoding of a numeric reference's code point.
  void append_char_reference(std::string_view digits) {
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
    std::string& out = decoded_;
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
  }

  std::string_view input_;
  const ParseOptions& options_;
  std::size_t pos_ = 0;
  /// decode_entities' output when a text has references.
  std::string decoded_;
};

}  // namespace

Document parse_document(std::string_view input, const ParseOptions& options) {
  return Parser(input, options).run();
}

Document parse_file(const std::string& path, ParseOptions options) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) throw util::Error(util::msg("cannot open '", path, "'"));
  if (options.source_name == "<xml>") options.source_name = path;
  // Read straight into the one string the parser scans; the size is only a
  // hint, so a file that is not regular (or changes meanwhile) reads whole.
  std::string contents;
  std::error_code no_size;
  const std::uintmax_t size = std::filesystem::file_size(path, no_size);
  if (!no_size) contents.reserve(static_cast<std::size_t>(size));
  char chunk[1 << 14];
  while (stream.read(chunk, sizeof chunk), stream.gcount() > 0) {
    contents.append(chunk, static_cast<std::size_t>(stream.gcount()));
  }
  return parse_document(contents, options);
}

}  // namespace choreo::xml
