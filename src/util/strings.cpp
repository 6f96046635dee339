#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace choreo::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (true) {
    std::size_t end = text.find(sep, begin);
    if (end == std::string_view::npos) {
      out.emplace_back(text.substr(begin));
      return out;
    }
    out.emplace_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
}

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    std::size_t begin = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > begin) out.emplace_back(text.substr(begin, i - begin));
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  std::size_t end = text.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool is_identifier(std::string_view name) {
  if (name.empty()) return false;
  auto head = static_cast<unsigned char>(name.front());
  if (!std::isalpha(head) && head != '_') return false;
  for (char c : name.substr(1)) {
    auto uc = static_cast<unsigned char>(c);
    if (!std::isalnum(uc) && uc != '_') return false;
  }
  return true;
}

std::string format_double(double value) {
  // -0.0 == 0.0, so the zero fast path must consult the sign bit or it
  // silently drops the sign of negative zero.
  if (value == 0.0) return std::signbit(value) ? "-0" : "0";
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  // The shortest round-trip form in scientific notation has the fewest
  // significant digits any decimal that reads back to `value` can have (its
  // mantissa has neither leading nor trailing zeros), so no "%.*g"
  // precision below that count can read back either.  (The default
  // shortest form is no use here: it switches to fixed notation, whose
  // trailing zeros of a large integer are not significant.)
  char buffer[64];
  char* const last = buffer + sizeof buffer;
  const char* const shortest_end =
      std::to_chars(buffer, last, value, std::chars_format::scientific).ptr;
  int significant = 0;
  for (const char* c = buffer; c != shortest_end && *c != 'e'; ++c) {
    if (std::isdigit(static_cast<unsigned char>(*c))) ++significant;
  }
  // From there, the smallest precision whose text reads back bit-exactly;
  // 17 digits always do.  to_chars with a precision is printf("%.*g") in
  // the C locale and from_chars rounds as strtod does.
  char* end = buffer;
  for (int precision = significant;; ++precision) {
    end = std::to_chars(buffer, last, value, std::chars_format::general,
                        precision)
              .ptr;
    double parsed = 0.0;
    std::from_chars(buffer, end, parsed);
    if (parsed == value || precision >= 17) break;
  }
  return std::string(buffer, end);
}

}  // namespace choreo::util
