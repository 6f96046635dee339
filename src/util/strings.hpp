// Small string utilities used across the toolchain.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace choreo::util {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Splits on any run of whitespace, dropping empty fields.
std::vector<std::string> split_ws(std::string_view text);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Joins `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// True if `name` is a valid identifier: [A-Za-z_][A-Za-z0-9_]*.
bool is_identifier(std::string_view name);

/// Renders a double as the shortest printf("%.*g") text, in the C locale,
/// that reads back to the same double bit for bit: the smallest precision
/// in 1..17 whose text strtod returns as `value` ("0.5", "2", "2e+01",
/// "1e-09", "0.10000000000000002" for nextafter(0.1, 1)).  Zero is "0" or
/// "-0" by its sign bit; NaN is "nan", infinities "inf" and "-inf".  Cache
/// keys, sweep tables, annotated XMI and the goldens rely on both the
/// exactness and the spelling.
std::string format_double(double value);

}  // namespace choreo::util
