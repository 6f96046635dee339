// Test-only reference for util::format_double: the ladder it replaced,
// which formats "%.*g" at precisions 1 to 17 through snprintf and keeps the
// first text that sscanf reads back to the same double.  The library starts
// its search at the digit count of the shortest round-trip form instead, and
// must give the same text for every double.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>

namespace choreo::test {

inline std::string format_double_ladder(double value) {
  if (value == 0.0) return std::signbit(value) ? "-0" : "0";
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buffer[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(buffer, "%lf", &parsed);
    if (parsed == value) break;
  }
  return buffer;
}

}  // namespace choreo::test
