#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace woha {

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  std::size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::int64_t parse_int(std::string_view s) {
  s = trim(s);
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    throw std::invalid_argument("parse_int: not an integer: '" + std::string(s) + "'");
  }
  return v;
}

double parse_double(std::string_view s) {
  s = trim(s);
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    throw std::invalid_argument("parse_double: not a number: '" + std::string(s) + "'");
  }
  return v;
}

Duration parse_duration(std::string_view raw) {
  const std::string_view s = trim(raw);
  if (s.empty()) throw std::invalid_argument("parse_duration: empty string");
  std::size_t num_end = 0;
  while (num_end < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[num_end])) ||
          s[num_end] == '.' || s[num_end] == '-' || s[num_end] == '+')) {
    ++num_end;
  }
  const double value = parse_double(s.substr(0, num_end));
  const std::string_view unit = trim(s.substr(num_end));
  double scale = 1.0;
  if (unit.empty() || unit == "ms") {
    scale = 1.0;
  } else if (unit == "s" || unit == "sec") {
    scale = 1000.0;
  } else if (unit == "m" || unit == "min") {
    scale = 60.0 * 1000.0;
  } else if (unit == "h" || unit == "hr") {
    scale = 3600.0 * 1000.0;
  } else {
    throw std::invalid_argument("parse_duration: unknown unit '" + std::string(unit) + "'");
  }
  // The conversion to the int64 Duration is defined on [-2^63, 2^63) only.
  const double ms = value * scale;
  if (!(ms >= -0x1p63 && ms < 0x1p63)) {
    throw std::invalid_argument("parse_duration: '" + std::string(s) +
                                "' is outside the range of a duration");
  }
  return static_cast<Duration>(ms);
}

std::string format_duration(Duration d) {
  if (d < 0) return std::string("-").append(format_duration(-d));
  char buf[64];
  if (d < 1000) {
    std::snprintf(buf, sizeof buf, "%lldms", static_cast<long long>(d));
  } else if (d < 60 * 1000) {
    std::snprintf(buf, sizeof buf, "%.1fs", static_cast<double>(d) / 1000.0);
  } else if (d < 3600 * 1000) {
    std::snprintf(buf, sizeof buf, "%.1fmin", static_cast<double>(d) / 60000.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.2fh", static_cast<double>(d) / 3600000.0);
  }
  return buf;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace woha
