#include "util/format.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace amrio::util {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string human_bytes(std::uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 5) {
    v /= 1024.0;
    ++unit;
  }
  char buf[64];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B", static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", v, kUnits[unit]);
  }
  return buf;
}

std::uint64_t parse_bytes(std::string_view raw) {
  const std::string s = trim(raw);
  if (s.empty()) throw std::invalid_argument("parse_bytes: empty string");
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(s, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_bytes: no number in '" + s + "'");
  }
  if (value < 0) throw std::invalid_argument("parse_bytes: negative size '" + s + "'");
  std::string suffix = to_lower(trim(s.substr(pos)));
  double mult = 1.0;
  if (suffix.empty() || suffix == "b") {
    mult = 1.0;
  } else if (suffix == "k" || suffix == "kb" || suffix == "kib") {
    mult = 1024.0;
  } else if (suffix == "m" || suffix == "mb" || suffix == "mib") {
    mult = 1024.0 * 1024.0;
  } else if (suffix == "g" || suffix == "gb" || suffix == "gib") {
    mult = 1024.0 * 1024.0 * 1024.0;
  } else if (suffix == "t" || suffix == "tb" || suffix == "tib") {
    mult = 1024.0 * 1024.0 * 1024.0 * 1024.0;
  } else {
    throw std::invalid_argument("parse_bytes: unknown suffix '" + suffix + "'");
  }
  // nan/inf and sizes past 2^64 have no uint64 rounding; reject them here.
  const double bytes = std::round(value * mult);
  if (!(bytes < 18446744073709551616.0))
    throw std::invalid_argument("parse_bytes: not a representable size '" +
                                s + "'");
  return static_cast<std::uint64_t>(bytes);
}

std::string zero_pad(std::uint64_t value, int width) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%0*llu", width,
                static_cast<unsigned long long>(value));
  return buf;
}

std::string format_g(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

}  // namespace amrio::util
