#include "util/format.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/assert.hpp"

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

void append_zero_pad(std::string& out, std::uint64_t value, int width) {
  AMRIO_EXPECTS(width >= 0);
  char digits[20];  // UINT64_MAX has 20
  const auto res = std::to_chars(digits, digits + sizeof digits, value);
  const auto len = static_cast<std::size_t>(res.ptr - digits);
  if (static_cast<std::size_t>(width) > len)
    out.append(static_cast<std::size_t>(width) - len, '0');
  out.append(digits, len);
}

std::string zero_pad(std::uint64_t value, int width) {
  std::string out;
  append_zero_pad(out, value, width);
  return out;
}

std::string_view format_g_to(char (&buf)[kFormatGMax], double v,
                             int digits) {
  AMRIO_EXPECTS(digits >= 0 && digits <= 40);
  const auto res = std::to_chars(buf, buf + kFormatGMax, v,
                                 std::chars_format::general, digits);
  AMRIO_ENSURES(res.ec == std::errc());
  return {buf, static_cast<std::size_t>(res.ptr - buf)};
}

std::string format_g(double v, int digits) {
  char buf[kFormatGMax];
  return std::string(format_g_to(buf, v, digits));
}

}  // namespace amrio::util
