#pragma once
/// \file format.hpp
/// Small string and byte-size formatting helpers shared across the library.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace amrio::util {

/// Split `s` on `delim`, trimming nothing; empty tokens are kept.
std::vector<std::string> split(std::string_view s, char delim);

/// Split `s` on runs of whitespace; empty tokens are dropped.
std::vector<std::string> split_ws(std::string_view s);

/// Strip leading/trailing whitespace.
std::string trim(std::string_view s);

/// Lower-case ASCII copy.
std::string to_lower(std::string_view s);

/// Join the range [first,last) of strings with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// "1.50 GiB", "512 B", ... (binary prefixes, as I/O tools report).
std::string human_bytes(std::uint64_t bytes);

/// Parse byte sizes with optional binary suffix: "64", "64K", "1.5M", "2G".
/// Throws std::invalid_argument on malformed input.
std::uint64_t parse_bytes(std::string_view s);

/// Fixed-width zero-padded integer, e.g. zero_pad(7, 5) == "00007". `width`
/// is a minimum: wider values keep every digit. Requires width >= 0.
std::string zero_pad(std::uint64_t value, int width);

/// `zero_pad` appended to `out`, with no string of its own.
void append_zero_pad(std::string& out, std::uint64_t value, int width);

/// printf-style %g formatting with `digits` significant digits. Rendered by
/// std::to_chars(general, digits), whose output is byte-identical to
/// snprintf("%.*g") (tests/test_util.cpp pins that over random bit patterns).
std::string format_g(double v, int digits = 6);

/// Capacity `format_g_to` needs: any %g rendering with up to 40 significant
/// digits (sign, point and a 5-character exponent included) fits.
inline constexpr std::size_t kFormatGMax = 48;

/// `format_g` without the std::string: renders into `buf` and returns the
/// written characters (a view into `buf`). Requires 0 <= digits <= 40.
std::string_view format_g_to(char (&buf)[kFormatGMax], double v, int digits);

}  // namespace amrio::util
