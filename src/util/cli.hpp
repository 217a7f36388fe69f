#pragma once
/// \file cli.hpp
/// Command-line parser for the example/bench executables and the MACSio-style
/// proxy CLI. Supports `--key value`, `--key=value`, `--flag`, and MACSio's
/// two-operand form `--parallel_file_mode MIF 8` via multi-value options.

#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace amrio::util {

/// Strict conversion of one value of `--flag`: the whole token must parse and
/// fit in T, else std::invalid_argument naming the flag, e.g.
/// "--num_dumps: expected an integer, got '2x'".
template <class T>
T parse_int(const std::string& flag, const std::string& token) {
  T v{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec == std::errc::result_out_of_range)
    throw std::invalid_argument("--" + flag + ": " + token +
                                " is out of range");
  if (ec != std::errc() || ptr != end)
    throw std::invalid_argument(
        "--" + flag + ": expected " +
        (std::is_unsigned_v<T> ? "a non-negative integer" : "an integer") +
        ", got '" + token + "'");
  return v;
}

/// Strict conversion to a finite double (rejects trailing garbage, inf, nan).
double parse_double(const std::string& flag, const std::string& token);

class ArgParser {
 public:
  ArgParser(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  /// Declare an option taking `nvalues` values (default 1). `help` is shown by
  /// usage(). Options may be given defaults; flags take 0 values.
  void add_option(const std::string& name, const std::string& help,
                  int nvalues = 1, std::optional<std::string> default_value = {});
  void add_flag(const std::string& name, const std::string& help);

  /// Parse argv. Throws std::invalid_argument on unknown options or missing
  /// values. `--key=value` supplies an option's first value. Positional
  /// arguments are collected in positional().
  void parse(int argc, const char* const* argv);
  void parse(const std::vector<std::string>& args);

  bool has(const std::string& name) const;
  /// First value of the option (or its default). Throws if absent.
  std::string get(const std::string& name) const;
  std::vector<std::string> get_all(const std::string& name) const;

  /// Integer value through parse_int<T>: reads into an `int` field use
  /// get_int<int> so out-of-range input is rejected instead of wrapping.
  template <class T = std::int64_t>
  T get_int(const std::string& name) const {
    return parse_int<T>(name, get(name));
  }
  template <class T = std::int64_t>
  T get_int_or(const std::string& name,
               std::type_identity_t<T> fallback) const {
    return has(name) ? get_int<T>(name) : fallback;
  }
  double get_double(const std::string& name) const {
    return parse_double(name, get(name));
  }
  double get_double_or(const std::string& name, double fallback) const {
    return has(name) ? get_double(name) : fallback;
  }
  bool flag(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  std::string usage() const;

 private:
  struct Option {
    std::string help;
    int nvalues = 1;
    std::optional<std::string> default_value;
    bool is_flag = false;
    bool seen = false;
    std::vector<std::string> values;
  };

  const Option& find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

}  // namespace amrio::util
