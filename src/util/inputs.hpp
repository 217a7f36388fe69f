#pragma once
/// \file inputs.hpp
/// Parser for AMReX-style inputs files — the exact format of the paper's
/// Listing 2 (Castro `inputs.2d.cyl_in_cartcoords`):
///
///     # comment
///     amr.n_cell = 32 32
///     castro.cfl = 0.5
///
/// Keys are dotted strings; values are whitespace-separated tokens; `#` starts
/// a comment anywhere on a line. Typed getters convert on demand.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace amrio::util {

class InputsFile {
 public:
  InputsFile() = default;

  /// Parse from a string buffer. Throws std::invalid_argument on lines that
  /// are neither blank, comment, nor `key = values`.
  static InputsFile from_string(const std::string& text);
  /// Parse from a file on disk. Throws std::runtime_error if unreadable.
  static InputsFile from_file(const std::string& path);

  bool contains(const std::string& key) const;
  std::size_t size() const { return values_.size(); }

  // Typed getters: `get_*` throw std::out_of_range when the key is missing
  // and std::invalid_argument when conversion fails; `get_*_or` substitute a
  // fallback when the key is missing (but still throw on bad conversions).
  std::string get_string(const std::string& key) const;
  std::string get_string_or(const std::string& key, const std::string& dflt) const;
  std::int64_t get_int(const std::string& key) const;
  std::int64_t get_int_or(const std::string& key, std::int64_t dflt) const;
  double get_double(const std::string& key) const;
  double get_double_or(const std::string& key, double dflt) const;
  std::vector<std::int64_t> get_int_list(const std::string& key) const;
  std::vector<double> get_double_list(const std::string& key) const;

  /// Set/override a value programmatically (used by the campaign runner to
  /// build parameterized cases from a baseline file).
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, double value);
  void set_list(const std::string& key, const std::vector<std::int64_t>& values);

  /// Serialize back to the inputs-file text format (sorted by key).
  std::string to_string() const;

 private:
  const std::vector<std::string>& tokens(const std::string& key) const;
  std::map<std::string, std::vector<std::string>> values_;
};

}  // namespace amrio::util
