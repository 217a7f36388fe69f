#pragma once
/// \file csv.hpp
/// Tiny RFC-4180-ish CSV writer. Every bench emits its figure/table data as
/// CSV next to the human-readable text so results can be re-plotted.

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace amrio::util {

class CsvWriter {
 public:
  /// Opens `path` for writing (parent directories must exist).
  /// Throws std::runtime_error when the file cannot be opened.
  explicit CsvWriter(const std::string& path);

  /// Write the header row. Must be called before any data rows.
  void header(const std::vector<std::string>& cols);

  CsvWriter& field(const std::string& v);
  CsvWriter& field(const char* v) { return field(std::string(v)); }
  CsvWriter& field(double v);
  CsvWriter& field(std::uint64_t v);
  CsvWriter& field(std::int64_t v);
  CsvWriter& field(int v) { return field(static_cast<std::int64_t>(v)); }
  /// Finish the current row.
  void endrow();

  /// Convenience: write a full row of already-formatted cells.
  void row(const std::vector<std::string>& cells);

  const std::string& path() const { return path_; }

  static std::string escape(const std::string& v);

 private:
  std::string path_;
  std::ofstream out_;
  bool row_open_ = false;
  bool header_written_ = false;
  std::size_t ncols_ = 0;
  std::size_t col_ = 0;
};

}  // namespace amrio::util
