#include "util/csv.hpp"

#include <stdexcept>

#include "util/assert.hpp"
#include "util/format.hpp"

namespace amrio::util {

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
}

void CsvWriter::header(const std::vector<std::string>& cols) {
  AMRIO_EXPECTS_MSG(!header_written_, "CSV header already written: " << path_);
  AMRIO_EXPECTS(!cols.empty());
  ncols_ = cols.size();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << escape(cols[i]);
  }
  out_ << '\n';
  header_written_ = true;
}

CsvWriter& CsvWriter::field(const std::string& v) {
  if (col_ > 0) out_ << ',';
  out_ << escape(v);
  ++col_;
  row_open_ = true;
  return *this;
}

CsvWriter& CsvWriter::field(double v) { return field(format_g(v, 12)); }

CsvWriter& CsvWriter::field(std::uint64_t v) { return field(std::to_string(v)); }

CsvWriter& CsvWriter::field(std::int64_t v) { return field(std::to_string(v)); }

void CsvWriter::endrow() {
  AMRIO_EXPECTS_MSG(ncols_ == 0 || col_ == ncols_,
                    "CSV row has " << col_ << " fields, expected " << ncols_);
  out_ << '\n';
  col_ = 0;
  row_open_ = false;
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  for (const auto& c : cells) field(c);
  endrow();
}

std::string CsvWriter::escape(const std::string& v) {
  const bool needs_quotes =
      v.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return v;
  std::string out = "\"";
  for (char c : v) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace amrio::util
