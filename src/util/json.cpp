#include "util/json.hpp"

#include <array>
#include <charconv>

#include "util/assert.hpp"
#include "util/format.hpp"

namespace amrio::util {
namespace {

/// Bytes JSON strings must escape: `"`, `\` and control characters.
constexpr auto kNeedsEscape = [] {
  std::array<bool, 256> t{};
  for (int c = 0; c < 0x20; ++c) t[c] = true;
  t['"'] = t['\\'] = true;
  return t;
}();

/// Appends the escaped body of `s` to `out`: runs of safe bytes are copied
/// in one append; only the kNeedsEscape bytes are rewritten.
void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (!kNeedsEscape[c]) continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(u, sizeof(u));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

template <class Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

}  // namespace

JsonWriter::~JsonWriter() {
  // A failed write is already recorded in the stream's state (badbit);
  // the catch only keeps a stream with exceptions() enabled from
  // terminating the program during unwinding.
  try {
    flush();
  } catch (...) {
  }
}

void JsonWriter::flush() {
  if (buf_.empty()) return;
  os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

void JsonWriter::after_token() {
  if (stack_.empty() || buf_.size() >= kFlushBytes) flush();
}

void JsonWriter::newline_indent() {
  buf_ += '\n';
  buf_.append(2 * stack_.size(), ' ');
}

void JsonWriter::comma_and_indent() {
  if (!stack_.empty()) {
    if (!first_in_scope_.back()) buf_ += ',';
    first_in_scope_.back() = false;
    if (pretty_) newline_indent();
  }
}

void JsonWriter::begin_value() {
  if (!expecting_value_) comma_and_indent();
  AMRIO_EXPECTS_MSG(!wrote_root_ || !stack_.empty(),
                    "JSON: value after complete document");
  if (!stack_.empty() && stack_.back() == Scope::kObject) {
    AMRIO_EXPECTS_MSG(expecting_value_, "JSON: value in object without key");
  }
  expecting_value_ = false;
  wrote_root_ = true;
}

void JsonWriter::close_scope(char closer) {
  const bool was_empty = first_in_scope_.back();
  stack_.pop_back();
  first_in_scope_.pop_back();
  if (pretty_ && !was_empty) newline_indent();
  buf_ += closer;
  after_token();
}

JsonWriter& JsonWriter::begin_object() {
  begin_value();
  buf_ += '{';
  stack_.push_back(Scope::kObject);
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  AMRIO_EXPECTS(!stack_.empty() && stack_.back() == Scope::kObject);
  AMRIO_EXPECTS_MSG(!expecting_value_, "JSON: dangling key at end_object");
  close_scope('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  begin_value();
  buf_ += '[';
  stack_.push_back(Scope::kArray);
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  AMRIO_EXPECTS(!stack_.empty() && stack_.back() == Scope::kArray);
  close_scope(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  AMRIO_EXPECTS_MSG(!stack_.empty() && stack_.back() == Scope::kObject,
                    "JSON: key outside object");
  AMRIO_EXPECTS_MSG(!expecting_value_, "JSON: two keys in a row");
  comma_and_indent();
  buf_ += '"';
  append_escaped(buf_, k);
  buf_ += pretty_ ? "\": " : "\":";
  expecting_value_ = true;
  after_token();
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  begin_value();
  buf_ += '"';
  append_escaped(buf_, v);
  buf_ += '"';
  after_token();
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  begin_value();
  char tmp[kFormatGMax];
  buf_ += format_g_to(tmp, v, 17);
  after_token();
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  begin_value();
  append_int(buf_, v);
  after_token();
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  begin_value();
  append_int(buf_, v);
  after_token();
  return *this;
}

}  // namespace amrio::util
