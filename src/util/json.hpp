#pragma once
/// \file json.hpp
/// Streaming JSON writer used by the MACSio `miftmpl` interface (the paper's
/// runs use MACSio's json output) and for machine-readable reports. Emits to
/// any std::ostream; correctness of nesting is contract-checked.

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace amrio::util {

/// Stack-based streaming writer:
///   JsonWriter w(os);
///   w.begin_object();
///   w.key("steps").begin_array(); w.value(1); w.value(2); w.end_array();
///   w.end_object();
///
/// Tokens are rendered into a private buffer (no per-token allocation once
/// it has grown) and handed to `os` in one `write` when the buffer passes
/// `kFlushBytes`, when a root document completes, and on destruction. Text
/// a caller writes to `os` after the document completes therefore lands
/// after it, and a long document streams in bounded memory.
class JsonWriter {
 public:
  /// Buffered bytes that trigger a write to the stream mid-document.
  static constexpr std::size_t kFlushBytes = 64 * 1024;

  explicit JsonWriter(std::ostream& os, bool pretty = false)
      : os_(os), pretty_(pretty) {}
  /// Writes whatever is still buffered (a document cut short by a contract
  /// violation included); never throws.
  ~JsonWriter();
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  /// No bool overload: without this a bool would print as the integer 1/0.
  JsonWriter& value(bool v) = delete;

  /// True once every opened scope is closed.
  bool complete() const { return stack_.empty() && wrote_root_; }

 private:
  enum class Scope { kObject, kArray };
  void comma_and_indent();
  void begin_value();
  void newline_indent();
  void close_scope(char closer);
  void after_token();
  void flush();

  std::ostream& os_;
  bool pretty_;
  std::string buf_;  // rendered, not yet written to os_
  std::vector<Scope> stack_;
  std::vector<bool> first_in_scope_;
  bool expecting_value_ = false;  // a key was just written
  bool wrote_root_ = false;
};

}  // namespace amrio::util
