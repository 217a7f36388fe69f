#include "util/json_parse.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace amrio::util {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

double JsonValue::number_or(const std::string& key, double dflt) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->num_v : dflt;
}

std::uint64_t JsonValue::u64_or(const std::string& key,
                                std::uint64_t dflt) const {
  const JsonValue* v = find(key);
  // Out-of-range values (negative, >= 2^64) take the default: the cast
  // would be undefined behaviour.
  if (v == nullptr || v->kind != Kind::kNumber || !(v->num_v >= 0.0) ||
      v->num_v >= 18446744073709551616.0)
    return dflt;
  return static_cast<std::uint64_t>(v->num_v);
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& dflt) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::kString ? v->str_v : dflt;
}

namespace {

/// Deepest array/object nesting accepted. Our own artifacts nest three
/// levels; the bound keeps a hostile file from overflowing the stack of
/// this recursive-descent parser.
constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      // A throw abandons the parse, so the count needs no unwinding.
      if (++depth_ > kMaxDepth)
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    switch (c) {
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.str_v = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    v.bool_v = b;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // Our writers only escape control characters; encode the code
          // point as UTF-8 without surrogate-pair handling.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    bool any = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
      any = true;
    }
    if (!any) fail("expected a JSON value");
    const std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number '" + num + "'");
    JsonValue out;
    out.kind = JsonValue::Kind::kNumber;
    out.num_v = v;
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("json: cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_json(ss.str());
}

}  // namespace amrio::util
