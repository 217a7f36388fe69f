#include "macsio/interfaces.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <vector>

#include "util/assert.hpp"
#include "util/format.hpp"

namespace amrio::macsio {

std::uint64_t IoInterface::task_doc_bytes(const PartSpec& spec, int rank,
                                          int dump, int nparts,
                                          std::uint64_t meta_size) const {
  CountingSink sink;
  util::Xoshiro256 rng(0);
  begin_task_doc(sink, rank, dump);
  for (int p = 0; p < nparts; ++p) {
    if (p > 0) part_separator(sink);
    write_part(sink, spec, p, FillMode::kSized, rng);
  }
  end_task_doc(sink, meta_size);
  return sink.bytes();
}

namespace {

/// A short header rendered on the stack: literal text and integers
/// (std::to_chars, the digits std::to_string gives), with no heap string.
/// The longest miftmpl header, a part's, is 45 literal bytes and four ints of
/// at most 11 characters each.
class HeaderText {
 public:
  HeaderText& operator<<(std::string_view text) {
    AMRIO_EXPECTS(text.size() <= static_cast<std::size_t>(end() - pos_));
    pos_ = std::copy(text.begin(), text.end(), pos_);
    return *this;
  }
  HeaderText& operator<<(int v) {
    const auto res = std::to_chars(pos_, end(), v);
    AMRIO_ENSURES(res.ec == std::errc());
    pos_ = res.ptr;
    return *this;
  }
  std::string_view view() const {
    return {buf_, static_cast<std::size_t>(pos_ - buf_)};
  }

 private:
  char* end() { return buf_ + sizeof buf_; }
  char buf_[96];
  char* pos_ = buf_;
};

/// Fixed-width (23 char) rendering of a value in [0, 1): "1.23456789012345678e-01".
void format_value(char* buf, double v) {
  std::snprintf(buf, kJsonValueWidth + 1, "%.17e", v);
}

// --------------------------------------------------------------- miftmpl

class MiftmplInterface final : public IoInterface {
 public:
  std::string_view file_tag() const override { return "json"; }
  std::string_view extension() const override { return "json"; }

  void begin_task_doc(Sink& sink, int rank, int dump) const override {
    HeaderText h;
    h << "{\"task\":" << rank << ",\"dump\":" << dump << ",\"parts\":[";
    sink.write(h.view());
  }

  void part_separator(Sink& sink) const override { sink.write(","); }

  void end_task_doc(Sink& sink, std::uint64_t meta_size) const override {
    sink.write("],\"meta\":\"");
    static const std::string kPad(4096, ' ');
    std::uint64_t remaining = meta_size;
    while (remaining > 0) {
      const std::size_t chunk =
          static_cast<std::size_t>(std::min<std::uint64_t>(remaining, kPad.size()));
      sink.write(std::string_view(kPad.data(), chunk));
      remaining -= chunk;
    }
    sink.write("\"}\n");
  }

  void write_part(Sink& sink, const PartSpec& spec, int part_id, FillMode fill,
                  util::Xoshiro256& rng) const override {
    HeaderText h;
    h << "{\"part\":{\"id\":" << part_id << ",\"nx\":" << spec.nx
      << ",\"ny\":" << spec.ny << ",\"nvars\":" << spec.nvars
      << "},\"vars\":{";
    sink.write(h.view());
    const std::uint64_t n = spec.values_per_var();
    char value_buf[kJsonValueWidth + 1];
    // In sized mode all values are the same token, so one pre-built chunk is
    // replayed for every part of every call (this is what keeps repeated
    // calibration runs and many-small-parts dumps cheap).
    static const std::string zero_chunk = [] {
      char buf[kJsonValueWidth + 1];
      format_value(buf, 0.0);
      const std::string token = std::string(buf) + ",";
      AMRIO_ENSURES(token.size() == kJsonValueWidth + 1);
      std::string chunk;
      while (chunk.size() < (1u << 16)) chunk += token;
      return chunk;
    }();
    for (int v = 0; v < spec.nvars; ++v) {
      if (v > 0) sink.write(",");
      std::string name = "\"var";  // "var0000" fits the string's own buffer
      util::append_zero_pad(name, static_cast<std::uint64_t>(v), 4);
      name += "\":[";
      sink.write(name);
      if (fill == FillMode::kSized) {
        // n values, each 24 bytes including its trailing comma; the final
        // comma is replaced by the closing bracket below.
        std::uint64_t remaining = n * (kJsonValueWidth + 1);
        while (remaining > 0) {
          const std::size_t chunk = static_cast<std::size_t>(
              std::min<std::uint64_t>(remaining, zero_chunk.size()));
          sink.write(std::string_view(zero_chunk.data(), chunk));
          remaining -= chunk;
        }
      } else {
        std::string buf;
        buf.reserve(1 << 16);
        for (std::uint64_t i = 0; i < n; ++i) {
          format_value(value_buf, rng.uniform());
          buf.append(value_buf, kJsonValueWidth);
          buf.push_back(',');
          if (buf.size() >= (1u << 16)) {
            sink.write(buf);
            buf.clear();
          }
        }
        sink.write(buf);
      }
      // overwrite-style close: emit ']' in place of the final comma is not
      // possible on an append-only sink, so the encoding always ends the
      // value list with a trailing comma token then "null]" sentinel —
      // kept fixed-width by writing "null]" (5 bytes) after the last comma.
      sink.write("null]");
    }
    sink.write("}}");
  }
};

// ---------------------------------------------------------------- h5lite

class H5LiteInterface : public IoInterface {
 public:
  std::string_view file_tag() const override { return "h5"; }
  std::string_view extension() const override { return "h5"; }

  void begin_task_doc(Sink& sink, int rank, int dump) const override {
    char header[32];
    std::memcpy(header, "H5LITE01", 8);
    write_u32(header + 8, static_cast<std::uint32_t>(rank));
    write_u32(header + 12, static_cast<std::uint32_t>(dump));
    sink.write(std::as_bytes(std::span<const char>(header, 16)));
  }

  void part_separator(Sink&) const override {}

  void end_task_doc(Sink& sink, std::uint64_t meta_size) const override {
    static const std::vector<std::byte> kZeros(4096, std::byte{0});
    std::uint64_t remaining = meta_size;
    while (remaining > 0) {
      const std::size_t chunk = static_cast<std::size_t>(
          std::min<std::uint64_t>(remaining, kZeros.size()));
      sink.write(std::span<const std::byte>(kZeros.data(), chunk));
      remaining -= chunk;
    }
  }

  void write_part(Sink& sink, const PartSpec& spec, int part_id, FillMode fill,
                  util::Xoshiro256& rng) const override {
    char header[64];
    std::memcpy(header, "DSET", 4);
    write_u32(header + 4, static_cast<std::uint32_t>(part_id));
    write_u32(header + 8, static_cast<std::uint32_t>(spec.nx));
    write_u32(header + 12, static_cast<std::uint32_t>(spec.ny));
    write_u32(header + 16, static_cast<std::uint32_t>(spec.nvars));
    write_u32(header + 20, 1);  // dtype: 1 = float64
    sink.write(std::as_bytes(std::span<const char>(header, 24)));
    write_values(sink, spec.total_values(), fill, rng);
  }

 private:
  static void write_u32(char* dst, std::uint32_t v) {
    std::memcpy(dst, &v, sizeof(v));
  }

 protected:
  static void write_values(Sink& sink, std::uint64_t n, FillMode fill,
                           util::Xoshiro256& rng) {
    if (fill == FillMode::kSized) {
      static const std::vector<std::byte> kZeros(1 << 16, std::byte{0});
      std::uint64_t remaining = n * 8;
      while (remaining > 0) {
        const std::size_t chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, kZeros.size()));
        sink.write(std::span<const std::byte>(kZeros.data(), chunk));
        remaining -= chunk;
      }
      return;
    }
    std::vector<double> buf;
    buf.reserve(1 << 13);
    for (std::uint64_t i = 0; i < n; ++i) {
      buf.push_back(rng.uniform());
      if (buf.size() == (1u << 13)) {
        sink.write(std::as_bytes(std::span<const double>(buf)));
        buf.clear();
      }
    }
    if (!buf.empty()) sink.write(std::as_bytes(std::span<const double>(buf)));
  }
};

// ------------------------------------------------------------------ raw

class RawInterface final : public H5LiteInterface {
 public:
  std::string_view file_tag() const override { return "raw"; }
  std::string_view extension() const override { return "bin"; }

  void begin_task_doc(Sink&, int, int) const override {}

  void write_part(Sink& sink, const PartSpec& spec, int /*part_id*/,
                  FillMode fill, util::Xoshiro256& rng) const override {
    write_values(sink, spec.total_values(), fill, rng);
  }
};

}  // namespace

std::unique_ptr<IoInterface> make_interface(Interface kind) {
  switch (kind) {
    case Interface::kMiftmpl: return std::make_unique<MiftmplInterface>();
    case Interface::kH5Lite: return std::make_unique<H5LiteInterface>();
    case Interface::kRaw: return std::make_unique<RawInterface>();
  }
  throw std::invalid_argument("make_interface: bad kind");
}

}  // namespace amrio::macsio
