#pragma once
/// \file interfaces.hpp
/// MACSio output plugins. `miftmpl` emits the json documents of the paper's
/// Fig. 3 (fixed-width 23-char reals so file sizes are value-independent and
/// exactly computable); `h5lite` is a from-scratch self-describing binary
/// container standing in for HDF5; `raw` is headers + naked doubles.
///
/// Every plugin serializes through the Sink abstraction, so the same code
/// path feeds a real backend file or a pure byte counter; `part_bytes()` is
/// guaranteed equal to what `write_part()` produces (tested).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "macsio/params.hpp"
#include "macsio/part.hpp"
#include "pfs/backend.hpp"
#include "util/rng.hpp"

namespace amrio::macsio {

/// Byte sink: either a backend file or a counter.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void write(std::string_view text) = 0;
  virtual void write(std::span<const std::byte> data) = 0;
  virtual std::uint64_t bytes() const = 0;
};

class FileSink final : public Sink {
 public:
  explicit FileSink(pfs::OutFile& out) : out_(&out) {}
  void write(std::string_view text) override { out_->write(text); }
  void write(std::span<const std::byte> data) override { out_->write(data); }
  std::uint64_t bytes() const override { return out_->bytes_written(); }

 private:
  pfs::OutFile* out_;
};

class CountingSink final : public Sink {
 public:
  void write(std::string_view text) override { bytes_ += text.size(); }
  void write(std::span<const std::byte> data) override { bytes_ += data.size(); }
  std::uint64_t bytes() const override { return bytes_; }

 private:
  std::uint64_t bytes_ = 0;
};

/// Appends into a caller-owned byte buffer — the staging layer serializes a
/// rank's task document through this before shipping it to its aggregator.
class VectorSink final : public Sink {
 public:
  explicit VectorSink(std::vector<std::byte>& buf) : buf_(&buf) {}
  void write(std::string_view text) override {
    write(std::as_bytes(std::span<const char>(text.data(), text.size())));
  }
  void write(std::span<const std::byte> data) override {
    buf_->insert(buf_->end(), data.begin(), data.end());
    written_ += data.size();
  }
  std::uint64_t bytes() const override { return written_; }

 private:
  std::vector<std::byte>* buf_;
  std::uint64_t written_ = 0;
};

class IoInterface {
 public:
  virtual ~IoInterface() = default;
  /// Short name used in output file names ("json", "h5", "raw"), matching the
  /// paper's `macsio_json_{task}_{step}.json` pattern for the json interface.
  virtual std::string_view file_tag() const = 0;
  virtual std::string_view extension() const = 0;

  /// Serialize one part. Values are deterministic pseudo-data (kReal) or
  /// zeros (kSized) — byte counts are identical either way.
  virtual void write_part(Sink& sink, const PartSpec& spec, int part_id,
                          FillMode fill, util::Xoshiro256& rng) const = 0;

  /// Open a task document (rank's section within its dump file).
  virtual void begin_task_doc(Sink& sink, int rank, int dump) const = 0;
  /// Close the task document, appending `meta_size` padding bytes.
  virtual void end_task_doc(Sink& sink, std::uint64_t meta_size) const = 0;
  /// Separator between consecutive parts within one task document.
  virtual void part_separator(Sink& sink) const = 0;

  /// Exact bytes of a full task document containing `nparts` parts.
  std::uint64_t task_doc_bytes(const PartSpec& spec, int rank, int dump,
                               int nparts, std::uint64_t meta_size) const;
};

std::unique_ptr<IoInterface> make_interface(Interface kind);

/// Width of the fixed-width real encoding used by the json plugin.
inline constexpr int kJsonValueWidth = 23;

}  // namespace amrio::macsio
