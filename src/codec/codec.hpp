#pragma once
/// \file codec.hpp
/// In-situ compression modeling — the codec stage real pre-exascale AMR
/// stacks interpose before data leaves the node (AMRIC-style error-bounded
/// lossy compression of AMR data, ADIOS2-style operator pipelines). A `Codec`
/// answers two questions for every byte chunk the writers produce: how many
/// bytes travel/land after encoding, and how much compute the encode costs on
/// the writer's timeline. Three registered models:
///
///  * `identity` — out = raw, zero cpu: byte paths are exactly the staging
///    subsystem's PR-2 behaviour (the default everywhere).
///  * `lossless` — deflate-class compression of the fixed-width numeric text
///    our writers emit. The ratio is drawn *deterministically* from a
///    per-part-size model anchored on the paper's Eq. (3) part-size range
///    (80 kB default … 1.55 MB Listing-1 parts): larger documents expose more
///    redundancy to the entropy coder, so the ratio rises log-linearly
///    between the anchors, with a small size-hashed jitter standing in for
///    content variation. Same raw size → same encoded size, always.
///  * `ebl` — error-bounded lossy, AMRIC/SZ-style: a predictor+quantizer
///    whose residual width scales with field roughness. The modeled bits per
///    value are log2(roughness / error_bound) plus a fixed entropy-coder
///    overhead, so the ratio is a function of the error bound at a fixed
///    smooth-hydro-field roughness.
///
/// Codecs are immutable and stateless after construction: one instance can
/// serve concurrent SPMD ranks.
///
/// Physical encoding (`encode`/`payload`) wraps the raw payload in a small
/// self-describing container carrying the modeled result, so shipped/staged
/// data round-trips byte-exactly while every accounting point uses the
/// modeled `CompressResult::out_bytes` — a simulator compresses sizes and
/// clocks, not information.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace amrio::codec {

/// Outcome of encoding one chunk: the modeled wire/tier size and the modeled
/// compute cost that lands on the writer's timeline before submit.
struct CompressResult {
  std::uint64_t raw_bytes = 0;
  std::uint64_t out_bytes = 0;
  double cpu_seconds = 0.0;
  double ratio() const {
    return out_bytes > 0
               ? static_cast<double>(raw_bytes) / static_cast<double>(out_bytes)
               : 1.0;
  }
};

class Codec {
 public:
  virtual ~Codec() = default;
  virtual const std::string& name() const = 0;

  /// Deterministic size/cost model from the raw size alone — the prediction
  /// path (rank 0 re-deriving encoded sizes from gathered raw counts,
  /// accounting-mode staging) relies on this being a pure function of
  /// `raw_bytes`.
  virtual CompressResult plan(std::uint64_t raw_bytes) const = 0;

  /// Modeled decode cpu cost of restoring `raw_bytes` of original data —
  /// what a restart reader pays after fetching encoded bytes off the
  /// PFS/tier, before the solver resumes. A pure function of `raw_bytes`
  /// (like `plan`), distinct from the encode cost: decompressors run at a
  /// different (usually higher) throughput than compressors. Identity: 0.
  virtual double decode_seconds(std::uint64_t raw_bytes) const {
    (void)raw_bytes;
    return 0.0;
  }

  /// Encode a chunk for the wire/tier. The returned blob reads back
  /// byte-exactly via `payload`/`decode`; its accounted size is
  /// `result.out_bytes` (the model), not `blob.size()`. Identity returns the
  /// raw bytes unchanged; modeling codecs wrap them in a 32-byte container
  /// carrying the CompressResult.
  virtual std::vector<std::byte> encode(std::span<const std::byte> raw,
                                        CompressResult* result = nullptr) const;
  /// Bytes a container puts before its payload: 32 for the modeling codecs,
  /// 0 for identity, whose blob is the raw payload itself.
  virtual std::size_t header_bytes() const;
  /// Seal a container built in place — the no-copy form of `encode` for
  /// writers that serialize straight into the wire buffer: `blob` is
  /// `header_bytes()` bytes of scratch followed by the raw payload, and the
  /// header carrying `result` (whose raw_bytes must equal the payload size)
  /// is written over the scratch. Identity writes nothing.
  virtual void seal(std::span<std::byte> blob,
                    const CompressResult& result) const;
  /// The raw payload of an encoded blob, read in place: a view of `blob`
  /// past the 32-byte container header (identity: `blob` itself). The view
  /// aliases `blob` and is valid only while the blob's storage lives. Makes
  /// the same container checks `decode` does and throws the same
  /// std::runtime_error on a blob this codec did not produce.
  virtual std::span<const std::byte> payload(
      std::span<const std::byte> blob) const;
  /// Inverse of `encode` — byte-exact: an owning copy of `payload(blob)`.
  std::vector<std::byte> decode(std::span<const std::byte> blob) const {
    const std::span<const std::byte> raw = payload(blob);
    return std::vector<std::byte>(raw.begin(), raw.end());
  }
};

/// Selection + tuning of a codec stage, built from the MACSio knobs
/// (`macsio::Params::codec_spec`).
struct CodecSpec {
  std::string name = "identity";
  /// ebl: relative error bound in (0, 1).
  double error_bound = 1.0e-3;
  /// ebl: optional per-variable error bounds (AMRIC-style: density may
  /// tolerate a looser bound than pressure). When non-empty, each task
  /// document is modeled as equal per-variable raw shares, each encoded
  /// under its own bound; `error_bound` is ignored. Empty = uniform bound.
  std::vector<double> var_error_bounds;
  /// Modeled encode throughput (bytes/sec); 0 = the codec's default.
  double throughput = 0.0;
  /// Modeled decode throughput (bytes/sec) for the restart read path; 0 =
  /// the codec's default (decoders typically outrun their encoders).
  double decode_throughput = 0.0;

  bool enabled() const { return name != "identity"; }
};

/// Registered codec names, in registry order: {"identity", "lossless", "ebl"}.
const std::vector<std::string>& codec_names();

/// Parse a comma-separated per-variable bound list ("1e-3,1e-5") into the
/// CodecSpec::var_error_bounds form. Empty input → empty vector. Throws
/// std::invalid_argument on malformed numbers or bounds outside (0, 1).
std::vector<double> parse_var_bounds(const std::string& csv);

/// Canonical string form of a bound list — the inverse of parse_var_bounds
/// (%.17g, comma-separated), used by CLI round-trips and cache keys.
std::string format_var_bounds(const std::vector<double>& bounds);

/// Build a codec from its spec. Throws std::invalid_argument with a one-line
/// message on an unknown name or an out-of-range error bound / throughput.
std::unique_ptr<Codec> make_codec(const CodecSpec& spec);

/// Validate spec fields without constructing (the CLI front-ends call this so
/// every layer rejects bad knobs identically). Throws std::invalid_argument.
void validate_spec(const CodecSpec& spec);

}  // namespace amrio::codec
