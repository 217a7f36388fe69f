#pragma once
/// \file stats.hpp
/// Codec accounting: raw vs encoded bytes and modeled cpu time, totalled and
/// broken down per dump (MACSio step) and per AMR level (plotfile) — the
/// codec-stage analogue of the (step, level, task) slicing the iostats layer
/// applies to raw output.
///
/// Plain value types, not thread-safe: accumulate on rank 0 (drivers).

#include <cstdint>
#include <map>

#include "codec/codec.hpp"

namespace amrio::codec {

struct CodecTotals {
  std::uint64_t raw_bytes = 0;
  std::uint64_t encoded_bytes = 0;
  std::uint64_t chunks = 0;  ///< compression units (task docs, Cell_D chunks)
  /// Modeled cpu split by direction, so write-side (encode) reports are not
  /// polluted when a restart read path adds decode cost into the same
  /// accumulator and vice versa.
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;

  /// Encode-side accumulation (the write path).
  void add(const CompressResult& r);
  /// Decode-side accumulation (the restart read path): `r` describes the
  /// chunk being restored (raw/encoded sizes), `decode_s` the modeled decode
  /// cpu — `r.cpu_seconds` (the encode cost) is deliberately NOT added.
  void add_decode(const CompressResult& r, double decode_s);
  double ratio() const;
  std::uint64_t saved_bytes() const {
    return raw_bytes >= encoded_bytes ? raw_bytes - encoded_bytes : 0;
  }
};

struct CodecStats {
  CodecTotals total;
  /// Keyed by dump (MACSio) or step (plotfile) index.
  std::map<int, CodecTotals> by_dump;
  /// Keyed by AMR level; -1 = unattributed (MACSio has no level concept).
  std::map<int, CodecTotals> by_level;

  void add(int dump, int level, const CompressResult& r);
  /// Decode-side variant: see CodecTotals::add_decode.
  void add_decode(int dump, int level, const CompressResult& r,
                  double decode_s);
};

}  // namespace amrio::codec
