#pragma once
/// \file restage.hpp
/// Read-side staging: the write-side pipeline in reverse. A checkpoint
/// restart must put every rank's task document back in memory before the
/// solver resumes; this module plans that read-back with the same two-ledger
/// discipline the write path uses — **raw bytes** are what the solver gets
/// back (byte-identical to what was written), **encoded bytes** are what
/// actually crosses the PFS/tier under a codec stage, and the modeled decode
/// cpu lands on the reading rank's timeline.
///
/// A `RestagePlan` is built from the write-side truth (per-rank dump file +
/// raw document size — both pure functions of the proxy parameters, so the
/// plan needs no data to be read) and yields:
///
///  * per-rank `RestageSlice`s: file, offset, raw/encoded size, decode cpu —
///    the per-(step, task) read granularity, mirroring the write-side
///    `task_bytes` accounting;
///  * per-file `RestageExtent`s: the units the PFS serves, with the client
///    that fetches each (the group's aggregator under two-phase aggregation,
///    the slice's own rank otherwise);
///  * tier-tagged `pfs::IoRequest`s for the two restart shapes: **cold**
///    (direct OST reads through the contention timeline) and **prefetched**
///    (`kOpPrefetch` OST→node staging followed by node-local BB-tier reads —
///    the drain in reverse).
///
/// The byte half of the reverse path (aggregators fanning subfile bytes back
/// out to their group over `exec::scatterv_group`, members decoding) lives in
/// the MACSio driver's restart loop; this module owns the plan and the
/// timing-request shapes.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "pfs/simfs.hpp"
#include "staging/aggregator.hpp"

namespace amrio::staging {

/// One rank's slice of the restart image.
struct RestageSlice {
  int rank = 0;
  std::string file;             ///< dump file / subfile holding the bytes
  std::size_t extent = 0;       ///< index of `file`'s RestageExtent
  std::uint64_t offset = 0;     ///< byte offset of the rank's document
  std::uint64_t raw_bytes = 0;  ///< decoded document size
  std::uint64_t encoded_bytes = 0;  ///< modeled PFS/wire size (codec plan)
  double decode_seconds = 0.0;  ///< modeled decode cpu the rank pays
};

/// One distinct file of the restart image — the unit the PFS serves.
struct RestageExtent {
  std::string file;
  /// Client that fetches the extent: the group's aggregator when the plan
  /// was built over an AggTopology, else the first (and only fetching) rank.
  int reader = 0;
  std::uint64_t raw_bytes = 0;      ///< sum of the slices' raw sizes
  std::uint64_t encoded_bytes = 0;  ///< sum of the slices' encoded sizes
  int nslices = 0;
};

class RestagePlan {
 public:
  std::vector<RestageSlice> slices;    ///< rank order, one per rank
  std::vector<RestageExtent> extents;  ///< order of first appearance

  bool aggregated() const { return aggregated_; }
  std::uint64_t raw_bytes() const;
  std::uint64_t encoded_bytes() const;
  /// Slowest per-rank decode — every rank decodes concurrently, so this is
  /// the decode cost that gates solver resume.
  double decode_gate() const;

  /// Restart read requests submitted at `clock`.
  ///  * `prefetch == false` (cold PFS): direct `kOpRead`/`kTierPfs` fetches —
  ///    per extent under aggregation (the aggregator pulls the whole subfile
  ///    and fans it out), per slice otherwise (every rank reads its own byte
  ///    range; concurrent reads of a shared file contend on its stripe set).
  ///  * `prefetch == true`: each fetch becomes a `kOpPrefetch` (OST→node at
  ///    drain bandwidth, bounded streams) plus a BB-tier `kOpRead` of the
  ///    same (client, file) — SimFs gates the read on the prefetch landing.
  /// Request sizes are encoded bytes; decode cpu is NOT folded in (it is
  /// paid after the fetch — read it off `decode_gate()` / the slices). The
  /// batch's path table holds one entry per extent, in extent order.
  pfs::IoBatch read_requests(double clock, bool prefetch) const;

 private:
  friend RestagePlan make_restage_plan(const std::vector<std::string>&,
                                       const std::vector<std::uint64_t>&,
                                       const codec::Codec&,
                                       const AggTopology*);
  bool aggregated_ = false;
};

/// Build the plan. `files[r]` / `raw_bytes[r]` are rank r's dump file and raw
/// document size; ranks sharing a file must be contiguous (both the MIF
/// grouping and `AggTopology` satisfy this — enforced). Offsets accumulate
/// per file in rank order, matching the write-side concatenation exactly.
/// With `topo` non-null the plan is aggregated: each extent's reader is its
/// group's aggregator (the file's first rank must be that aggregator).
RestagePlan make_restage_plan(const std::vector<std::string>& files,
                              const std::vector<std::uint64_t>& raw_bytes,
                              const codec::Codec& codec,
                              const AggTopology* topo = nullptr);

}  // namespace amrio::staging
