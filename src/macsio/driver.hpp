#pragma once
/// \file driver.hpp
/// The MACSio dump loop: `num_dumps` marshal/write cycles producing the
/// paper's Fig. 3 output pattern
///
///   data/macsio_json_{taskID:05d}_{stepID:03d}.json     (MIF, per task)
///   metadata/macsio_json_root_{stepID:03d}.json         (root, per step)
///
/// with `--dataset_growth` scaling part sizes between dumps and
/// `--compute_time` spacing the dump bursts on the logical clock (the
/// requests list can be replayed through pfs::SimFs for "dynamic" studies).
///
/// With `--aggregators N` the dump loop switches to two-phase aggregation:
///
///   data/macsio_json_agg_{groupID:05d}_{stepID:03d}.json  (one per group)
///   metadata/macsio_json_index_{stepID:03d}.txt           (task locations)
///
/// — ranks serialize their task documents in memory and ship them to their
/// group's aggregator (`exec::gatherv_group`), so only aggregators open
/// files; the subfile holds the group's documents in rank order,
/// byte-conserving against `task_doc_bytes()`.
///
/// There is ONE driver body, written SPMD-style against `exec::RankCtx`
/// (MIF baton-passing between group members, one end-of-dump gather to
/// rank 0 — the only global collective of a dump).
/// How the ranks execute is the engine's choice: `exec::SerialEngine` and
/// `exec::EventEngine` run them cooperatively on one thread, and
/// `exec::SpmdEngine` runs them as real OS threads — byte-identical by
/// construction.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "codec/stats.hpp"
#include "exec/engine.hpp"
#include "macsio/params.hpp"
#include "macsio/part.hpp"
#include "obs/probe.hpp"
#include "pfs/backend.hpp"
#include "pfs/simfs.hpp"
#include "staging/restage.hpp"

namespace amrio::macsio {

struct DumpStats {
  /// Total bytes per dump (task files + root metadata).
  std::vector<std::uint64_t> bytes_per_dump;
  /// Per-dump, per-rank task-document bytes.
  std::vector<std::vector<std::uint64_t>> task_bytes;
  std::uint64_t total_bytes = 0;
  std::uint64_t nfiles = 0;
  /// One I/O request per (rank, dump) data write (per subfile when
  /// aggregated), plus the index and root metadata writes, timed on the
  /// logical compute clock; feed to pfs::SimFs for burst/bandwidth studies.
  /// Each file the dumps write is one entry of the batch's path table, in
  /// write order, and its requests carry that entry's index. With a
  /// non-identity --codec the data requests carry *encoded* sizes and their
  /// submit times include the modeled encode cpu (compression happens on the
  /// writer before anything is shipped or submitted); everything above
  /// (task_bytes, bytes_per_dump, total_bytes) stays raw.
  pfs::IoBatch requests;
  /// Codec accounting: raw vs encoded bytes and modeled encode cpu, per dump
  /// (one chunk per task document; metadata is never compressed). Identity
  /// codec: encoded == raw, zero cpu.
  codec::CodecStats codec;
};

/// Run the dump loop on `engine` (engine.nranks() must equal params.nprocs)
/// and return the full statistics. Everything is keyed by dump index and
/// rank: MACSio has no AMR-level concept — the granularity gap the paper
/// discusses in §III-B.
///
/// `probe` (optional) turns on observability: per-rank "encode" spans
/// [submit, submit + modeled cpu], per-group "ship" spans for the two-phase
/// gatherv [submit + encode gate, subfile ready] with encode→ship
/// happens-before edges, and a per-dump "dump" phase span on the driver
/// track (rank −1) covering the submission window. Spans are emitted by
/// rank 0 from the gathered byte counts (codec plans are pure in the raw
/// size), so the stream is byte-identical across serial/spmd/event engines.
/// Metrics: macsio.dumps / macsio.dump_bytes counters plus the
/// exec.gatherv.* ship counters from the collectives themselves.
DumpStats run_macsio(exec::Engine& engine, const Params& params,
                     pfs::StorageBackend& backend, obs::Probe probe = {});

/// Forwarding overload for callers that still pass `nullptr` in the slot of
/// the I/O event log this driver no longer keeps (perfbench). The next
/// benchmark change moves those callers to the overload above and deletes
/// this one.
inline DumpStats run_macsio(exec::Engine& engine, const Params& params,
                            pfs::StorageBackend& backend, std::nullptr_t,
                            obs::Probe probe = {}) {
  return run_macsio(engine, params, backend, probe);
}

/// Checkpoint-restart read-back statistics — the write-side DumpStats in
/// reverse. Byte-conserving by construction: `task_bytes` equals the written
/// dump's per-rank document sizes, and in a content-storing backend every
/// recovered document is byte-identical to what was written (`task_hash`).
struct RestartStats {
  int dump = -1;  ///< the dump that was read back (the last one written)
  /// Per-rank decoded (raw) document bytes recovered.
  std::vector<std::uint64_t> task_bytes;
  /// Per-rank `restart_hash` of the recovered document — engines must agree,
  /// and in store mode it equals the hash of the originally written bytes.
  std::vector<std::uint64_t> task_hash;
  std::uint64_t raw_bytes = 0;      ///< decoded restart image (task data)
  std::uint64_t encoded_bytes = 0;  ///< fetched off the PFS/tier (task data)
  /// Slowest per-rank decode cpu — gates solver resume (0 under identity).
  double decode_gate = 0.0;
  /// Aggregated restarts: slowest group's cost of fanning subfile bytes back
  /// out over the interconnect (the gatherv ship in reverse).
  double scatter_seconds = 0.0;
  /// Per-rank read plan (file, offset, raw/encoded sizes, decode cpu).
  std::vector<staging::RestageSlice> slices;
  /// Restart read requests on the logical clock (submit 0): data fetches per
  /// `staging::RestagePlan::read_requests` (cold PFS reads, or prefetch +
  /// BB-read pairs under `--read_staging bb`), plus root/index metadata
  /// reads. The path table holds one entry per extent, then the root and
  /// (aggregated) the index. Feed to pfs::SimFs to time the restart.
  pfs::IoBatch requests;
  /// Decode-side codec ledger (encode_seconds stays 0 — the split that keeps
  /// write-side reports honest).
  codec::CodecStats codec;
};

/// Read the last written dump back through the staging/codec pipeline in
/// reverse: aggregators fetch their subfile and fan the members' documents
/// back out over `exec::scatterv_group` (encoded bytes cross the link, each
/// member decodes its own document); unaggregated ranks read their own byte
/// range of their dump file. Requires the dump files of
/// `params.num_dumps - 1` to exist in `backend` (run the dump loop first).
/// Works against accounting-only backends too: sizes and requests stay
/// exact, contents degrade to zero bytes.
///
/// `probe` (optional) mirrors the dump-side instrumentation in reverse:
/// per-group "scatter" spans [0, group fan-out cost], per-rank "decode"
/// spans [arrival, arrival + decode cpu] with scatter→decode edges, and a
/// "restart" phase span on the driver track (rank −1). Emitted by rank 0,
/// engine-invariant. Metrics: macsio.restarts, restart.raw_bytes /
/// restart.encoded_bytes, plus exec.scatterv.* from the collective.
RestartStats run_restart(exec::Engine& engine, const Params& params,
                         pfs::StorageBackend& backend, obs::Probe probe = {});

/// Deterministic content hash used for `RestartStats::task_hash` — exposed
/// so tests can hash expected documents with the same function. The value is
/// byte-wise FNV-1a-64 for every input. Since FNV-1a over a zero byte is
/// `h *= P`, an all-zero 32-byte block advances the hash by one multiply
/// with `P^32`; accounting-only backends recover documents of zero bytes,
/// so their restarts hash at memory speed.
std::uint64_t restart_hash(std::span<const std::byte> data);

/// Path of a task's dump file (group file under MIF, shared file under SIF,
/// the rank's group subfile under two-phase aggregation).
std::string dump_file_path(const Params& params, int rank, int dump);
/// Path of the per-dump root metadata file.
std::string root_file_path(const Params& params, int dump);
/// Subfile written by `group`'s aggregator at `dump` (params.aggregators > 0).
std::string aggregated_file_path(const Params& params, int group, int dump);
/// Per-dump aggregation index (rank 0): one fixed-width line per task with
/// its (group, task, offset, bytes) location inside the subfiles.
std::string aggregated_index_path(const Params& params, int dump);
/// Exact size of the aggregation index — fixed-width fields make it
/// computable without writing anything (the byte-conservation checks rely on
/// aggregated total == sum of task documents + this).
std::uint64_t aggregated_index_bytes(const Params& params);
/// The per-dump root metadata document (also used by the model layer to
/// predict dump sizes exactly). `dump_bytes` is the task-data total of the
/// dump, which the document reports.
std::string root_meta_text(const Params& params, int dump, const PartSpec& spec,
                           std::uint64_t dump_bytes);

}  // namespace amrio::macsio
