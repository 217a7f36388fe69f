#pragma once
/// \file params.hpp
/// MACSio-compatible proxy configuration: the command-line argument set of the
/// paper's Table II with the same names and semantics, so the model of
/// Listing 1 translates AMReX inputs into an argv for this executable.

#include <cstdint>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "util/cli.hpp"

namespace amrio::macsio {

enum class Interface { kMiftmpl, kH5Lite, kRaw };
enum class FileMode { kMif, kSif };
/// kSized writes constant (zero) values through the same fixed-width encoder
/// — byte-identical output to kReal at a fraction of the formatting cost;
/// kReal fills parts with seeded pseudo-random data.
enum class FillMode { kSized, kReal };

const char* to_string(Interface i);
const char* to_string(FileMode m);
Interface interface_from_string(const std::string& s);

struct Params {
  Interface interface = Interface::kMiftmpl;  ///< --interface (Table II)
  FileMode file_mode = FileMode::kMif;        ///< --parallel_file_mode
  int mif_files = 0;        ///< file count for MIF; 0 = one per task (N-to-N)
  int num_dumps = 10;       ///< --num_dumps
  std::uint64_t part_size = 80000;  ///< --part_size (bytes; suffixes K/M/G ok)
  double avg_num_parts = 1.0;       ///< --avg_num_parts
  int vars_per_part = 1;            ///< --vars_per_part
  double compute_time = 0.0;        ///< --compute_time (sec between dumps)
  std::uint64_t meta_size = 0;      ///< --meta_size (extra bytes per task)
  double dataset_growth = 1.0;      ///< --dataset_growth (per-dump multiplier)

  // staging subsystem (two-phase aggregation + burst-buffer tier)
  /// --aggregators: partition ranks into this many contiguous groups;
  /// non-aggregator ranks ship their task documents to their group's
  /// aggregator, which writes one subfile per group per dump (plus one index
  /// per dump from rank 0). 0 = no aggregation (classic MIF/SIF). Ranks that
  /// do not divide evenly are round-robined over the leading groups,
  /// deterministically. Requires MIF.
  int aggregators = 0;
  /// --agg_link_bw: modeled interconnect bandwidth (bytes/sec) for shipping
  /// task documents to aggregators; the cost lands on the logical clock of
  /// the subfile's I/O request.
  double agg_link_bandwidth = 12.5e9;
  /// --staging bb: tag every emitted pfs::IoRequest for the burst-buffer
  /// tier so SimFs replays absorb at BB bandwidth and drain asynchronously.
  bool stage_to_bb = false;

  // codec subsystem (in-situ compression stage)
  /// --codec: compression model applied to every task document before it
  /// leaves the writer — "identity" (off), "lossless", or "ebl"
  /// (error-bounded lossy). Encoded bytes travel the aggregation link and
  /// land on the tier (pfs::IoRequest sizes shrink, encode cpu lands on the
  /// request timeline before submit); raw bytes stay conserved in the
  /// accounting (task_bytes, bytes_per_dump) and in backend file contents.
  std::string codec = "identity";
  /// --codec_error_bound: relative error bound in (0, 1) for --codec ebl.
  double codec_error_bound = 1.0e-3;
  /// --codec_var_bounds: comma-separated per-variable error bounds for
  /// --codec ebl ("1e-3,1e-5" = density loose, pressure tight). Non-empty
  /// supersedes --codec_error_bound; empty = uniform bound.
  std::string codec_var_bounds;
  /// --codec_throughput: modeled encode throughput (bytes/sec); 0 = the
  /// codec's default.
  double codec_throughput = 0.0;
  /// --codec_decode_throughput: modeled decode throughput (bytes/sec) for
  /// the restart read path; 0 = the codec's default (decoders typically
  /// outrun their encoders).
  double codec_decode_throughput = 0.0;

  // restart subsystem (read-side staging: the dump pipeline in reverse)
  /// --restart: after the dump loop, read the last dump back — every rank
  /// recovers its task document byte-identically (aggregators fan subfile
  /// bytes back out to their group; under a codec the fetched bytes are
  /// encoded and each rank pays the modeled decode cpu before "resuming").
  bool restart = false;
  /// --read_staging bb: serve restart reads through the burst-buffer tier —
  /// extents are prefetched OST→node (`pfs::kOpPrefetch`) and then read
  /// node-locally; `none` (default) = cold direct PFS reads.
  bool restart_from_bb = false;
  /// --prefetch: per-node OST→node prefetch stream bound used when timing
  /// `--read_staging bb` restarts (0 = the tier's drain_concurrency).
  int prefetch_streams = 0;

  /// The codec::CodecSpec equivalent of the codec knobs above.
  codec::CodecSpec codec_spec() const;

  // run context (what jsrun provided in the paper's Listing 1)
  int nprocs = 1;
  std::string output_dir = "macsio_out";
  FillMode fill = FillMode::kSized;
  std::uint64_t seed = 7;

  /// Declare the MACSio argv table (Table II plus the staging, codec,
  /// restart and run-context knobs above, e.g. `--parallel_file_mode MIF 8
  /// --part_size 1.5M --codec ebl`) on `cli`, so the proxy executable can add
  /// its own flags to the same table and print it as --help.
  static void declare_cli(util::ArgParser& cli);
  /// Read a parsed declare_cli() table. Throws std::invalid_argument on a
  /// malformed value or a stray positional token; validate() failures
  /// surface as ContractViolation.
  static Params from_parsed(const util::ArgParser& cli);
  /// declare_cli + parse + from_parsed over a MACSio-style argv (without
  /// the program name).
  static Params from_cli(const std::vector<std::string>& args);

  /// Serialize back into the Listing-1 argv form (round-trips from_cli).
  std::vector<std::string> to_cli() const;
  /// One-line rendering of to_cli() for reports.
  std::string to_command_line() const;

  void validate() const;

  /// Nominal raw bytes of one part at dump k: part_size × growth^k.
  std::uint64_t part_bytes_at_dump(int dump) const;
  /// Parts owned by `rank`: total round(avg_num_parts × nprocs) parts,
  /// distributed as evenly as possible (first tasks get the extras).
  int parts_of_rank(int rank) const;
};

}  // namespace amrio::macsio
