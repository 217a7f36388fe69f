#include "macsio/params.hpp"

#include <cmath>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

namespace amrio::macsio {

const char* to_string(Interface i) {
  switch (i) {
    case Interface::kMiftmpl: return "miftmpl";
    case Interface::kH5Lite: return "h5lite";
    case Interface::kRaw: return "raw";
  }
  return "?";
}

const char* to_string(FileMode m) {
  return m == FileMode::kMif ? "MIF" : "SIF";
}

Interface interface_from_string(const std::string& s) {
  const std::string v = util::to_lower(s);
  if (v == "miftmpl" || v == "json") return Interface::kMiftmpl;
  // hdf5 maps onto h5lite, our self-describing binary stand-in for HDF5
  // (see macsio/interfaces.hpp)
  if (v == "h5lite" || v == "hdf5") return Interface::kH5Lite;
  if (v == "raw" || v == "binary") return Interface::kRaw;
  throw std::invalid_argument("macsio: unknown interface '" + s + "'");
}

codec::CodecSpec Params::codec_spec() const {
  codec::CodecSpec spec;
  spec.name = codec;
  spec.error_bound = codec_error_bound;
  spec.var_error_bounds = codec::parse_var_bounds(codec_var_bounds);
  spec.throughput = codec_throughput;
  spec.decode_throughput = codec_decode_throughput;
  return spec;
}

namespace {

/// One home for every staging/codec/restart knob range check, so the CLI
/// rejects a bad --aggregators count, an unknown --codec name, an
/// out-of-range --codec_error_bound, or a negative --prefetch with the same
/// one-line std::invalid_argument shape.
void check_staging_codec_knobs(const Params& p, bool aggregators_given) {
  if (aggregators_given && p.aggregators <= 0)
    throw std::invalid_argument(
        "macsio: --aggregators must be a positive aggregator count (got " +
        std::to_string(p.aggregators) +
        "); omit the flag to disable aggregation");
  try {
    codec::validate_spec(p.codec_spec());
  } catch (const std::invalid_argument& e) {
    // keep the codec layer's message, stamped with the owning knob set
    throw std::invalid_argument("macsio: --codec knobs: " +
                                std::string(e.what()));
  }
  if (p.prefetch_streams < 0)
    throw std::invalid_argument(
        "macsio: --prefetch must be >= 0 prefetch streams per node (got " +
        std::to_string(p.prefetch_streams) + "; 0 = drain concurrency)");
  if (p.prefetch_streams > 0 && !p.restart_from_bb)
    throw std::invalid_argument(
        "macsio: --prefetch only applies to '--read_staging bb' restarts");
  if (p.restart_from_bb && !p.restart)
    throw std::invalid_argument(
        "macsio: '--read_staging bb' does nothing without --restart");
}

}  // namespace

void Params::declare_cli(util::ArgParser& cli) {
  cli.add_option("interface", "output plugin: miftmpl|hdf5|h5lite|raw", 1,
                 std::string("miftmpl"));
  cli.add_option("parallel_file_mode", "MIF <nfiles> or SIF 1", 2);
  cli.add_option("num_dumps", "number of dumps to marshal", 1, std::string("10"));
  cli.add_option("part_size", "nominal per-part request size (bytes)", 1,
                 std::string("80000"));
  cli.add_option("avg_num_parts", "average mesh parts per task", 1,
                 std::string("1"));
  cli.add_option("vars_per_part", "mesh variables on each part", 1,
                 std::string("1"));
  cli.add_option("compute_time", "seconds of compute between dumps", 1,
                 std::string("0"));
  cli.add_option("meta_size", "additional metadata bytes per task", 1,
                 std::string("0"));
  cli.add_option("dataset_growth", "per-dump size multiplier", 1,
                 std::string("1"));
  cli.add_option("aggregators", "two-phase aggregation group count", 1);
  cli.add_option("agg_link_bw", "rank-to-aggregator link bandwidth (bytes/s)",
                 1, std::string("1.25e10"));
  cli.add_option("staging", "dump staging tier: none|bb", 1,
                 std::string("none"));
  cli.add_option("codec", "in-situ compression model: identity|lossless|ebl",
                 1, std::string("identity"));
  cli.add_option("codec_error_bound", "relative error bound for --codec ebl",
                 1, std::string("1e-3"));
  cli.add_option("codec_var_bounds",
                 "comma-separated per-variable error bounds for --codec ebl",
                 1, std::string(""));
  cli.add_option("codec_throughput",
                 "modeled encode throughput (bytes/s); 0 = codec default", 1,
                 std::string("0"));
  cli.add_option("codec_decode_throughput",
                 "modeled decode throughput (bytes/s); 0 = codec default", 1,
                 std::string("0"));
  cli.add_flag("restart", "read the last dump back after the dump loop");
  cli.add_option("read_staging", "restart read tier: none|bb", 1,
                 std::string("none"));
  cli.add_option("prefetch",
                 "per-node prefetch streams for bb restarts; 0 = drain "
                 "concurrency",
                 1, std::string("0"));
  cli.add_option("nprocs", "virtual MPI tasks", 1, std::string("1"));
  cli.add_option("output_dir", "output directory", 1, std::string("macsio_out"));
  cli.add_option("fill", "value fill mode: sized|real", 1, std::string("sized"));
  cli.add_option("seed", "rng seed for real fill", 1, std::string("7"));
}

Params Params::from_parsed(const util::ArgParser& cli) {
  if (!cli.positional().empty())
    throw std::invalid_argument("macsio: unexpected argument '" +
                                cli.positional().front() + "'");
  const auto bytes = [&cli](const std::string& flag) {
    try {
      return util::parse_bytes(cli.get(flag));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("--" + flag + ": " + e.what());
    }
  };
  Params p;
  p.interface = interface_from_string(cli.get("interface"));
  if (cli.has("parallel_file_mode")) {  // no default: present only when given
    const auto mode = cli.get_all("parallel_file_mode");
    const std::string kind = util::to_lower(mode.at(0));
    if (kind == "mif") {
      p.file_mode = FileMode::kMif;
      p.mif_files = util::parse_int<int>("parallel_file_mode", mode.at(1));
    } else if (kind == "sif") {
      p.file_mode = FileMode::kSif;
    } else {
      throw std::invalid_argument("macsio: bad parallel_file_mode '" +
                                  mode[0] + "'");
    }
  }
  p.num_dumps = cli.get_int<int>("num_dumps");
  p.part_size = bytes("part_size");
  p.avg_num_parts = cli.get_double("avg_num_parts");
  p.vars_per_part = cli.get_int<int>("vars_per_part");
  p.compute_time = cli.get_double("compute_time");
  p.meta_size = bytes("meta_size");
  p.dataset_growth = cli.get_double("dataset_growth");
  p.aggregators = cli.get_int_or<int>("aggregators", 0);
  p.agg_link_bandwidth = cli.get_double("agg_link_bw");
  const std::string staging = util::to_lower(cli.get("staging"));
  if (staging == "bb") p.stage_to_bb = true;
  else if (staging != "none")
    throw std::invalid_argument("macsio: bad staging tier '" + staging +
                                "' (expected none|bb)");
  p.codec = util::to_lower(cli.get("codec"));
  p.codec_error_bound = cli.get_double("codec_error_bound");
  p.codec_var_bounds = cli.get("codec_var_bounds");
  p.codec_throughput = cli.get_double("codec_throughput");
  p.codec_decode_throughput = cli.get_double("codec_decode_throughput");
  p.restart = cli.flag("restart");
  const std::string read_staging = util::to_lower(cli.get("read_staging"));
  if (read_staging == "bb") p.restart_from_bb = true;
  else if (read_staging != "none")
    throw std::invalid_argument("macsio: bad restart read tier '" +
                                read_staging + "' (expected none|bb)");
  p.prefetch_streams = cli.get_int<int>("prefetch");
  check_staging_codec_knobs(p, cli.has("aggregators"));
  p.nprocs = cli.get_int<int>("nprocs");
  p.output_dir = cli.get("output_dir");
  const std::string fill = util::to_lower(cli.get("fill"));
  if (fill == "sized") p.fill = FillMode::kSized;
  else if (fill == "real") p.fill = FillMode::kReal;
  else throw std::invalid_argument("macsio: bad fill mode '" + fill + "'");
  p.seed = cli.get_int<std::uint64_t>("seed");
  p.validate();
  return p;
}

Params Params::from_cli(const std::vector<std::string>& args) {
  util::ArgParser cli("macsio", "MACSio-compatible proxy I/O application");
  declare_cli(cli);
  cli.parse(args);
  return from_parsed(cli);
}

std::vector<std::string> Params::to_cli() const {
  std::vector<std::string> argv;
  auto push = [&argv](const std::string& k, const std::string& v) {
    argv.push_back("--" + k);
    argv.push_back(v);
  };
  push("interface", to_string(interface));
  argv.push_back("--parallel_file_mode");
  argv.push_back(to_string(file_mode));
  // Under aggregation the subfile count comes from --aggregators; emit the
  // grouping-disabled form so the argv round-trips through validate().
  argv.push_back(file_mode != FileMode::kMif ? std::string("1")
                 : aggregators > 0
                     ? std::string("0")
                     : std::to_string(mif_files == 0 ? nprocs : mif_files));
  push("num_dumps", std::to_string(num_dumps));
  push("part_size", std::to_string(part_size));
  push("avg_num_parts", util::format_g(avg_num_parts, 17));
  push("vars_per_part", std::to_string(vars_per_part));
  push("compute_time", util::format_g(compute_time, 17));
  push("meta_size", std::to_string(meta_size));
  push("dataset_growth", util::format_g(dataset_growth, 17));
  if (aggregators > 0) {
    push("aggregators", std::to_string(aggregators));
    push("agg_link_bw", util::format_g(agg_link_bandwidth, 17));
  }
  if (stage_to_bb) push("staging", "bb");
  if (codec != "identity") {
    push("codec", codec);
    push("codec_error_bound", util::format_g(codec_error_bound, 17));
    if (!codec_var_bounds.empty())
      push("codec_var_bounds",
           codec::format_var_bounds(codec::parse_var_bounds(codec_var_bounds)));
    push("codec_throughput", util::format_g(codec_throughput, 17));
    push("codec_decode_throughput",
         util::format_g(codec_decode_throughput, 17));
  }
  if (restart) argv.push_back("--restart");
  if (restart_from_bb) push("read_staging", "bb");
  if (prefetch_streams > 0)
    push("prefetch", std::to_string(prefetch_streams));
  push("nprocs", std::to_string(nprocs));
  push("output_dir", output_dir);
  push("fill", fill == FillMode::kSized ? "sized" : "real");
  push("seed", std::to_string(seed));
  return argv;
}

std::string Params::to_command_line() const {
  return "macsio " + util::join(to_cli(), " ");
}

void Params::validate() const {
  AMRIO_EXPECTS_MSG(num_dumps >= 1, "macsio: num_dumps must be >= 1");
  // the 3-digit dump field is baked into the output file names, and the
  // 7-digit group/task fields into the fixed-width aggregation index
  // (zero_pad in the file paths pads to a *minimum* width, so rank counts
  // beyond 5 digits simply print wider there and names stay unique)
  AMRIO_EXPECTS_MSG(num_dumps <= 999, "macsio: num_dumps must be <= 999");
  AMRIO_EXPECTS_MSG(nprocs <= 9999999, "macsio: nprocs must be <= 9999999");
  AMRIO_EXPECTS_MSG(part_size >= 8, "macsio: part_size must be >= 8 bytes");
  AMRIO_EXPECTS_MSG(avg_num_parts > 0, "macsio: avg_num_parts must be > 0");
  AMRIO_EXPECTS_MSG(vars_per_part >= 1, "macsio: vars_per_part must be >= 1");
  AMRIO_EXPECTS_MSG(compute_time >= 0, "macsio: compute_time must be >= 0");
  AMRIO_EXPECTS_MSG(dataset_growth > 0, "macsio: dataset_growth must be > 0");
  AMRIO_EXPECTS_MSG(dataset_growth < 2.0,
                    "macsio: dataset_growth >= 2 would overflow quickly");
  AMRIO_EXPECTS_MSG(nprocs >= 1, "macsio: nprocs must be >= 1");
  AMRIO_EXPECTS_MSG(mif_files >= 0, "macsio: MIF file count must be >= 0");
  AMRIO_EXPECTS_MSG(mif_files <= nprocs,
                    "macsio: MIF file count cannot exceed nprocs");
  AMRIO_EXPECTS_MSG(aggregators >= 0, "macsio: aggregators must be >= 0");
  AMRIO_EXPECTS_MSG(aggregators <= nprocs,
                    "macsio: aggregators cannot exceed nprocs");
  AMRIO_EXPECTS_MSG(aggregators == 0 || file_mode == FileMode::kMif,
                    "macsio: two-phase aggregation requires MIF file mode");
  AMRIO_EXPECTS_MSG(aggregators == 0 || mif_files == 0,
                    "macsio: aggregation supersedes MIF file grouping — use "
                    "--aggregators or MIF <n>, not both");
  AMRIO_EXPECTS_MSG(agg_link_bandwidth > 0,
                    "macsio: agg_link_bw must be > 0");
  AMRIO_EXPECTS_MSG(prefetch_streams >= 0, "macsio: prefetch must be >= 0");
  AMRIO_EXPECTS_MSG(prefetch_streams == 0 || restart_from_bb,
                    "macsio: prefetch only applies to bb restart reads");
  // mirror the CLI rejection so a validate()-clean Params always survives
  // the to_cli()/from_cli() round trip
  AMRIO_EXPECTS_MSG(!restart_from_bb || restart,
                    "macsio: read_staging bb does nothing without restart");
  // single source of truth for the codec knob ranges: the codec registry
  try {
    codec::validate_spec(codec_spec());
  } catch (const std::invalid_argument& e) {
    AMRIO_EXPECTS_MSG(false, "macsio: " << e.what());
  }
}

std::uint64_t Params::part_bytes_at_dump(int dump) const {
  AMRIO_EXPECTS(dump >= 0);
  const double grown =
      static_cast<double>(part_size) * std::pow(dataset_growth, dump);
  return static_cast<std::uint64_t>(std::llround(grown));
}

int Params::parts_of_rank(int rank) const {
  AMRIO_EXPECTS(rank >= 0 && rank < nprocs);
  const std::int64_t total =
      std::llround(avg_num_parts * static_cast<double>(nprocs));
  const std::int64_t base = total / nprocs;
  const std::int64_t extras = total % nprocs;
  return static_cast<int>(base + (rank < extras ? 1 : 0));
}

}  // namespace amrio::macsio
