#include "macsio/driver.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>

#include "codec/codec.hpp"
#include "macsio/interfaces.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "staging/aggregator.hpp"
#include "util/assert.hpp"
#include "util/format.hpp"
#include "util/json.hpp"

namespace amrio::macsio {

namespace {

/// MIF file group of a rank: mif_files files shared contiguously.
int file_group(const Params& p, int rank) {
  const int nfiles = (p.mif_files == 0) ? p.nprocs : p.mif_files;
  return static_cast<int>((static_cast<std::int64_t>(rank) * nfiles) / p.nprocs);
}

/// "<output_dir>/<dir>/macsio_<tag>_<kind>[<group:5>_]<dump:3>.<ext>", built
/// in one string reserved up front; a negative `group` leaves its field out.
std::string dump_path(const Params& p, const IoInterface& iface,
                      std::string_view dir, std::string_view kind, int group,
                      int dump, std::string_view ext) {
  const std::string_view tag = iface.file_tag();
  std::string out;
  // + the separators and two numeric fields of at most 20 digits each
  out.reserve(p.output_dir.size() + dir.size() + tag.size() + kind.size() +
              ext.size() + 64);
  out += p.output_dir;
  out += '/';
  out += dir;
  out += "/macsio_";
  out += tag;
  out += '_';
  out += kind;
  if (group >= 0) {
    util::append_zero_pad(out, static_cast<std::uint64_t>(group), 5);
    out += '_';
  }
  util::append_zero_pad(out, static_cast<std::uint64_t>(dump), 3);
  out += '.';
  out += ext;
  return out;
}

/// dump_file_path against an already-constructed interface — the dump body
/// calls this once per rank per dump (and rank 0 once per file); allocating
/// a fresh interface each time (as the public overload must) would dominate
/// calibration replays.
std::string dump_file_path_for(const Params& p, const IoInterface& iface,
                               int rank, int dump) {
  if (p.file_mode == FileMode::kSif)
    return dump_path(p, iface, "data", "shared_", -1, dump, iface.extension());
  return dump_path(p, iface, "data", "", file_group(p, rank), dump,
                   iface.extension());
}

std::string aggregated_file_path_for(const Params& p, const IoInterface& iface,
                                     int group, int dump) {
  return dump_path(p, iface, "data", "agg_", group, dump, iface.extension());
}

std::string aggregated_index_path_for(const Params& p, const IoInterface& iface,
                                      int dump) {
  return dump_path(p, iface, "metadata", "index_", -1, dump, "txt");
}

// Fixed-width index layout: 55-byte header + one 58-byte line per task
// ("ggggggg ttttttt <offset:20> <bytes:20>\n") — exactly computable, see
// aggregated_index_bytes(). Group/task fields are 7 digits so the index
// stays fixed-width at machine-scale rank counts (nprocs <= 9,999,999).
std::string agg_index_text(const Params& p, const staging::AggTopology& topo,
                           int dump,
                           const std::vector<std::uint64_t>& task_bytes) {
  std::string out;
  out.reserve(aggregated_index_bytes(p));
  out += "macsio-agg-index dump ";
  util::append_zero_pad(out, static_cast<std::uint64_t>(dump), 3);
  out += " groups ";
  util::append_zero_pad(out, static_cast<std::uint64_t>(topo.ngroups()), 7);
  out += " ranks ";
  util::append_zero_pad(out, static_cast<std::uint64_t>(p.nprocs), 7);
  out += '\n';
  for (int g = 0; g < topo.ngroups(); ++g) {
    std::uint64_t offset = 0;
    for (int r : topo.members_of(g)) {
      const std::uint64_t b = task_bytes[static_cast<std::size_t>(r)];
      util::append_zero_pad(out, static_cast<std::uint64_t>(g), 7);
      out += ' ';
      util::append_zero_pad(out, static_cast<std::uint64_t>(r), 7);
      out += ' ';
      util::append_zero_pad(out, offset, 20);
      out += ' ';
      util::append_zero_pad(out, b, 20);
      out += '\n';
      offset += b;
    }
  }
  return out;
}

}  // namespace

std::string root_meta_text(const Params& p, int dump, const PartSpec& spec,
                           std::uint64_t dump_bytes) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("tool").value("macsio-amrio");
  w.key("interface").value(to_string(p.interface));
  w.key("parallel_file_mode").value(to_string(p.file_mode));
  w.key("dump").value(static_cast<std::int64_t>(dump));
  w.key("num_dumps").value(static_cast<std::int64_t>(p.num_dumps));
  w.key("nprocs").value(static_cast<std::int64_t>(p.nprocs));
  w.key("part_nx").value(static_cast<std::int64_t>(spec.nx));
  w.key("part_ny").value(static_cast<std::int64_t>(spec.ny));
  w.key("vars_per_part").value(static_cast<std::int64_t>(spec.nvars));
  w.key("part_size_request").value(p.part_bytes_at_dump(dump));
  w.key("dataset_growth").value(p.dataset_growth);
  w.key("dump_bytes").value(dump_bytes);
  w.end_object();
  os << '\n';
  return os.str();
}

std::string dump_file_path(const Params& p, int rank, int dump) {
  if (p.aggregators > 0) {
    const auto topo = staging::AggTopology::make(p.nprocs, p.aggregators);
    return aggregated_file_path(p, topo.group_of(rank), dump);
  }
  return dump_file_path_for(p, *make_interface(p.interface), rank, dump);
}

std::string root_file_path(const Params& p, int dump) {
  return dump_path(p, *make_interface(p.interface), "metadata", "root_", -1,
                   dump, "json");
}

std::string aggregated_file_path(const Params& p, int group, int dump) {
  return aggregated_file_path_for(p, *make_interface(p.interface), group, dump);
}

std::string aggregated_index_path(const Params& p, int dump) {
  return aggregated_index_path_for(p, *make_interface(p.interface), dump);
}

std::uint64_t aggregated_index_bytes(const Params& p) {
  // header "macsio-agg-index dump DDD groups GGGGGGG ranks RRRRRRR\n" = 55
  // bytes; per-task line "GGGGGGG TTTTTTT <offset:20> <bytes:20>\n" = 58.
  return 55 + 58 * static_cast<std::uint64_t>(p.nprocs);
}

namespace {

/// What the rank bodies derive from the parameters, for the dump and the
/// restart alike. run_macsio builds one per run and every dump body shares
/// it read-only (interfaces and codecs are const and stateless, so SPMD
/// threads may share them too); each restart body builds its own (see
/// run_restart_rank). The out-of-line steps below hold their own paths,
/// files and sinks, so a body's frame — what an engine parks across a
/// gather — stays a few words.
struct RankSetup {
  explicit RankSetup(const Params& p)
      : params(p),
        iface(make_interface(p.interface)),
        agg_cfg{p.aggregators, p.agg_link_bandwidth, 1.0e-6},
        write_tier(p.stage_to_bb ? pfs::kTierBurstBuffer : pfs::kTierPfs),
        // The in-situ codec stage: every rank encodes its task document
        // before it leaves the node.
        cdc(codec::make_codec(p.codec_spec())),
        encoded(p.codec_spec().enabled()),
        topo(p.aggregators > 0 ? std::optional(staging::AggTopology::make(
                                     p.nprocs, p.aggregators))
                               : std::nullopt) {}

  const Params& params;
  const std::unique_ptr<IoInterface> iface;
  const staging::AggregationConfig agg_cfg;
  const int write_tier;  ///< tier the dump writes to
  const std::unique_ptr<codec::Codec> cdc;
  const bool encoded;
  const std::optional<staging::AggTopology> topo;  ///< set iff aggregated
};

constexpr int kBatonTag = 41;
constexpr int kShipTag = 73;

/// The file a rank's task document lands in, as an index: its MIF file
/// group, or 0 for the one shared SIF file. Ranks of one file are
/// contiguous, so comparing neighbours' indices replaces comparing paths.
int file_index(const Params& p, int rank) {
  return p.file_mode == FileMode::kSif ? 0 : file_group(p, rank);
}

void serialize_task_doc(const RankSetup& run, Sink& sink, int rank, int dump,
                        const PartSpec& spec) {
  const Params& params = run.params;
  util::Xoshiro256 rng(params.seed ^ (static_cast<std::uint64_t>(dump) << 20) ^
                       static_cast<std::uint64_t>(rank));
  run.iface->begin_task_doc(sink, rank, dump);
  const int nparts = params.parts_of_rank(rank);
  for (int part = 0; part < nparts; ++part) {
    if (part > 0) run.iface->part_separator(sink);
    run.iface->write_part(sink, spec, part, params.fill, rng);
  }
  run.iface->end_task_doc(sink, params.meta_size);
}

/// Two-phase aggregation: serialize into memory, encode through the codec
/// stage, ship to the group's aggregator, and let only the aggregator touch
/// the file system — the encoded documents cross the link, the aggregator
/// writes their payloads in place, and the subfile holds the group's task
/// documents concatenated in rank order, byte-identical to what the members
/// would have written themselves. Each document is handled once: it is
/// serialized straight into an exact-size wire container (codec header +
/// `task_doc_bytes`), moved through the mailbox, and landed in the subfile
/// as it arrives. Returns the rank's raw document bytes. Out of line, so its
/// frame is not in write_task_doc's when a MIF rank waits for the baton.
[[gnu::noinline]] std::uint64_t ship_task_doc(exec::RankCtx& ctx,
                                              const RankSetup& run,
                                              pfs::StorageBackend& backend,
                                              obs::Probe probe, int dump,
                                              const PartSpec& spec) {
  const Params& params = run.params;
  const int rank = ctx.rank();
  const staging::AggTopology& topo = *run.topo;
  const int group = topo.group_of(rank);
  const int agg = topo.aggregator_of_group(group);
  const std::uint64_t raw_bytes = run.iface->task_doc_bytes(
      spec, rank, dump, params.parts_of_rank(rank), params.meta_size);
  const std::size_t header = run.cdc->header_bytes();
  std::vector<std::byte> blob;
  blob.reserve(header + raw_bytes);
  blob.resize(header);
  VectorSink vsink(blob);
  serialize_task_doc(run, vsink, rank, dump, spec);
  AMRIO_ENSURES_MSG(vsink.bytes() == raw_bytes,
                    "ship_task_doc: rank " << rank << " serialized "
                                           << vsink.bytes()
                                           << " bytes, task_doc_bytes says "
                                           << raw_bytes);
  run.cdc->seal(blob, run.cdc->plan(raw_bytes));

  const auto members = topo.members_of(group);
  if (rank != agg) {
    exec::gatherv_group(ctx, std::move(blob), members, agg, kShipTag, {},
                        probe);
    return raw_bytes;
  }
  pfs::OutFile out(backend,
                  aggregated_file_path_for(params, *run.iface, group, dump));
  exec::gatherv_group(
      ctx, std::move(blob), members, agg, kShipTag,
      [&](int, std::span<const std::byte> shipped) {
        out.write(run.cdc->payload(shipped));  // in place; identity: as is
      },
      probe);
  out.close();  // surface flush errors (destructor closes quietly)
  return raw_bytes;
}

/// One rank's share of a dump: its task document, written behind the file's
/// baton or shipped to its aggregator. Returns the raw document bytes the
/// end-of-dump gather reports. Out of line, so nothing it holds is in the
/// dump loop's frame when the rank waits at the gather.
[[gnu::noinline]] std::uint64_t write_task_doc(exec::RankCtx& ctx,
                                               const RankSetup& run,
                                               pfs::StorageBackend& backend,
                                               obs::Probe probe, int dump) {
  const Params& params = run.params;
  const PartSpec spec =
      make_part_spec(params.part_bytes_at_dump(dump), params.vars_per_part);
  if (run.topo)
    return ship_task_doc(ctx, run, backend, probe, dump, spec);

  const int rank = ctx.rank();
  const std::string path = dump_file_path_for(params, *run.iface, rank, dump);
  // MIF baton: within a file group, members write strictly in rank order.
  // SIF is one global group. The leader truncates; followers append after
  // receiving the baton from their predecessor.
  const int file = file_index(params, rank);
  const bool leader = rank == 0 || file_index(params, rank - 1) != file;
  const bool same_file_successor =
      rank + 1 < params.nprocs && file_index(params, rank + 1) == file;

  if (!leader) (void)ctx.recv_token(rank - 1, kBatonTag);
  std::uint64_t written = 0;
  {
    pfs::OutFile out(backend, path,
                     leader ? pfs::OpenMode::kTruncate
                            : pfs::OpenMode::kAppend);
    FileSink sink(out);
    serialize_task_doc(run, sink, rank, dump, spec);
    written = out.bytes_written();
    out.close();  // surface flush errors (destructor closes quietly)
  }
  if (same_file_successor) ctx.send_token(written, rank + 1, kBatonTag);
  return written;
}

/// Rank 0's end-of-dump bookkeeping, all derived from the gathered per-rank
/// byte counts: statistics, SimFs requests, the root (and aggregation index)
/// metadata files, spans and ledger entries. It runs after the gather while
/// the other ranks are already in the next dump — nothing they do reads what
/// it writes. Out of line, like write_task_doc.
[[gnu::noinline]] void record_dump(
    const RankSetup& run, DumpStats& stats, pfs::StorageBackend& backend,
    obs::Probe probe, int dump, const std::vector<std::uint64_t>& all_bytes) {
  const Params& params = run.params;
  const IoInterface& iface = *run.iface;
  const bool aggregated = run.topo.has_value();
  const int tier = run.write_tier;
  const auto& agg_cfg = run.agg_cfg;
  const PartSpec spec =
      make_part_spec(params.part_bytes_at_dump(dump), params.vars_per_part);
  const double submit_time = dump * params.compute_time;

  const std::size_t req_begin = stats.requests.size();
  std::uint64_t dump_bytes = 0;
  // Per-task codec results, re-derived deterministically from the raw
  // byte counts (plan is a pure function of size) — one chunk per doc.
  std::vector<codec::CompressResult> encs(
      static_cast<std::size_t>(params.nprocs));
  // Ranks of one file are contiguous: each data path enters the batch's
  // path table once and that file's requests carry its index.
  pfs::IoBatch& batch = stats.requests;
  std::uint32_t path = 0;
  int path_file = -1;
  auto& task_bytes = stats.task_bytes[static_cast<std::size_t>(dump)];
  for (int r = 0; r < params.nprocs; ++r) {
    const std::uint64_t b = all_bytes[static_cast<std::size_t>(r)];
    task_bytes[static_cast<std::size_t>(r)] = b;
    dump_bytes += b;
    encs[static_cast<std::size_t>(r)] = run.cdc->plan(b);
    stats.codec.add(dump, -1, encs[static_cast<std::size_t>(r)]);
    if (!aggregated) {
      if (const int file = file_index(params, r); file != path_file) {
        path = batch.add_file(dump_file_path_for(params, iface, r, dump));
        path_file = file;
        ++stats.nfiles;
      }
      // Encoded bytes hit the filesystem; the encode cpu delays submit.
      const auto& enc = encs[static_cast<std::size_t>(r)];
      batch.requests.push_back(pfs::IoRequest{
          r, path, submit_time + enc.cpu_seconds, enc.out_bytes, tier});
    }
  }
  // Each group's ship window, shared by its request, its ship span and its
  // ledger entries: it opens once every member has encoded its document
  // (concurrently — the slowest encode gates the group) and lasts while
  // the other members' encoded bytes cross the interconnect.
  struct GroupShip {
    int agg;
    std::uint64_t shipped;  // encoded bytes sent to the aggregator
    double start;           // submit_time + encode gate
    double cost;
    double ready;           // start + cost: the subfile request's submit
  };
  std::vector<GroupShip> ships;
  if (aggregated) {
    // One request per subfile, submitted when its ship window closes.
    const staging::AggTopology& topo = *run.topo;
    ships.reserve(static_cast<std::size_t>(topo.ngroups()));
    for (int g = 0; g < topo.ngroups(); ++g) {
      const int agg = topo.aggregator_of_group(g);
      std::uint64_t subfile_encoded = 0;
      std::uint64_t shipped = 0;
      int nmessages = 0;
      double encode_gate = 0.0;
      for (int r : topo.members_of(g)) {
        const auto& enc = encs[static_cast<std::size_t>(r)];
        subfile_encoded += enc.out_bytes;
        encode_gate = std::max(encode_gate, enc.cpu_seconds);
        if (r != agg) {
          shipped += enc.out_bytes;
          ++nmessages;
        }
      }
      const double start = submit_time + encode_gate;
      const double cost = staging::ship_cost(agg_cfg, shipped, nmessages);
      ships.push_back(GroupShip{agg, shipped, start, cost, start + cost});
      batch.requests.push_back(pfs::IoRequest{
          agg, batch.add_file(aggregated_file_path_for(params, iface, g, dump)),
          ships.back().ready, subfile_encoded, tier});
    }
    stats.nfiles += static_cast<std::uint64_t>(topo.ngroups());
  }
  // The root document reports the dump's task-data total, aggregated or
  // not — the index (written below) is bookkeeping on top of it.
  const std::uint32_t root_path = batch.add_file(root_file_path(params, dump));
  const std::string root = root_meta_text(params, dump, spec, dump_bytes);
  {
    pfs::OutFile root_out(backend, batch.files[root_path]);
    root_out.write(root);
    root_out.close();
  }
  if (aggregated) {
    // Rank 0 writes the per-dump index locating every task document.
    const std::uint32_t index_path =
        batch.add_file(aggregated_index_path_for(params, iface, dump));
    const std::string index =
        agg_index_text(params, *run.topo, dump, all_bytes);
    AMRIO_ENSURES(index.size() == aggregated_index_bytes(params));
    {
      pfs::OutFile index_out(backend, batch.files[index_path]);
      index_out.write(index);
      index_out.close();
    }
    dump_bytes += index.size();
    batch.requests.push_back(
        pfs::IoRequest{0, index_path, submit_time, index.size(), tier});
    ++stats.nfiles;
  }
  dump_bytes += root.size();
  batch.requests.push_back(
      pfs::IoRequest{0, root_path, submit_time, root.size(), tier});
  ++stats.nfiles;
  stats.bytes_per_dump.push_back(dump_bytes);
  stats.total_bytes += dump_bytes;

  if (probe.metrics) {
    probe.metrics->add("macsio.dumps", 1);
    probe.metrics->add("macsio.dump_bytes",
                       static_cast<std::int64_t>(dump_bytes));
  }
  if (probe.tracer) {
    // Span emission happens here, on rank 0, from the same pure plan()
    // results the requests were built from — per-rank program order is
    // engine-invariant, so the merged stream is byte-identical across
    // serial/spmd/event engines.
    const std::string label = "dump " + std::to_string(dump);
    double phase_end = submit_time;
    for (std::size_t i = req_begin; i < batch.size(); ++i)
      phase_end = std::max(phase_end, batch[i].submit_time);
    obs::Span ph;
    ph.stage = "dump";
    ph.detail = label;
    ph.start = submit_time;
    ph.end = phase_end;
    const std::uint64_t phase = probe.tracer->record(std::move(ph));
    std::vector<std::uint64_t> encode_span(
        static_cast<std::size_t>(params.nprocs), 0);
    for (int r = 0; r < params.nprocs; ++r) {
      const double cpu = encs[static_cast<std::size_t>(r)].cpu_seconds;
      if (cpu <= 0.0) continue;
      obs::Span es;
      es.parent = phase;
      es.rank = r;
      es.stage = "encode";
      es.detail = label;
      es.start = submit_time;
      es.end = submit_time + cpu;
      es.service = cpu;
      es.res = "codec_cpu";
      encode_span[static_cast<std::size_t>(r)] =
          probe.tracer->record(std::move(es));
    }
    for (std::size_t g = 0; g < ships.size(); ++g) {
      const GroupShip& ship = ships[g];
      if (ship.ready <= ship.start) continue;
      obs::Span ss;
      ss.parent = phase;
      ss.rank = ship.agg;
      ss.stage = "ship";
      ss.detail = label;
      ss.start = ship.start;
      ss.end = ship.ready;
      ss.resource = "agg_link";
      // The bandwidth part only: the per-message latency term does not
      // shrink when the link gets faster, so the what-if engine must not
      // scale it.
      ss.service = static_cast<double>(ship.shipped) / agg_cfg.link_bandwidth;
      ss.res = "agg_link";
      const std::uint64_t id = probe.tracer->record(std::move(ss));
      for (int r : run.topo->members_of(static_cast<int>(g))) {
        const std::uint64_t from = encode_span[static_cast<std::size_t>(r)];
        if (from != 0) probe.tracer->edge(from, id);
      }
    }
  }
  if (probe.ledger) {
    // Pool view of the same plan() results: the codec CPU pool (one lane
    // per rank) holds lanes for their encode seconds, the agg link pool
    // (one link per group) for the ship window.
    obs::ResourceLedger& lg = *probe.ledger;
    lg.declare("codec_cpu", params.nprocs);
    double cpu_total = 0.0;
    for (int r = 0; r < params.nprocs; ++r)
      cpu_total += encs[static_cast<std::size_t>(r)].cpu_seconds;
    lg.add_busy("codec_cpu", cpu_total);
    if (aggregated) {
      lg.declare("agg_link", run.topo->ngroups());
      for (const GroupShip& ship : ships) {
        lg.add_busy("agg_link", ship.cost);
        lg.extend_makespan(ship.ready);
      }
    }
  }
}

/// The single SPMD dump-loop body shared by every execution mode. Rank 0
/// passes `stats` (validated parameters, `task_bytes` already sized by
/// run_macsio) and accumulates the full statistics into it; every other
/// rank passes null.
///
/// The gather is MACSio's end-of-dump collective and a dump's only global
/// one. Every engine's gather already synchronizes all ranks, and the
/// engines' wall clock never reaches the model (SimFs replays the requests),
/// so no barrier surrounds it: on EventEngine a MIF/SIF rank suspends once
/// per dump.
void run_macsio_rank(exec::RankCtx& ctx, const RankSetup& run,
                     pfs::StorageBackend& backend, obs::Probe probe,
                     DumpStats* stats) {
  for (int dump = 0; dump < run.params.num_dumps; ++dump) {
    const std::uint64_t written =
        write_task_doc(ctx, run, backend, probe, dump);
    const auto all_bytes = ctx.gather(written, 0);
    if (stats != nullptr)
      record_dump(run, *stats, backend, probe, dump, all_bytes);
  }
}

/// The restage plan of a restart from the last written dump. It is a pure
/// function of the parameters (task_doc_bytes is exact, codec plans are pure
/// in the raw size), so restart read sizes are predicted byte-exactly the
/// same way write sizes are, with nothing read yet. run_restart builds it
/// once per restart and every rank body shares it read-only.
staging::RestagePlan make_restart_plan(const Params& params) {
  const auto iface = make_interface(params.interface);
  const int dump = params.num_dumps - 1;
  std::optional<staging::AggTopology> topo;
  if (params.aggregators > 0)
    topo = staging::AggTopology::make(params.nprocs, params.aggregators);
  const PartSpec spec =
      make_part_spec(params.part_bytes_at_dump(dump), params.vars_per_part);
  std::vector<std::string> files(static_cast<std::size_t>(params.nprocs));
  std::vector<std::uint64_t> doc_bytes(
      static_cast<std::size_t>(params.nprocs));
  for (int r = 0; r < params.nprocs; ++r) {
    files[static_cast<std::size_t>(r)] =
        topo ? aggregated_file_path_for(params, *iface, topo->group_of(r), dump)
             : dump_file_path_for(params, *iface, r, dump);
    doc_bytes[static_cast<std::size_t>(r)] = iface->task_doc_bytes(
        spec, r, dump, params.parts_of_rank(r), params.meta_size);
  }
  return staging::make_restage_plan(files, doc_bytes,
                                    *codec::make_codec(params.codec_spec()),
                                    topo ? &*topo : nullptr);
}

/// What a rank recovered: its document's size and `restart_hash`.
struct RecoveredDoc {
  std::uint64_t bytes = 0;
  std::uint64_t hash = 0;
};

/// Recover this rank's task document of the last written dump along the
/// shared `plan` and hash the recovered bytes. Out of line, like
/// write_task_doc: the subfile, payloads, wire blobs and the document itself
/// die here, so only its size and hash wait at the restart gathers.
[[gnu::noinline]] RecoveredDoc read_task_doc(
    exec::RankCtx& ctx, const RankSetup& run, const staging::RestagePlan& plan,
    pfs::StorageBackend& backend, obs::Probe probe) {
  const int rank = ctx.rank();
  constexpr int kRestageTag = 74;

  const auto& topo = run.topo;
  const bool aggregated = topo.has_value();
  const auto& cdc = run.cdc;
  const bool encoded = run.encoded;
  const staging::RestageSlice& mine =
      plan.slices[static_cast<std::size_t>(rank)];
  const staging::RestageExtent& my_extent = plan.extents[mine.extent];

  const bool contents = backend.stores_contents();
  auto validate_extent = [&](const staging::RestageExtent& e) {
    AMRIO_EXPECTS_MSG(
        backend.exists(e.file),
        "run_restart: dump file missing (run the dump loop first): "
            << e.file);
    AMRIO_ENSURES_MSG(backend.size(e.file) == e.raw_bytes,
                      "run_restart: " << e.file
                                      << " drifted from the planned size");
  };
  auto fetch_extent = [&](const staging::RestageExtent& e) {
    validate_extent(e);
    // Accounting-only backends degrade to exact sizes of zero bytes.
    if (!contents) return std::vector<std::byte>(e.raw_bytes);
    return backend.read(e.file);
  };

  std::vector<std::byte> recovered;  // the wire blob, or the document read
  std::span<const std::byte> doc;     // the document inside `recovered`
  if (aggregated) {
    // Two-phase in reverse: the aggregator fetches the whole subfile, slices
    // it at the planned offsets, re-encodes each member's document for the
    // wire, and fans them back out over scatterv_group; every member reads
    // its own document in place — encoded bytes cross the link, raw bytes
    // come back.
    const int group = topo->group_of(rank);
    const int agg = topo->aggregator_of_group(group);
    const auto members = topo->members_of(group);
    std::vector<std::vector<std::byte>> payloads;
    if (rank == agg) {
      const std::vector<std::byte> subfile = fetch_extent(my_extent);
      payloads.reserve(members.size());
      for (int r : members) {
        const auto& s = plan.slices[static_cast<std::size_t>(r)];
        const std::span<const std::byte> piece(subfile.data() + s.offset,
                                               s.raw_bytes);
        payloads.push_back(encoded ? cdc->encode(piece)
                                   : std::vector<std::byte>(piece.begin(),
                                                            piece.end()));
      }
    }
    recovered = exec::scatterv_group(ctx, std::move(payloads), members, agg,
                                     kRestageTag, probe);
    doc = cdc->payload(recovered);  // identity: the blob itself
  } else {
    // Every rank reads its own byte range of its dump file (concurrent
    // readers of a shared MIF-group/SIF file need no baton — nothing is
    // mutated, and the ranged read keeps a 128-rank SIF restart from
    // materializing the whole shared image once per rank).
    validate_extent(my_extent);
    recovered = contents
                    ? backend.read_range(mine.file, mine.offset, mine.raw_bytes)
                    : std::vector<std::byte>(mine.raw_bytes);
    doc = recovered;
  }
  AMRIO_ENSURES_MSG(doc.size() == mine.raw_bytes,
                    "run_restart: recovered document size mismatch on rank "
                        << rank);

  return {doc.size(), restart_hash(doc)};
}

/// Rank 0's restart bookkeeping from the gathered per-rank sizes and hashes:
/// the conservation check, statistics, read requests, metadata reads, spans
/// and ledger entries. Out of line, like record_dump.
[[gnu::noinline]] void record_restart(const RankSetup& run,
                                      const staging::RestagePlan& plan,
                                      RestartStats& stats,
                                      pfs::StorageBackend& backend,
                                      obs::Probe probe,
                                      std::vector<std::uint64_t> all_bytes,
                                      std::vector<std::uint64_t> all_hash) {
  const Params& params = run.params;
  const int dump = params.num_dumps - 1;
  const auto& topo = run.topo;
  const bool aggregated = topo.has_value();
  const auto& agg_cfg = run.agg_cfg;
  const auto& cdc = run.cdc;

  stats.dump = dump;
  for (int r = 0; r < params.nprocs; ++r) {
    const staging::RestageSlice& slice =
        plan.slices[static_cast<std::size_t>(r)];
    AMRIO_ENSURES_MSG(
        all_bytes[static_cast<std::size_t>(r)] == slice.raw_bytes,
        "run_restart: read-back not byte-conserving on rank " << r);
    stats.codec.add_decode(dump, -1, cdc->plan(slice.raw_bytes),
                           slice.decode_seconds);
  }
  stats.task_bytes = std::move(all_bytes);
  stats.task_hash = std::move(all_hash);
  stats.slices = plan.slices;
  stats.raw_bytes = plan.raw_bytes();
  stats.encoded_bytes = plan.encoded_bytes();
  stats.decode_gate = plan.decode_gate();
  // Each group's fan-out (aggregated): the encoded bytes its aggregator
  // scatters to the other members, and what that costs on the link.
  struct GroupScatter {
    std::uint64_t shipped;
    double cost;
  };
  std::vector<GroupScatter> scatters;
  if (aggregated) {
    // Concurrent groups: the slowest scatter gates the restart.
    scatters.reserve(static_cast<std::size_t>(topo->ngroups()));
    for (int g = 0; g < topo->ngroups(); ++g) {
      const int agg = topo->aggregator_of_group(g);
      std::uint64_t shipped = 0;
      int nmessages = 0;
      for (int r : topo->members_of(g)) {
        if (r == agg) continue;
        shipped += plan.slices[static_cast<std::size_t>(r)].encoded_bytes;
        ++nmessages;
      }
      const double cost = staging::ship_cost(agg_cfg, shipped, nmessages);
      scatters.push_back(GroupScatter{shipped, cost});
      stats.scatter_seconds = std::max(stats.scatter_seconds, cost);
    }
  }
  // Rank r's data arrival (see the spans below).
  auto arrival = [&](int r) {
    return aggregated
               ? scatters[static_cast<std::size_t>(topo->group_of(r))].cost
               : 0.0;
  };
  stats.requests = plan.read_requests(0.0, params.restart_from_bb);
  // Metadata read-back: the root document, and under aggregation the index
  // locating every task document — always cold PFS reads (metadata never
  // stages).
  auto read_meta = [&](std::string path) {
    const std::uint64_t bytes = backend.size(path);
    stats.requests.requests.push_back(
        pfs::IoRequest{0, stats.requests.add_file(std::move(path)), 0.0, bytes,
                       pfs::kTierPfs, pfs::kOpRead});
  };
  read_meta(root_file_path(params, dump));
  if (aggregated)
    read_meta(aggregated_index_path_for(params, *run.iface, dump));

  if (probe.metrics) {
    probe.metrics->add("macsio.restarts", 1);
    probe.metrics->add("restart.raw_bytes",
                       static_cast<std::int64_t>(stats.raw_bytes));
    probe.metrics->add("restart.encoded_bytes",
                       static_cast<std::int64_t>(stats.encoded_bytes));
  }
  if (probe.tracer) {
    // Dump-side instrumentation in reverse, emitted by rank 0 from the
    // pure restage plan — engine-invariant like the dump spans. Data
    // arrival is the group's scatter cost (aggregated) or the restart
    // epoch (direct reads are timed by the SimFs replay instead).
    const std::string label = "restart " + std::to_string(dump);
    double phase_end = 0.0;
    for (int r = 0; r < params.nprocs; ++r)
      phase_end = std::max(
          arrival(r) + plan.slices[static_cast<std::size_t>(r)].decode_seconds,
          phase_end);
    obs::Span ph;
    ph.stage = "restart";
    ph.detail = label;
    ph.end = phase_end;
    const std::uint64_t phase = probe.tracer->record(std::move(ph));
    std::vector<std::uint64_t> scatter_span;
    if (aggregated) {
      scatter_span.assign(static_cast<std::size_t>(topo->ngroups()), 0);
      for (int g = 0; g < topo->ngroups(); ++g) {
        const GroupScatter& scatter = scatters[static_cast<std::size_t>(g)];
        if (scatter.cost <= 0.0) continue;
        obs::Span sc;
        sc.parent = phase;
        sc.rank = topo->aggregator_of_group(g);
        sc.stage = "scatter";
        sc.detail = label;
        sc.start = 0.0;
        sc.end = scatter.cost;
        sc.resource = "agg_link";
        // Bandwidth part only — the per-message latency term is invariant
        // under link relief (see the ship span).
        sc.service =
            static_cast<double>(scatter.shipped) / agg_cfg.link_bandwidth;
        sc.res = "agg_link";
        scatter_span[static_cast<std::size_t>(g)] =
            probe.tracer->record(std::move(sc));
      }
    }
    for (int r = 0; r < params.nprocs; ++r) {
      const double decode =
          plan.slices[static_cast<std::size_t>(r)].decode_seconds;
      if (decode <= 0.0) continue;
      const int g = aggregated ? topo->group_of(r) : -1;
      obs::Span ds;
      ds.parent = phase;
      ds.rank = r;
      ds.stage = "decode";
      ds.detail = label;
      ds.start = arrival(r);
      ds.end = ds.start + decode;
      ds.service = decode;
      ds.res = "codec_cpu";
      const std::uint64_t span = probe.tracer->record(std::move(ds));
      if (aggregated && scatter_span[static_cast<std::size_t>(g)] != 0)
        probe.tracer->edge(scatter_span[static_cast<std::size_t>(g)], span);
    }
  }
  if (probe.ledger) {
    obs::ResourceLedger& lg = *probe.ledger;
    lg.declare("codec_cpu", params.nprocs);
    double decode_total = 0.0;
    for (int r = 0; r < params.nprocs; ++r) {
      const double decode =
          plan.slices[static_cast<std::size_t>(r)].decode_seconds;
      decode_total += decode;
      lg.extend_makespan(arrival(r) + decode);
    }
    lg.add_busy("codec_cpu", decode_total);
    if (aggregated) {
      lg.declare("agg_link", topo->ngroups());
      for (const GroupScatter& scatter : scatters)
        lg.add_busy("agg_link", scatter.cost);
    }
  }
}

/// The single SPMD restart body: the dump loop in reverse for the last
/// written dump, reading along the shared `plan`. Rank 0 passes `stats` and
/// fills it; every other rank passes null. The two gathers are the only
/// collectives — engine.run joins the ranks, so no barrier follows them.
void run_restart_rank(exec::RankCtx& ctx, const Params& params,
                      const staging::RestagePlan& plan,
                      pfs::StorageBackend& backend, obs::Probe probe,
                      RestartStats* stats) {
  // A setup per rank, unlike the dump: its small heap blocks, allocated
  // after the aggregator's wire blobs, keep glibc from trimming the freed
  // blobs back to the OS between aggregation groups. With one shared setup
  // the 1,024-rank ebl BB restart faulted ~29k pages per restart instead of
  // ~100 and ran 2-4x slower.
  const auto run = std::make_unique<const RankSetup>(params);
  const RecoveredDoc doc = read_task_doc(ctx, *run, plan, backend, probe);
  auto all_bytes = ctx.gather(doc.bytes, 0);
  auto all_hash = ctx.gather(doc.hash, 0);
  if (stats != nullptr)
    record_restart(*run, plan, *stats, backend, probe, std::move(all_bytes),
                   std::move(all_hash));
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
constexpr std::size_t kZeroBlock = 32;

/// FNV-1a over a zero byte is `h *= P` (the xor is a no-op), so a block of
/// kZeroBlock zero bytes advances the hash by exactly `h *= P^kZeroBlock`.
constexpr std::uint64_t fnv_prime_pow(std::size_t n) {
  std::uint64_t p = 1;
  for (std::size_t i = 0; i < n; ++i) p *= kFnvPrime;
  return p;
}
constexpr std::uint64_t kFnvZeroBlock = fnv_prime_pow(kZeroBlock);

bool is_zero_block(const std::byte* p) {
  std::uint64_t w[kZeroBlock / 8];
  std::memcpy(w, p, kZeroBlock);
  return (w[0] | w[1] | w[2] | w[3]) == 0;
}

}  // namespace

std::uint64_t restart_hash(std::span<const std::byte> data) {
  std::uint64_t h = kFnvOffset;
  const std::byte* p = data.data();
  const std::byte* const end = p + data.size();
  auto bytewise = [&h](const std::byte* from, const std::byte* to) {
    for (; from != to; ++from) {
      h ^= static_cast<std::uint64_t>(*from);
      h *= kFnvPrime;
    }
  };
  for (; static_cast<std::size_t>(end - p) >= kZeroBlock; p += kZeroBlock) {
    if (is_zero_block(p))
      h *= kFnvZeroBlock;
    else
      bytewise(p, p + kZeroBlock);
  }
  bytewise(p, end);
  return h;
}

RestartStats run_restart(exec::Engine& engine, const Params& params,
                         pfs::StorageBackend& backend, obs::Probe probe) {
  params.validate();
  AMRIO_EXPECTS_MSG(engine.nranks() == params.nprocs,
                    "run_restart: engine ranks " << engine.nranks()
                                                 << " != nprocs "
                                                 << params.nprocs);
  const staging::RestagePlan plan = make_restart_plan(params);
  RestartStats result;
  engine.run([&](exec::RankCtx& ctx) {
    run_restart_rank(ctx, params, plan, backend, probe,
                     ctx.rank() == 0 ? &result : nullptr);
  });
  return result;
}

DumpStats run_macsio(exec::Engine& engine, const Params& params,
                     pfs::StorageBackend& backend, obs::Probe probe) {
  params.validate();
  AMRIO_EXPECTS_MSG(engine.nranks() == params.nprocs,
                    "run_macsio: engine ranks " << engine.nranks()
                                                << " != nprocs "
                                                << params.nprocs);
  const RankSetup run(params);
  DumpStats result;
  result.task_bytes.assign(static_cast<std::size_t>(params.num_dumps),
                           std::vector<std::uint64_t>(
                               static_cast<std::size_t>(params.nprocs), 0));
  // record_dump appends one request per rank (per subfile when aggregated,
  // plus the index) and the root per dump.
  const int per_dump =
      run.topo ? run.topo->ngroups() + 2 : params.nprocs + 1;
  result.requests.requests.reserve(static_cast<std::size_t>(params.num_dumps) *
                                   static_cast<std::size_t>(per_dump));
  engine.run([&](exec::RankCtx& ctx) {
    run_macsio_rank(ctx, run, backend, probe,
                    ctx.rank() == 0 ? &result : nullptr);
  });
  return result;
}

}  // namespace amrio::macsio
