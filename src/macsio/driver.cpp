#include "macsio/driver.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

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

std::vector<double> DumpStats::cumulative() const {
  std::vector<double> out;
  out.reserve(bytes_per_dump.size());
  double acc = 0.0;
  for (auto b : bytes_per_dump) {
    acc += static_cast<double>(b);
    out.push_back(acc);
  }
  return out;
}

namespace {

/// MIF file group of a rank: mif_files files shared contiguously.
int file_group(const Params& p, int rank) {
  const int nfiles = (p.mif_files == 0) ? p.nprocs : p.mif_files;
  return static_cast<int>((static_cast<std::int64_t>(rank) * nfiles) / p.nprocs);
}

/// First rank of a file group (the member that creates/truncates the file).
bool is_group_leader(const Params& p, int rank) {
  if (rank == 0) return true;
  return file_group(p, rank) != file_group(p, rank - 1);
}

/// dump_file_path against an already-constructed interface — the dump body
/// calls this several times per rank per dump; allocating a fresh interface
/// each time (as the public overload must) would dominate calibration
/// replays.
std::string dump_file_path_for(const Params& p, const IoInterface& iface,
                               int rank, int dump) {
  if (p.file_mode == FileMode::kSif) {
    return p.output_dir + "/data/macsio_" + iface.file_tag() + "_shared_" +
           util::zero_pad(static_cast<std::uint64_t>(dump), 3) + "." +
           iface.extension();
  }
  const int group = file_group(p, rank);
  return p.output_dir + "/data/macsio_" + iface.file_tag() + "_" +
         util::zero_pad(static_cast<std::uint64_t>(group), 5) + "_" +
         util::zero_pad(static_cast<std::uint64_t>(dump), 3) + "." +
         iface.extension();
}

std::string aggregated_file_path_for(const Params& p, const IoInterface& iface,
                                     int group, int dump) {
  return p.output_dir + "/data/macsio_" + iface.file_tag() + "_agg_" +
         util::zero_pad(static_cast<std::uint64_t>(group), 5) + "_" +
         util::zero_pad(static_cast<std::uint64_t>(dump), 3) + "." +
         iface.extension();
}

std::string aggregated_index_path_for(const Params& p, const IoInterface& iface,
                                      int dump) {
  return p.output_dir + "/metadata/macsio_" + iface.file_tag() + "_index_" +
         util::zero_pad(static_cast<std::uint64_t>(dump), 3) + ".txt";
}

// Fixed-width index layout: 55-byte header + one 58-byte line per task
// ("ggggggg ttttttt <offset:20> <bytes:20>\n") — exactly computable, see
// aggregated_index_bytes(). Group/task fields are 7 digits so the index
// stays fixed-width at machine-scale rank counts (nprocs <= 9,999,999).
std::string agg_index_text(const Params& p, const staging::AggTopology& topo,
                           int dump,
                           const std::vector<std::uint64_t>& task_bytes) {
  std::string out = "macsio-agg-index dump " +
                    util::zero_pad(static_cast<std::uint64_t>(dump), 3) +
                    " groups " +
                    util::zero_pad(static_cast<std::uint64_t>(topo.ngroups()), 7) +
                    " ranks " +
                    util::zero_pad(static_cast<std::uint64_t>(p.nprocs), 7) +
                    "\n";
  out.reserve(out.size() + 58 * static_cast<std::size_t>(p.nprocs));
  for (int g = 0; g < topo.ngroups(); ++g) {
    std::uint64_t offset = 0;
    for (int r : topo.members_of(g)) {
      const std::uint64_t b = task_bytes[static_cast<std::size_t>(r)];
      out += util::zero_pad(static_cast<std::uint64_t>(g), 7) + " " +
             util::zero_pad(static_cast<std::uint64_t>(r), 7) + " " +
             util::zero_pad(offset, 20) + " " + util::zero_pad(b, 20) + "\n";
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
  const auto iface = make_interface(p.interface);
  return p.output_dir + "/metadata/macsio_" + iface->file_tag() + "_root_" +
         util::zero_pad(static_cast<std::uint64_t>(dump), 3) + ".json";
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

/// The single SPMD dump-loop body shared by every execution mode. Rank 0
/// accumulates the full statistics and returns them; other ranks return
/// empty stats.
DumpStats run_macsio_rank(exec::RankCtx& ctx, const Params& params,
                          pfs::StorageBackend& backend,
                          iostats::TraceRecorder* trace, obs::Probe probe) {
  params.validate();
  AMRIO_EXPECTS_MSG(ctx.nranks() == params.nprocs,
                    "run_macsio: engine ranks " << ctx.nranks()
                                                << " != nprocs " << params.nprocs);
  const auto iface = make_interface(params.interface);
  const int rank = ctx.rank();
  constexpr int kBatonTag = 41;
  constexpr int kShipTag = 73;

  const bool aggregated = params.aggregators > 0;
  std::optional<staging::AggTopology> topo;
  if (aggregated)
    topo = staging::AggTopology::make(params.nprocs, params.aggregators);
  const staging::AggregationConfig agg_cfg{params.aggregators,
                                           params.agg_link_bandwidth, 1.0e-6};
  const int tier =
      params.stage_to_bb ? pfs::kTierBurstBuffer : pfs::kTierPfs;
  // The in-situ codec stage: every rank encodes its task document before it
  // leaves the node. Codecs are stateless; each rank holds its own instance.
  const auto cdc = codec::make_codec(params.codec_spec());
  const bool encoded = params.codec_spec().enabled();

  DumpStats stats;
  if (rank == 0) {
    stats.task_bytes.assign(static_cast<std::size_t>(params.num_dumps),
                            std::vector<std::uint64_t>(
                                static_cast<std::size_t>(params.nprocs), 0));
  }

  for (int dump = 0; dump < params.num_dumps; ++dump) {
    const PartSpec spec =
        make_part_spec(params.part_bytes_at_dump(dump), params.vars_per_part);
    const double submit_time = dump * params.compute_time;
    util::Xoshiro256 rng(params.seed ^
                         (static_cast<std::uint64_t>(dump) << 20) ^
                         static_cast<std::uint64_t>(rank));
    // `written` is this rank's task-document bytes, gathered below either way.
    std::uint64_t written = 0;

    auto serialize_task_doc = [&](Sink& sink) {
      iface->begin_task_doc(sink, rank, dump);
      const int nparts = params.parts_of_rank(rank);
      for (int part = 0; part < nparts; ++part) {
        if (part > 0) iface->part_separator(sink);
        iface->write_part(sink, spec, part, params.fill, rng);
      }
      iface->end_task_doc(sink, params.meta_size);
    };

    if (aggregated) {
      // Two-phase aggregation: serialize into memory, encode through the
      // codec stage, ship to the group's aggregator, and let only the
      // aggregator touch the file system — the encoded documents cross the
      // link, the aggregator decodes them, and the subfile holds the group's
      // task documents concatenated in rank order, byte-identical to what
      // the members would have written themselves.
      const int group = topo->group_of(rank);
      const int agg = topo->aggregator_of_group(group);
      std::vector<std::byte> doc;
      VectorSink vsink(doc);
      serialize_task_doc(vsink);
      written = doc.size();
      std::vector<std::byte> blob;
      if (encoded) blob = cdc->encode(doc);
      const auto payloads = exec::gatherv_group(ctx, encoded ? blob : doc,
                                                topo->members_of(group), agg,
                                                kShipTag, probe);
      if (rank == agg) {
        const std::string path =
            aggregated_file_path_for(params, *iface, group, dump);
        std::uint64_t encoded_bytes = 0;
        double codec_cpu = 0.0;
        pfs::OutFile out(backend, path);
        for (const auto& payload : payloads) {
          if (encoded) {
            const codec::CompressResult enc = cdc->peek(payload);
            encoded_bytes += enc.out_bytes;
            codec_cpu += enc.cpu_seconds;
            out.write(cdc->decode(payload));
          } else {
            out.write(payload);
          }
        }
        const std::uint64_t subfile_bytes = out.bytes_written();
        out.close();  // surface flush errors (destructor closes quietly)
        if (trace != nullptr)
          trace->record_encoded_write(dump, 0, rank, path, subfile_bytes,
                                      encoded_bytes, codec_cpu, tier, group);
      }
    } else {
      const std::string path = dump_file_path_for(params, *iface, rank, dump);

      // MIF baton: within a file group, members write strictly in rank order.
      // SIF is one global group. The leader truncates; followers append after
      // receiving the baton from their predecessor.
      const bool leader = (params.file_mode == FileMode::kSif)
                              ? (rank == 0)
                              : is_group_leader(params, rank);
      const bool has_predecessor = !leader;
      const bool same_file_successor =
          (rank + 1 < params.nprocs) &&
          dump_file_path_for(params, *iface, rank + 1, dump) == path;

      if (has_predecessor) {
        (void)ctx.recv_token(rank - 1, kBatonTag);
      }
      {
        pfs::OutFile out(backend, path,
                         leader ? pfs::OpenMode::kTruncate
                                : pfs::OpenMode::kAppend);
        FileSink sink(out);
        serialize_task_doc(sink);
        written = out.bytes_written();
        out.close();  // surface flush errors (destructor closes quietly)
      }
      if (same_file_successor) {
        ctx.send_token(written, rank + 1, kBatonTag);
      }
      if (trace != nullptr) {
        const codec::CompressResult enc =
            encoded ? cdc->plan(written) : codec::CompressResult{};
        trace->record_encoded_write(dump, 0, rank, path, written,
                                    enc.out_bytes, enc.cpu_seconds, tier, -1);
      }
    }

    // Gather per-rank byte counts so rank 0 can write the root metadata and
    // accumulate statistics — this is MACSio's end-of-dump collective.
    const auto all_bytes = ctx.gather(written, 0);
    ctx.barrier();

    if (rank == 0) {
      const std::size_t req_begin = stats.requests.size();
      std::uint64_t dump_bytes = 0;
      // Per-task codec results, re-derived deterministically from the raw
      // byte counts (plan is a pure function of size) — one chunk per doc.
      std::vector<codec::CompressResult> encs(
          static_cast<std::size_t>(params.nprocs));
      for (int r = 0; r < params.nprocs; ++r) {
        const std::uint64_t b = all_bytes[static_cast<std::size_t>(r)];
        stats.task_bytes[static_cast<std::size_t>(dump)][static_cast<std::size_t>(r)] = b;
        dump_bytes += b;
        encs[static_cast<std::size_t>(r)] = cdc->plan(b);
        stats.codec.add(dump, -1, encs[static_cast<std::size_t>(r)]);
        if (!aggregated) {
          // Encoded bytes hit the filesystem; the encode cpu delays submit.
          const auto& enc = encs[static_cast<std::size_t>(r)];
          stats.requests.push_back(pfs::IoRequest{
              r, submit_time + enc.cpu_seconds,
              dump_file_path_for(params, *iface, r, dump), enc.out_bytes,
              tier});
        }
      }
      if (aggregated) {
        // One request per subfile, submitted once every member has encoded
        // its document (concurrently — the slowest encode gates the group)
        // and the encoded bytes have crossed the interconnect.
        for (int g = 0; g < topo->ngroups(); ++g) {
          const int agg = topo->aggregator_of_group(g);
          std::uint64_t subfile_encoded = 0;
          std::uint64_t shipped = 0;
          int nmessages = 0;
          double encode_gate = 0.0;
          for (int r : topo->members_of(g)) {
            const auto& enc = encs[static_cast<std::size_t>(r)];
            subfile_encoded += enc.out_bytes;
            encode_gate = std::max(encode_gate, enc.cpu_seconds);
            if (r != agg) {
              shipped += enc.out_bytes;
              ++nmessages;
            }
          }
          const double ready = submit_time + encode_gate +
                               staging::ship_cost(agg_cfg, shipped, nmessages);
          stats.requests.push_back(pfs::IoRequest{
              agg, ready, aggregated_file_path_for(params, *iface, g, dump),
              subfile_encoded, tier});
        }
      }
      // The root document reports the dump's task-data total, aggregated or
      // not — the index (written below) is bookkeeping on top of it.
      const std::string root_path = root_file_path(params, dump);
      const std::string root = root_meta_text(params, dump, spec, dump_bytes);
      {
        pfs::OutFile root_out(backend, root_path);
        root_out.write(root);
        root_out.close();
      }
      if (aggregated) {
        // Rank 0 writes the per-dump index locating every task document.
        const std::string index_path =
            aggregated_index_path_for(params, *iface, dump);
        const std::string index = agg_index_text(params, *topo, dump, all_bytes);
        AMRIO_ENSURES(index.size() == aggregated_index_bytes(params));
        {
          pfs::OutFile index_out(backend, index_path);
          index_out.write(index);
          index_out.close();
        }
        dump_bytes += index.size();
        if (trace != nullptr)
          trace->record_staged_write(dump, -1, 0, index_path, index.size(),
                                     tier, -1);
        stats.requests.push_back(
            pfs::IoRequest{0, submit_time, index_path, index.size(), tier});
      }
      dump_bytes += root.size();
      if (trace != nullptr)
        trace->record_staged_write(dump, -1, 0, root_path, root.size(), tier,
                                   -1);
      stats.requests.push_back(
          pfs::IoRequest{0, submit_time, root_path, root.size(), tier});
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
        for (std::size_t i = req_begin; i < stats.requests.size(); ++i)
          phase_end = std::max(phase_end, stats.requests[i].submit_time);
        const std::uint64_t phase = probe.tracer->record(
            obs::Span{0, 0, -1, "dump", label, submit_time, phase_end});
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
        if (aggregated) {
          for (int g = 0; g < topo->ngroups(); ++g) {
            const int agg = topo->aggregator_of_group(g);
            double encode_gate = 0.0;
            std::uint64_t shipped = 0;
            int nmessages = 0;
            for (int r : topo->members_of(g)) {
              encode_gate = std::max(
                  encode_gate, encs[static_cast<std::size_t>(r)].cpu_seconds);
              if (r != agg) {
                shipped += encs[static_cast<std::size_t>(r)].out_bytes;
                ++nmessages;
              }
            }
            const double ship_start = submit_time + encode_gate;
            const double ready =
                ship_start + staging::ship_cost(agg_cfg, shipped, nmessages);
            if (ready <= ship_start) continue;
            obs::Span ss;
            ss.parent = phase;
            ss.rank = agg;
            ss.stage = "ship";
            ss.detail = label;
            ss.start = ship_start;
            ss.end = ready;
            ss.resource = "agg_link";
            // The bandwidth part only: the per-message latency term does not
            // shrink when the link gets faster, so the what-if engine must
            // not scale it.
            ss.service =
                static_cast<double>(shipped) / agg_cfg.link_bandwidth;
            ss.res = "agg_link";
            const std::uint64_t ship = probe.tracer->record(std::move(ss));
            for (int r : topo->members_of(g)) {
              const std::uint64_t from =
                  encode_span[static_cast<std::size_t>(r)];
              if (from != 0) probe.tracer->edge(from, ship);
            }
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
          lg.declare("agg_link", topo->ngroups());
          for (int g = 0; g < topo->ngroups(); ++g) {
            const int agg = topo->aggregator_of_group(g);
            double encode_gate = 0.0;
            std::uint64_t shipped = 0;
            int nmessages = 0;
            for (int r : topo->members_of(g)) {
              encode_gate = std::max(
                  encode_gate, encs[static_cast<std::size_t>(r)].cpu_seconds);
              if (r != agg) {
                shipped += encs[static_cast<std::size_t>(r)].out_bytes;
                ++nmessages;
              }
            }
            const double cost = staging::ship_cost(agg_cfg, shipped, nmessages);
            lg.add_busy("agg_link", cost);
            lg.extend_makespan(submit_time + encode_gate + cost);
          }
        }
      }
    }
    ctx.barrier();
  }

  if (rank == 0) {
    // files: count distinct paths actually produced
    std::set<std::string> files;
    for (const auto& req : stats.requests) files.insert(req.file);
    stats.nfiles = files.size();
  }
  return stats;
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

/// The single SPMD restart body: the dump loop in reverse for the last
/// written dump, reading along the shared `plan`. Rank 0 returns the full
/// statistics; other ranks return empty stats.
RestartStats run_restart_rank(exec::RankCtx& ctx, const Params& params,
                              const staging::RestagePlan& plan,
                              pfs::StorageBackend& backend,
                              iostats::TraceRecorder* trace, obs::Probe probe) {
  const auto iface = make_interface(params.interface);
  const int rank = ctx.rank();
  constexpr int kRestageTag = 74;
  const int dump = params.num_dumps - 1;  // restart from the last checkpoint

  const bool aggregated = params.aggregators > 0;
  std::optional<staging::AggTopology> topo;
  if (aggregated)
    topo = staging::AggTopology::make(params.nprocs, params.aggregators);
  const staging::AggregationConfig agg_cfg{params.aggregators,
                                           params.agg_link_bandwidth, 1.0e-6};
  const auto cdc = codec::make_codec(params.codec_spec());
  const bool encoded = params.codec_spec().enabled();
  const int read_tier =
      params.restart_from_bb ? pfs::kTierBurstBuffer : pfs::kTierPfs;
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
    // Accounting-only backends degrade to exact sizes of zero bytes — the
    // same contract StagingBackend's accounting-mode drain keeps.
    if (!contents) return std::vector<std::byte>(e.raw_bytes);
    return backend.read(e.file);
  };

  // Byte path: recover this rank's task document.
  std::vector<std::byte> doc;
  if (aggregated) {
    // Two-phase in reverse: the aggregator fetches the whole subfile, slices
    // it at the planned offsets, re-encodes each member's document for the
    // wire, and fans them back out over scatterv_group; every member decodes
    // its own document — encoded bytes cross the link, raw bytes come back.
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
    std::vector<std::byte> blob =
        exec::scatterv_group(ctx, payloads, members, agg, kRestageTag, probe);
    doc = encoded ? cdc->decode(blob) : std::move(blob);
  } else {
    // Every rank reads its own byte range of its dump file (concurrent
    // readers of a shared MIF-group/SIF file need no baton — nothing is
    // mutated, and the ranged read keeps a 128-rank SIF restart from
    // materializing the whole shared image once per rank).
    validate_extent(my_extent);
    doc = contents
              ? backend.read_range(mine.file, mine.offset, mine.raw_bytes)
              : std::vector<std::byte>(mine.raw_bytes);
  }
  AMRIO_ENSURES_MSG(doc.size() == mine.raw_bytes,
                    "run_restart: recovered document size mismatch on rank "
                        << rank);

  if (trace != nullptr)
    trace->record_read(dump, 0, rank, mine.file, mine.raw_bytes,
                       encoded ? mine.encoded_bytes : 0, mine.decode_seconds,
                       read_tier, aggregated ? topo->group_of(rank) : -1);

  const auto all_bytes =
      ctx.gather(static_cast<std::uint64_t>(doc.size()), 0);
  const auto all_hash = ctx.gather(restart_hash(doc), 0);
  ctx.barrier();

  RestartStats stats;
  if (rank == 0) {
    stats.dump = dump;
    stats.task_bytes = all_bytes;
    stats.task_hash = all_hash;
    stats.slices = plan.slices;
    for (int r = 0; r < params.nprocs; ++r) {
      const staging::RestageSlice& slice =
          plan.slices[static_cast<std::size_t>(r)];
      AMRIO_ENSURES_MSG(
          all_bytes[static_cast<std::size_t>(r)] == slice.raw_bytes,
          "run_restart: read-back not byte-conserving on rank " << r);
      stats.codec.add_decode(dump, -1, cdc->plan(slice.raw_bytes),
                             slice.decode_seconds);
    }
    stats.raw_bytes = plan.raw_bytes();
    stats.encoded_bytes = plan.encoded_bytes();
    stats.decode_gate = plan.decode_gate();
    std::vector<double> group_cost;  // per-group fan-out cost (aggregated)
    if (aggregated) {
      // Concurrent groups: the slowest scatter gates the restart.
      group_cost.assign(static_cast<std::size_t>(topo->ngroups()), 0.0);
      for (int g = 0; g < topo->ngroups(); ++g) {
        const int agg = topo->aggregator_of_group(g);
        std::uint64_t shipped = 0;
        int nmessages = 0;
        for (int r : topo->members_of(g)) {
          if (r == agg) continue;
          shipped += plan.slices[static_cast<std::size_t>(r)].encoded_bytes;
          ++nmessages;
        }
        group_cost[static_cast<std::size_t>(g)] =
            staging::ship_cost(agg_cfg, shipped, nmessages);
        stats.scatter_seconds = std::max(stats.scatter_seconds,
                                         group_cost[static_cast<std::size_t>(g)]);
      }
    }
    stats.requests = plan.read_requests(0.0, params.restart_from_bb);
    // Metadata read-back: the root document, and under aggregation the index
    // locating every task document — always cold PFS reads (metadata never
    // stages).
    if (trace != nullptr)
      for (const auto& req : stats.requests)
        if (req.op == pfs::kOpPrefetch)
          trace->record_prefetch(dump, 0, req.client, req.file, req.bytes,
                                 req.tier,
                                 aggregated ? topo->group_of(req.client) : -1);
    auto read_meta = [&](const std::string& path) {
      const std::uint64_t meta_bytes = backend.size(path);
      stats.requests.push_back(pfs::IoRequest{0, 0.0, path, meta_bytes,
                                              pfs::kTierPfs, pfs::kOpRead});
      if (trace != nullptr)
        trace->record_read(dump, -1, 0, path, meta_bytes, 0, 0.0,
                           pfs::kTierPfs, -1);
    };
    read_meta(root_file_path(params, dump));
    if (aggregated) read_meta(aggregated_index_path_for(params, *iface, dump));

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
      for (int r = 0; r < params.nprocs; ++r) {
        const double arrival =
            aggregated ? group_cost[static_cast<std::size_t>(topo->group_of(r))]
                       : 0.0;
        phase_end = std::max(
            arrival + plan.slices[static_cast<std::size_t>(r)].decode_seconds,
            phase_end);
      }
      const std::uint64_t phase = probe.tracer->record(
          obs::Span{0, 0, -1, "restart", label, 0.0, phase_end});
      std::vector<std::uint64_t> scatter_span;
      if (aggregated) {
        scatter_span.assign(static_cast<std::size_t>(topo->ngroups()), 0);
        for (int g = 0; g < topo->ngroups(); ++g) {
          if (group_cost[static_cast<std::size_t>(g)] <= 0.0) continue;
          const int agg = topo->aggregator_of_group(g);
          std::uint64_t shipped = 0;
          for (int r : topo->members_of(g))
            if (r != agg)
              shipped += plan.slices[static_cast<std::size_t>(r)].encoded_bytes;
          obs::Span sc;
          sc.parent = phase;
          sc.rank = agg;
          sc.stage = "scatter";
          sc.detail = label;
          sc.start = 0.0;
          sc.end = group_cost[static_cast<std::size_t>(g)];
          sc.resource = "agg_link";
          // Bandwidth part only — the per-message latency term is invariant
          // under link relief (see the ship span).
          sc.service = static_cast<double>(shipped) / agg_cfg.link_bandwidth;
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
        const double arrival =
            aggregated ? group_cost[static_cast<std::size_t>(g)] : 0.0;
        obs::Span ds;
        ds.parent = phase;
        ds.rank = r;
        ds.stage = "decode";
        ds.detail = label;
        ds.start = arrival;
        ds.end = arrival + decode;
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
        const double arrival =
            aggregated ? group_cost[static_cast<std::size_t>(topo->group_of(r))]
                       : 0.0;
        lg.extend_makespan(arrival + decode);
      }
      lg.add_busy("codec_cpu", decode_total);
      if (aggregated) {
        lg.declare("agg_link", topo->ngroups());
        for (int g = 0; g < topo->ngroups(); ++g)
          lg.add_busy("agg_link", group_cost[static_cast<std::size_t>(g)]);
      }
    }
  }
  ctx.barrier();
  return stats;
}

}  // namespace

std::uint64_t restart_hash(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

RestartStats run_restart(exec::Engine& engine, const Params& params,
                         pfs::StorageBackend& backend,
                         iostats::TraceRecorder* trace, obs::Probe probe) {
  params.validate();
  AMRIO_EXPECTS_MSG(engine.nranks() == params.nprocs,
                    "run_restart: engine ranks " << engine.nranks()
                                                 << " != nprocs "
                                                 << params.nprocs);
  const staging::RestagePlan plan = make_restart_plan(params);
  RestartStats result;
  engine.run([&](exec::RankCtx& ctx) {
    RestartStats local =
        run_restart_rank(ctx, params, plan, backend, trace, probe);
    if (ctx.rank() == 0) result = std::move(local);
  });
  return result;
}

DumpStats run_macsio(exec::Engine& engine, const Params& params,
                     pfs::StorageBackend& backend,
                     iostats::TraceRecorder* trace, obs::Probe probe) {
  DumpStats result;
  engine.run([&](exec::RankCtx& ctx) {
    DumpStats local = run_macsio_rank(ctx, params, backend, trace, probe);
    if (ctx.rank() == 0) result = std::move(local);
  });
  return result;
}

DumpStats run_macsio(const Params& params, pfs::StorageBackend& backend,
                     iostats::TraceRecorder* trace, obs::Probe probe) {
  exec::SerialEngine engine(params.nprocs);
  return run_macsio(engine, params, backend, trace, probe);
}

DumpStats run_macsio_spmd(simmpi::Comm& comm, const Params& params,
                          pfs::StorageBackend& backend,
                          iostats::TraceRecorder* trace, obs::Probe probe) {
  exec::CommCtx ctx(comm);
  return run_macsio_rank(ctx, params, backend, trace, probe);
}

}  // namespace amrio::macsio
