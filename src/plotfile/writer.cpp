#include "plotfile/writer.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>

#include "codec/codec.hpp"
#include "plotfile/fab_io.hpp"
#include "staging/aggregator.hpp"
#include "util/assert.hpp"
#include "util/format.hpp"

namespace amrio::plotfile {

std::string fixed_real(double v) {
  char buf[64];
  // space flag reserves a column for the sign; precision 17 round-trips
  // doubles; width padding absorbs the 2-vs-3-digit exponent so every real
  // occupies exactly 26 characters and metadata sizes are data-independent.
  std::snprintf(buf, sizeof(buf), "% .17e", v);
  std::string s = buf;
  if (s.size() < 26) s.append(26 - s.size(), ' ');
  AMRIO_ENSURES(s.size() == 26);
  return s;
}

namespace {

struct FabRef {
  std::size_t box_index = 0;
  std::string file;       // basename within the level dir
  std::uint64_t offset = 0;
};

/// Per-level plan: which rank writes which boxes to which file, with offsets.
struct LevelPlan {
  std::vector<FabRef> fabs;                   // indexed by box index
  std::map<int, std::vector<std::size_t>> rank_boxes;  // rank -> box indices
  std::map<int, std::uint64_t> rank_bytes;    // Cell_D payload per rank
  /// Aggregated MIF only: group -> total Cell_D bytes (groups with data).
  std::map<int, std::uint64_t> group_bytes;
};

/// Effective aggregation group count for a level (never more than its ranks).
int level_groups(int aggregators, int level_ranks) {
  return std::min(aggregators, level_ranks);
}

LevelPlan plan_level(const mesh::BoxArray& ba, const mesh::DistributionMapping& dm,
                     int ncomp, int aggregators) {
  LevelPlan plan;
  plan.fabs.resize(ba.size());
  if (aggregators > 0) {
    // Aggregated MIF: one Cell_D file per aggregation group, holding member
    // fabs in rank order; the per-rank subtotals still drive the gather
    // cross-check in the write path.
    const auto topo = staging::AggTopology::make(
        dm.nranks(), level_groups(aggregators, dm.nranks()));
    for (int g = 0; g < topo.ngroups(); ++g) {
      const std::string file =
          "Cell_D_" + util::zero_pad(static_cast<std::uint64_t>(g), 5);
      std::uint64_t offset = 0;
      for (int rank : topo.members_of(g)) {
        auto boxes = dm.boxes_of(rank);
        if (boxes.empty()) continue;
        const std::uint64_t rank_start = offset;
        for (std::size_t bi : boxes) {
          plan.fabs[bi] = FabRef{bi, file, offset};
          offset += fab_disk_size(ba[bi], ncomp);
        }
        plan.rank_boxes[rank] = std::move(boxes);
        plan.rank_bytes[rank] = offset - rank_start;
      }
      if (offset > 0) plan.group_bytes[g] = offset;
    }
    return plan;
  }
  for (int rank = 0; rank < dm.nranks(); ++rank) {
    auto boxes = dm.boxes_of(rank);
    if (boxes.empty()) continue;  // no file for this task at this level
    const std::string file = "Cell_D_" + util::zero_pad(static_cast<std::uint64_t>(rank), 5);
    std::uint64_t offset = 0;
    for (std::size_t bi : boxes) {
      plan.fabs[bi] = FabRef{bi, file, offset};
      offset += fab_disk_size(ba[bi], ncomp);
    }
    plan.rank_boxes[rank] = std::move(boxes);
    plan.rank_bytes[rank] = offset;
  }
  return plan;
}

/// Cell_H text. min/max tables take a provider so the predict path can emit
/// same-width placeholders.
template <typename MinMaxFn>
std::string cell_h_text(const mesh::BoxArray& ba, int ncomp,
                        const LevelPlan& plan, MinMaxFn&& minmax) {
  std::ostringstream os;
  os << "1\n";  // version
  os << "1\n";  // how (one fab per grid)
  os << ncomp << '\n';
  os << "0\n";  // nghost on disk
  os << '(' << ba.size() << " 0\n";
  for (std::size_t i = 0; i < ba.size(); ++i) os << ba[i] << '\n';
  os << ")\n";
  os << ba.size() << '\n';
  for (std::size_t i = 0; i < ba.size(); ++i) {
    os << "FabOnDisk: " << plan.fabs[i].file << ' ' << plan.fabs[i].offset
       << '\n';
  }
  os << '\n' << ba.size() << ',' << ncomp << '\n';
  for (std::size_t i = 0; i < ba.size(); ++i) {
    for (int n = 0; n < ncomp; ++n) os << fixed_real(minmax(i, n, false)) << ',';
    os << '\n';
  }
  os << '\n' << ba.size() << ',' << ncomp << '\n';
  for (std::size_t i = 0; i < ba.size(); ++i) {
    for (int n = 0; n < ncomp; ++n) os << fixed_real(minmax(i, n, true)) << ',';
    os << '\n';
  }
  return os.str();
}

std::string header_text(const PlotfileSpec& spec,
                        const std::vector<LevelLayout>& levels) {
  AMRIO_EXPECTS(!levels.empty());
  std::ostringstream os;
  os << "HyperCLaw-V1.1\n";
  os << spec.var_names.size() << '\n';
  for (const auto& v : spec.var_names) os << v << '\n';
  os << mesh::kSpaceDim << '\n';
  os << fixed_real(spec.time) << '\n';
  const int finest = static_cast<int>(levels.size()) - 1;
  os << finest << '\n';
  const auto& g0 = levels.front().geom;
  os << fixed_real(g0.prob_lo()[0]) << ' ' << fixed_real(g0.prob_lo()[1]) << '\n';
  os << fixed_real(g0.prob_hi()[0]) << ' ' << fixed_real(g0.prob_hi()[1]) << '\n';
  for (int l = 0; l < finest; ++l) os << spec.ref_ratio << ' ';
  os << '\n';
  for (const auto& lev : levels) os << lev.geom.domain() << ' ';
  os << '\n';
  for (std::size_t l = 0; l < levels.size(); ++l) os << spec.step << ' ';
  os << '\n';
  for (const auto& lev : levels) {
    os << fixed_real(lev.geom.cell_size(0)) << ' '
       << fixed_real(lev.geom.cell_size(1)) << '\n';
  }
  os << "0\n";  // coord_sys: cartesian (Listing 2 geometry.coord_sys = 0)
  os << "0\n";  // boundary width
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const auto& lev = levels[l];
    os << l << ' ' << lev.ba.size() << ' ' << fixed_real(spec.time) << '\n';
    os << spec.step << '\n';
    for (std::size_t i = 0; i < lev.ba.size(); ++i) {
      const auto& b = lev.ba[i];
      for (int d = 0; d < mesh::kSpaceDim; ++d) {
        const double lo = lev.geom.cell_lo({b.lo(0), b.lo(1)})[static_cast<std::size_t>(d)];
        const auto hi_cell = mesh::IntVect(b.hi(0) + 1, b.hi(1) + 1);
        const double hi = lev.geom.cell_lo(hi_cell)[static_cast<std::size_t>(d)];
        os << fixed_real(lo) << ' ' << fixed_real(hi) << '\n';
      }
    }
    os << "Level_" << l << "/Cell\n";
  }
  return os.str();
}

void trace_meta(iostats::TraceRecorder* trace, std::int64_t step, int level,
                const std::string& path, std::uint64_t bytes) {
  if (trace != nullptr) trace->record_write(step, level, -1, path, bytes);
}

/// Size-prediction implementation: no backend is touched, min/max
/// placeholders stand in for field data, byte counts come from the plan.
WriteStats predict_impl(const PlotfileSpec& spec,
                        const std::vector<LevelLayout>& layouts, int ncomp,
                        iostats::TraceRecorder* trace, bool checkpoint) {
  AMRIO_EXPECTS(!layouts.empty());
  AMRIO_EXPECTS(ncomp >= 1);
  AMRIO_EXPECTS_MSG(spec.aggregators >= 0,
                    "plotfile: spec.aggregators must be >= 0");

  WriteStats stats;
  stats.rank_level_bytes.assign(layouts.size(), {});

  // Data-free codec model: plan() from sizes alone. Matches the write path
  // exactly for identity/lossless (pure size functions) and for ebl with
  // pinned smoothness; auto-smoothness ebl measures real fabs on write and
  // diverges here by design (there is no data to measure).
  const auto cdc = codec::make_codec(spec.codec);
  const bool encoded = spec.codec.enabled();

  // ---- per-level data files + Cell_H
  for (std::size_t l = 0; l < layouts.size(); ++l) {
    const auto& layout = layouts[l];
    const int nranks = layout.dm.nranks();
    stats.rank_level_bytes[l].assign(static_cast<std::size_t>(nranks), 0);
    const LevelPlan plan = plan_level(layout.ba, layout.dm, ncomp,
                                      spec.aggregators);
    const std::string level_dir = spec.dir + "/Level_" + std::to_string(l);

    for (const auto& [rank, boxes] : plan.rank_boxes) {
      (void)boxes;
      const std::uint64_t written = plan.rank_bytes.at(rank);
      stats.rank_level_bytes[l][static_cast<std::size_t>(rank)] = written;
      stats.data_bytes += written;
      if (encoded && written > 0)
        stats.codec.add(static_cast<int>(spec.step), static_cast<int>(l),
                        cdc->plan(written));
    }
    if (spec.aggregators > 0) {
      const auto topo = staging::AggTopology::make(
          nranks, level_groups(spec.aggregators, nranks));
      // Per-group codec sums over member chunks (the write-path aggregator
      // records the same sums from the shipped containers).
      std::map<int, codec::CompressResult> group_enc;
      if (encoded) {
        for (const auto& [r, bytes] : plan.rank_bytes) {
          const codec::CompressResult e = cdc->plan(bytes);
          auto& acc = group_enc[topo.group_of(r)];
          acc.raw_bytes += e.raw_bytes;
          acc.out_bytes += e.out_bytes;
          acc.cpu_seconds += e.cpu_seconds;
        }
      }
      for (const auto& [g, bytes] : plan.group_bytes) {
        const std::string path =
            level_dir + "/Cell_D_" +
            util::zero_pad(static_cast<std::uint64_t>(g), 5);
        ++stats.nfiles;
        if (trace != nullptr)
          trace->record_encoded_write(spec.step, static_cast<int>(l),
                                      topo.aggregator_of_group(g), path, bytes,
                                      group_enc[g].out_bytes,
                                      group_enc[g].cpu_seconds, /*tier=*/0, g);
      }
    } else {
      for (const auto& [rank, boxes] : plan.rank_boxes) {
        const std::string path = level_dir + "/" + plan.fabs[boxes.front()].file;
        ++stats.nfiles;
        if (trace != nullptr) {
          const std::uint64_t written = plan.rank_bytes.at(rank);
          const codec::CompressResult e =
              encoded ? cdc->plan(written) : codec::CompressResult{};
          trace->record_encoded_write(spec.step, static_cast<int>(l), rank,
                                      path, written, e.out_bytes,
                                      e.cpu_seconds, /*tier=*/0, -1);
        }
      }
    }

    const std::string cell_h = cell_h_text(
        layout.ba, ncomp, plan, [](std::size_t, int, bool) { return 0.0; });
    const std::string cell_h_path = level_dir + "/Cell_H";
    stats.metadata_bytes += cell_h.size();
    ++stats.nfiles;
    trace_meta(trace, spec.step, static_cast<int>(l), cell_h_path, cell_h.size());
  }

  // ---- top-level Header and job_info
  std::string header = header_text(spec, layouts);
  if (checkpoint) header = "CheckPointVersion_1.0\n" + header;
  stats.metadata_bytes += header.size();
  ++stats.nfiles;
  trace_meta(trace, spec.step, -1, spec.dir + "/Header", header.size());

  stats.metadata_bytes += spec.job_info.size();
  ++stats.nfiles;
  trace_meta(trace, spec.step, -1, spec.dir + "/job_info",
             spec.job_info.size());

  stats.total_bytes = stats.metadata_bytes + stats.data_bytes;
  return stats;
}

std::vector<LevelLayout> layouts_of(const std::vector<LevelPlotData>& levels) {
  std::vector<LevelLayout> out;
  out.reserve(levels.size());
  for (const auto& lev : levels) {
    AMRIO_EXPECTS(lev.data != nullptr);
    out.push_back(LevelLayout{lev.geom, lev.data->box_array(),
                              lev.data->distribution()});
  }
  return out;
}

/// The single SPMD write body shared by every execution mode: each rank
/// writes its own Cell_D files (one per level where it owns grids, fully
/// concurrent under an SPMD engine), per-rank byte counts are gathered to
/// rank 0, and rank 0 writes all metadata. Rank 0 returns full statistics;
/// other ranks return only their own contributions.
WriteStats write_plotfile_rank(exec::RankCtx& ctx, pfs::StorageBackend& backend,
                               const PlotfileSpec& spec,
                               const std::vector<LevelPlotData>& levels,
                               const std::vector<LevelLayout>& layouts,
                               int ncomp, iostats::TraceRecorder* trace,
                               bool checkpoint) {
  const int rank = ctx.rank();
  AMRIO_EXPECTS_MSG(spec.aggregators >= 0,
                    "plotfile: spec.aggregators must be >= 0");
  for (const auto& lay : layouts)
    AMRIO_EXPECTS_MSG(lay.dm.nranks() <= ctx.nranks(),
                      "write_plotfile: DM ranks " << lay.dm.nranks()
                                                  << " > engine ranks "
                                                  << ctx.nranks());

  WriteStats stats;
  stats.rank_level_bytes.assign(layouts.size(), {});

  // Only the metadata writer needs the per-level plans; compute each once.
  std::vector<LevelPlan> plans;
  if (rank == 0) {
    plans.reserve(layouts.size());
    for (const auto& layout : layouts)
      plans.push_back(plan_level(layout.ba, layout.dm, ncomp,
                                 spec.aggregators));
  }
  constexpr int kShipTag = 74;

  // Per-Cell_D codec hook: each rank's chunk is modeled (and, under
  // aggregation, physically containered) before it leaves the node. With
  // auto smoothness the ebl model reads the rank's real FAB values.
  const auto cdc = codec::make_codec(spec.codec);
  const bool encoded = spec.codec.enabled();
  const auto plan_chunk = [&](std::uint64_t raw_bytes,
                              const std::vector<std::size_t>& boxes,
                              const mesh::MultiFab& mf) {
    if (spec.codec.smoothness < 0.0) {
      codec::SmoothnessEstimator est;
      for (std::size_t bi : boxes) est.add(mf.fab(bi).data());
      return cdc->plan_with(raw_bytes, est.value());
    }
    return cdc->plan(raw_bytes);
  };

  // Phase 1: Cell_D data. Classic MIF: every rank writes its own file,
  // concurrently. Aggregated MIF: members serialize their fabs into memory
  // and ship them to their group's aggregator, which writes the one
  // Cell_D_<group> file — only aggregators open files.
  for (std::size_t l = 0; l < layouts.size(); ++l) {
    const auto& layout = layouts[l];
    const int level_ranks = layout.dm.nranks();
    stats.rank_level_bytes[l].assign(static_cast<std::size_t>(level_ranks), 0);
    const auto my_boxes = rank < level_ranks
                              ? layout.dm.boxes_of(rank)
                              : std::vector<std::size_t>{};
    std::uint64_t written = 0;
    std::uint64_t my_files = 0;
    codec::CompressResult enc{};
    if (spec.aggregators > 0) {
      if (rank < level_ranks) {
        const auto topo = staging::AggTopology::make(
            level_ranks, level_groups(spec.aggregators, level_ranks));
        const int group = topo.group_of(rank);
        const int agg = topo.aggregator_of_group(group);
        std::vector<std::byte> payload(cdc->header_bytes());
        const auto& mf = *levels[l].data;
        for (std::size_t bi : my_boxes)
          written += write_fab(payload, mf.fab(bi), mf.valid_box(bi));
        // Encoded chunks cross the link; the aggregator decodes them, so the
        // subfile stays the raw rank-order concatenation either way.
        if (encoded) enc = plan_chunk(written, my_boxes, mf);
        cdc->seal(payload, enc);
        // The aggregator lands each chunk as it arrives and opens the
        // Cell_D file at the first one that carries bytes, so a group with
        // no data on this level writes no file.
        std::optional<pfs::OutFile> out;
        std::string path;
        std::uint64_t group_total = 0;
        std::uint64_t group_encoded = 0;
        double group_cpu = 0.0;
        const auto land = [&](int, std::span<const std::byte> pl) {
          const std::span<const std::byte> raw = cdc->payload(pl);
          if (encoded) {
            const codec::CompressResult member = cdc->peek(pl);
            group_encoded += member.out_bytes;
            group_cpu += member.cpu_seconds;
          }
          group_total += raw.size();
          if (!out && !raw.empty()) {
            path = spec.dir + "/Level_" + std::to_string(l) + "/Cell_D_" +
                   util::zero_pad(static_cast<std::uint64_t>(group), 5);
            out.emplace(backend, path);
          }
          if (out) out->write(raw);
        };
        exec::gatherv_group(ctx, std::move(payload), topo.members_of(group),
                            agg, kShipTag, land);
        if (out) {
          out->close();  // surface flush errors
          ++my_files;
          if (trace != nullptr)
            trace->record_encoded_write(spec.step, static_cast<int>(l), rank,
                                        path, group_total, group_encoded,
                                        group_cpu, /*tier=*/0, group);
        }
      }
    } else if (!my_boxes.empty()) {
      const std::string path =
          spec.dir + "/Level_" + std::to_string(l) + "/Cell_D_" +
          util::zero_pad(static_cast<std::uint64_t>(rank), 5);
      pfs::OutFile out(backend, path);
      const auto& mf = *levels[l].data;
      for (std::size_t bi : my_boxes)
        written += write_fab(out, mf.fab(bi), mf.valid_box(bi));
      out.close();  // surface flush errors (destructor closes quietly)
      ++my_files;
      if (encoded) enc = plan_chunk(written, my_boxes, mf);
      if (trace != nullptr)
        trace->record_encoded_write(spec.step, static_cast<int>(l), rank, path,
                                    written, enc.out_bytes, enc.cpu_seconds,
                                    /*tier=*/0, -1);
    }
    // Gather per-rank data bytes — the collective AMReX performs so the
    // metadata writer knows every FabOnDisk offset is consistent.
    const auto all_bytes = ctx.gather(written, 0);
    // Codec dimensions ride two extra gathers (uniformly gated on the spec,
    // so every rank joins the same collective sequence).
    const std::vector<std::uint64_t> all_enc =
        encoded ? ctx.gather(enc.out_bytes, 0) : std::vector<std::uint64_t>{};
    const std::vector<std::uint64_t> all_cpu_ns =
        encoded ? ctx.gather(static_cast<std::uint64_t>(
                                 std::llround(enc.cpu_seconds * 1e9)),
                             0)
                : std::vector<std::uint64_t>{};
    if (rank == 0) {
      for (int r = 0; r < level_ranks; ++r) {
        stats.rank_level_bytes[l][static_cast<std::size_t>(r)] =
            all_bytes[static_cast<std::size_t>(r)];
        stats.data_bytes += all_bytes[static_cast<std::size_t>(r)];
        if (encoded && all_bytes[static_cast<std::size_t>(r)] > 0) {
          stats.codec.add(
              static_cast<int>(spec.step), static_cast<int>(l),
              codec::CompressResult{
                  all_bytes[static_cast<std::size_t>(r)],
                  all_enc[static_cast<std::size_t>(r)],
                  static_cast<double>(all_cpu_ns[static_cast<std::size_t>(r)]) *
                      1e-9});
        }
      }
      // cross-check the gathered totals against the deterministic plan
      const LevelPlan& plan = plans[l];
      for (const auto& [r, bytes] : plan.rank_bytes) {
        AMRIO_ENSURES(stats.rank_level_bytes[l][static_cast<std::size_t>(r)] ==
                      bytes);
      }
      stats.nfiles += spec.aggregators > 0 ? plan.group_bytes.size()
                                           : plan.rank_boxes.size();
    } else if (rank < level_ranks) {
      stats.rank_level_bytes[l][static_cast<std::size_t>(rank)] = written;
      stats.data_bytes += written;
      stats.nfiles += my_files;
    }
  }
  ctx.barrier();

  // Phase 2: rank 0 writes all metadata (Cell_H per level, Header, job_info).
  if (rank == 0) {
    for (std::size_t l = 0; l < layouts.size(); ++l) {
      const auto& layout = layouts[l];
      const LevelPlan& plan = plans[l];
      const auto& mf = *levels[l].data;
      const std::string cell_h =
          cell_h_text(layout.ba, ncomp, plan,
                      [&mf](std::size_t i, int n, bool want_max) {
                        return want_max ? mf.fab(i).max(mf.valid_box(i), n)
                                        : mf.fab(i).min(mf.valid_box(i), n);
                      });
      const std::string path =
          spec.dir + "/Level_" + std::to_string(l) + "/Cell_H";
      pfs::OutFile out(backend, path);
      out.write(cell_h);
      out.close();
      stats.metadata_bytes += cell_h.size();
      ++stats.nfiles;
      trace_meta(trace, spec.step, static_cast<int>(l), path, cell_h.size());
    }
    std::string header = header_text(spec, layouts);
    if (checkpoint) header = "CheckPointVersion_1.0\n" + header;
    {
      pfs::OutFile out(backend, spec.dir + "/Header");
      out.write(header);
      out.close();
    }
    stats.metadata_bytes += header.size();
    ++stats.nfiles;
    trace_meta(trace, spec.step, -1, spec.dir + "/Header", header.size());
    {
      pfs::OutFile out(backend, spec.dir + "/job_info");
      out.write(spec.job_info);
      out.close();
    }
    stats.metadata_bytes += spec.job_info.size();
    ++stats.nfiles;
    trace_meta(trace, spec.step, -1, spec.dir + "/job_info",
               spec.job_info.size());
  }
  ctx.barrier();
  stats.total_bytes = stats.metadata_bytes + stats.data_bytes;
  return stats;
}

int checked_ncomp(const PlotfileSpec& spec,
                  const std::vector<LevelPlotData>& levels, const char* what) {
  AMRIO_EXPECTS(!levels.empty());
  AMRIO_EXPECTS(levels.front().data != nullptr);
  const int ncomp = levels.front().data->ncomp();
  AMRIO_EXPECTS_MSG(static_cast<std::size_t>(ncomp) == spec.var_names.size(),
                    what << " var_names must match data components");
  return ncomp;
}

/// Engine ranks needed to host every level's distribution.
int engine_ranks_for(const std::vector<LevelLayout>& layouts) {
  int n = 1;
  for (const auto& lay : layouts) n = std::max(n, lay.dm.nranks());
  return n;
}

WriteStats write_on_engine(exec::Engine& engine, pfs::StorageBackend& backend,
                           const PlotfileSpec& spec,
                           const std::vector<LevelPlotData>& levels,
                           const std::vector<LevelLayout>& layouts,
                           iostats::TraceRecorder* trace, bool checkpoint) {
  const int ncomp = checked_ncomp(spec, levels,
                                  checkpoint ? "checkpoint" : "plotfile");
  WriteStats result;
  engine.run([&](exec::RankCtx& ctx) {
    WriteStats local = write_plotfile_rank(ctx, backend, spec, levels, layouts,
                                           ncomp, trace, checkpoint);
    if (ctx.rank() == 0) result = std::move(local);
  });
  return result;
}

}  // namespace

WriteStats write_plotfile(exec::Engine& engine, pfs::StorageBackend& backend,
                          const PlotfileSpec& spec,
                          const std::vector<LevelPlotData>& levels,
                          iostats::TraceRecorder* trace) {
  AMRIO_EXPECTS(!levels.empty());
  return write_on_engine(engine, backend, spec, levels, layouts_of(levels),
                         trace, /*checkpoint=*/false);
}

WriteStats write_plotfile(pfs::StorageBackend& backend, const PlotfileSpec& spec,
                          const std::vector<LevelPlotData>& levels,
                          iostats::TraceRecorder* trace) {
  AMRIO_EXPECTS(!levels.empty());
  const auto layouts = layouts_of(levels);
  exec::SerialEngine engine(engine_ranks_for(layouts));
  return write_on_engine(engine, backend, spec, levels, layouts, trace,
                         /*checkpoint=*/false);
}

WriteStats predict_plotfile(const PlotfileSpec& spec,
                            const std::vector<LevelLayout>& levels, int ncomp,
                            iostats::TraceRecorder* trace) {
  return predict_impl(spec, levels, ncomp, trace, /*checkpoint=*/false);
}

WriteStats write_checkpoint(pfs::StorageBackend& backend,
                            const PlotfileSpec& spec,
                            const std::vector<LevelPlotData>& levels,
                            iostats::TraceRecorder* trace) {
  AMRIO_EXPECTS(!levels.empty());
  const auto layouts = layouts_of(levels);
  exec::SerialEngine engine(engine_ranks_for(layouts));
  return write_on_engine(engine, backend, spec, levels, layouts, trace,
                         /*checkpoint=*/true);
}

WriteStats write_plotfile_spmd(simmpi::Comm& comm, pfs::StorageBackend& backend,
                               const PlotfileSpec& spec,
                               const std::vector<LevelPlotData>& levels,
                               iostats::TraceRecorder* trace) {
  const int ncomp = checked_ncomp(spec, levels, "plotfile");
  const auto layouts = layouts_of(levels);
  for (const auto& lay : layouts)
    AMRIO_EXPECTS_MSG(lay.dm.nranks() == comm.size(),
                      "write_plotfile_spmd: DM ranks " << lay.dm.nranks()
                                                       << " != comm size "
                                                       << comm.size());
  exec::CommCtx ctx(comm);
  return write_plotfile_rank(ctx, backend, spec, levels, layouts, ncomp, trace,
                             /*checkpoint=*/false);
}

}  // namespace amrio::plotfile
