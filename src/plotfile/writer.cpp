#include "plotfile/writer.hpp"

#include <cstdio>
#include <map>
#include <sstream>

#include "plotfile/fab_io.hpp"
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
  std::string file;       // basename within the level dir
  std::uint64_t offset = 0;
};

/// Per-level plan: which rank writes which boxes to which file, with offsets.
struct LevelPlan {
  std::vector<FabRef> fabs;                   // indexed by box index
  std::map<int, std::uint64_t> rank_bytes;    // Cell_D payload per owning rank
};

/// One `Cell_D_<rank>` file per rank that owns grids at the level, holding
/// its fabs in box order.
LevelPlan plan_level(const mesh::BoxArray& ba, const mesh::DistributionMapping& dm,
                     int ncomp) {
  LevelPlan plan;
  plan.fabs.resize(ba.size());
  for (int rank = 0; rank < dm.nranks(); ++rank) {
    const auto boxes = dm.boxes_of(rank);
    if (boxes.empty()) continue;  // no file for this task at this level
    const std::string file = "Cell_D_" + util::zero_pad(static_cast<std::uint64_t>(rank), 5);
    std::uint64_t offset = 0;
    for (std::size_t bi : boxes) {
      plan.fabs[bi] = FabRef{file, offset};
      offset += fab_disk_size(ba[bi], ncomp);
    }
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
/// rank 0, and rank 0 writes all metadata. Rank 0 returns the statistics;
/// what the other ranks return is not read.
WriteStats write_plotfile_rank(exec::RankCtx& ctx, pfs::StorageBackend& backend,
                               const PlotfileSpec& spec,
                               const std::vector<LevelPlotData>& levels,
                               const std::vector<LevelLayout>& layouts,
                               int ncomp, bool checkpoint) {
  const int rank = ctx.rank();
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
      plans.push_back(plan_level(layout.ba, layout.dm, ncomp));
  }

  // Phase 1: Cell_D data. Every rank that owns grids at a level writes its
  // own file, concurrently.
  for (std::size_t l = 0; l < layouts.size(); ++l) {
    const auto& layout = layouts[l];
    const int level_ranks = layout.dm.nranks();
    stats.rank_level_bytes[l].assign(static_cast<std::size_t>(level_ranks), 0);
    const auto my_boxes = rank < level_ranks
                              ? layout.dm.boxes_of(rank)
                              : std::vector<std::size_t>{};
    std::uint64_t written = 0;
    if (!my_boxes.empty()) {
      const std::string path =
          spec.dir + "/Level_" + std::to_string(l) + "/Cell_D_" +
          util::zero_pad(static_cast<std::uint64_t>(rank), 5);
      pfs::OutFile out(backend, path);
      const auto& mf = *levels[l].data;
      for (std::size_t bi : my_boxes)
        written += write_fab(out, mf.fab(bi), mf.valid_box(bi));
      out.close();  // surface flush errors (destructor closes quietly)
    }
    // Gather per-rank data bytes — the collective AMReX performs so the
    // metadata writer knows every FabOnDisk offset is consistent.
    const auto all_bytes = ctx.gather(written, 0);
    if (rank == 0) {
      for (int r = 0; r < level_ranks; ++r) {
        stats.rank_level_bytes[l][static_cast<std::size_t>(r)] =
            all_bytes[static_cast<std::size_t>(r)];
        stats.data_bytes += all_bytes[static_cast<std::size_t>(r)];
      }
      // cross-check the gathered totals against the deterministic plan
      const LevelPlan& plan = plans[l];
      for (const auto& [r, bytes] : plan.rank_bytes) {
        AMRIO_ENSURES(stats.rank_level_bytes[l][static_cast<std::size_t>(r)] ==
                      bytes);
      }
      stats.nfiles += plan.rank_bytes.size();
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
    {
      pfs::OutFile out(backend, spec.dir + "/job_info");
      out.write(spec.job_info);
      out.close();
    }
    stats.metadata_bytes += spec.job_info.size();
    ++stats.nfiles;
  }
  ctx.barrier();
  stats.total_bytes = stats.metadata_bytes + stats.data_bytes;
  return stats;
}

WriteStats write_on_engine(exec::Engine& engine, pfs::StorageBackend& backend,
                           const PlotfileSpec& spec,
                           const std::vector<LevelPlotData>& levels,
                           bool checkpoint) {
  AMRIO_EXPECTS(!levels.empty());
  const auto layouts = layouts_of(levels);
  const int ncomp = levels.front().data->ncomp();
  AMRIO_EXPECTS_MSG(static_cast<std::size_t>(ncomp) == spec.var_names.size(),
                    (checkpoint ? "checkpoint" : "plotfile")
                        << " var_names must match data components");
  WriteStats result;
  engine.run([&](exec::RankCtx& ctx) {
    WriteStats local = write_plotfile_rank(ctx, backend, spec, levels, layouts,
                                           ncomp, checkpoint);
    if (ctx.rank() == 0) result = std::move(local);
  });
  return result;
}

}  // namespace

WriteStats write_plotfile(exec::Engine& engine, pfs::StorageBackend& backend,
                          const PlotfileSpec& spec,
                          const std::vector<LevelPlotData>& levels) {
  return write_on_engine(engine, backend, spec, levels, /*checkpoint=*/false);
}

/// Size prediction: no backend is touched, min/max placeholders stand in for
/// field data, byte counts come from the plan.
WriteStats predict_plotfile(const PlotfileSpec& spec,
                            const std::vector<LevelLayout>& levels, int ncomp) {
  AMRIO_EXPECTS(!levels.empty());
  AMRIO_EXPECTS(ncomp >= 1);

  WriteStats stats;
  stats.rank_level_bytes.assign(levels.size(), {});

  // ---- per-level data files + Cell_H
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const auto& layout = levels[l];
    stats.rank_level_bytes[l].assign(
        static_cast<std::size_t>(layout.dm.nranks()), 0);
    const LevelPlan plan = plan_level(layout.ba, layout.dm, ncomp);
    for (const auto& [rank, written] : plan.rank_bytes) {
      stats.rank_level_bytes[l][static_cast<std::size_t>(rank)] = written;
      stats.data_bytes += written;
    }
    stats.nfiles += plan.rank_bytes.size();  // one Cell_D per owning rank

    const std::string cell_h = cell_h_text(
        layout.ba, ncomp, plan, [](std::size_t, int, bool) { return 0.0; });
    stats.metadata_bytes += cell_h.size();
    ++stats.nfiles;
  }

  // ---- top-level Header and job_info
  stats.metadata_bytes += header_text(spec, levels).size();
  ++stats.nfiles;
  stats.metadata_bytes += spec.job_info.size();
  ++stats.nfiles;

  stats.total_bytes = stats.metadata_bytes + stats.data_bytes;
  return stats;
}

WriteStats write_checkpoint(exec::Engine& engine, pfs::StorageBackend& backend,
                            const PlotfileSpec& spec,
                            const std::vector<LevelPlotData>& levels) {
  return write_on_engine(engine, backend, spec, levels, /*checkpoint=*/true);
}

}  // namespace amrio::plotfile
