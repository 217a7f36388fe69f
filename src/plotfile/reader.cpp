#include "plotfile/reader.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

#include "plotfile/fab_io.hpp"
#include "util/format.hpp"

namespace amrio::plotfile {

namespace {

std::string read_text(const pfs::StorageBackend& backend,
                      const std::string& path) {
  const auto bytes = backend.read(path);
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

std::string next_line(std::istringstream& in, const std::string& what) {
  std::string line;
  if (!std::getline(in, line))
    throw std::runtime_error("plotfile reader: unexpected EOF reading " + what);
  return line;
}

}  // namespace

mesh::Box parse_box(const std::string& text) {
  int lox = 0;
  int loy = 0;
  int hix = 0;
  int hiy = 0;
  if (std::sscanf(text.c_str(), "((%d,%d)-(%d,%d))", &lox, &loy, &hix, &hiy) != 4)
    throw std::runtime_error("parse_box: malformed box: " + text);
  return mesh::Box(lox, loy, hix, hiy);
}

Plotfile read_plotfile(const pfs::StorageBackend& backend,
                       const std::string& dir, bool load_data) {
  Plotfile pf;
  std::istringstream header(read_text(backend, dir + "/Header"));

  std::string magic = next_line(header, "magic");
  if (magic == "CheckPointVersion_1.0") magic = next_line(header, "magic");
  if (magic != "HyperCLaw-V1.1")
    throw std::runtime_error("plotfile reader: bad magic: " + magic);

  const int nvars = std::stoi(next_line(header, "nvars"));
  for (int i = 0; i < nvars; ++i)
    pf.var_names.push_back(next_line(header, "var name"));
  const int dim = std::stoi(next_line(header, "dim"));
  if (dim != mesh::kSpaceDim)
    throw std::runtime_error("plotfile reader: unsupported dim");
  pf.time = std::stod(next_line(header, "time"));
  pf.finest_level = std::stoi(next_line(header, "finest_level"));

  {
    const auto lo = util::split_ws(next_line(header, "prob_lo"));
    const auto hi = util::split_ws(next_line(header, "prob_hi"));
    if (lo.size() < 2 || hi.size() < 2)
      throw std::runtime_error("plotfile reader: bad prob_lo/hi");
    pf.prob_lo = {std::stod(lo[0]), std::stod(lo[1])};
    pf.prob_hi = {std::stod(hi[0]), std::stod(hi[1])};
  }
  {
    const auto toks = util::split_ws(next_line(header, "ref_ratio"));
    for (const auto& t : toks) pf.ref_ratio.push_back(std::stoi(t));
  }
  std::vector<mesh::Box> domains;
  {
    // domains are written space-separated: ((0,0)-(31,31)) ((0,0)-(63,63))
    const auto line = next_line(header, "domains");
    std::size_t pos = 0;
    while ((pos = line.find("((", pos)) != std::string::npos) {
      const auto end = line.find("))", pos);
      if (end == std::string::npos) break;
      domains.push_back(parse_box(line.substr(pos, end - pos + 2)));
      pos = end + 2;
    }
  }
  if (static_cast<int>(domains.size()) != pf.finest_level + 1)
    throw std::runtime_error("plotfile reader: domain count mismatch");
  next_line(header, "level_steps");
  for (int l = 0; l <= pf.finest_level; ++l) next_line(header, "cell sizes");
  next_line(header, "coord_sys");
  next_line(header, "bwidth");

  for (int l = 0; l <= pf.finest_level; ++l) {
    PlotfileLevelInfo lev;
    lev.geom = mesh::Geometry(domains[static_cast<std::size_t>(l)], pf.prob_lo,
                              pf.prob_hi);
    const auto head = util::split_ws(next_line(header, "level head"));
    if (head.size() < 3) throw std::runtime_error("plotfile reader: level head");
    const int ngrids = std::stoi(head[1]);
    next_line(header, "level step");
    for (int g = 0; g < ngrids; ++g)
      for (int d = 0; d < mesh::kSpaceDim; ++d) next_line(header, "grid extent");
    next_line(header, "level path");

    // ---- Cell_H
    const std::string level_dir = dir + "/Level_" + std::to_string(l);
    std::istringstream cell_h(read_text(backend, level_dir + "/Cell_H"));
    next_line(cell_h, "version");
    next_line(cell_h, "how");
    const int ncomp = std::stoi(next_line(cell_h, "ncomp"));
    if (ncomp != nvars)
      throw std::runtime_error("plotfile reader: Cell_H ncomp mismatch");
    next_line(cell_h, "nghost");
    const auto ba_head = next_line(cell_h, "boxarray head");  // "(N 0"
    const int nboxes = std::stoi(ba_head.substr(1));
    if (nboxes != ngrids)
      throw std::runtime_error("plotfile reader: grid count mismatch");
    std::vector<mesh::Box> boxes;
    for (int g = 0; g < nboxes; ++g)
      boxes.push_back(parse_box(next_line(cell_h, "box")));
    lev.ba = mesh::BoxArray(std::move(boxes));
    next_line(cell_h, "boxarray close");
    const int nfabs = std::stoi(next_line(cell_h, "nfabs"));
    if (nfabs != nboxes)
      throw std::runtime_error("plotfile reader: fab count mismatch");
    for (int g = 0; g < nfabs; ++g) {
      const auto toks = util::split_ws(next_line(cell_h, "FabOnDisk"));
      if (toks.size() != 3 || toks[0] != "FabOnDisk:")
        throw std::runtime_error("plotfile reader: bad FabOnDisk line");
      lev.fab_files.push_back(toks[1]);
      lev.fab_offsets.push_back(std::stoull(toks[2]));
    }

    if (load_data) {
      std::map<std::string, std::vector<std::byte>> cache;
      for (int g = 0; g < nfabs; ++g) {
        const std::string path = level_dir + "/" + lev.fab_files[static_cast<std::size_t>(g)];
        auto it = cache.find(path);
        if (it == cache.end()) it = cache.emplace(path, backend.read(path)).first;
        std::size_t offset = lev.fab_offsets[static_cast<std::size_t>(g)];
        mesh::Fab fab = read_fab(it->second, offset);
        if (!(fab.box() == lev.ba[static_cast<std::size_t>(g)]))
          throw std::runtime_error("plotfile reader: fab box mismatch");
        lev.fabs.push_back(std::move(fab));
      }
    }
    pf.levels.push_back(std::move(lev));
  }
  return pf;
}

}  // namespace amrio::plotfile
