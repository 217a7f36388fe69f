#include "plotfile/fab_io.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/assert.hpp"

namespace amrio::plotfile {

namespace {
// AMReX native real descriptor for IEEE binary64, little endian.
constexpr const char* kRealDescriptor =
    "((8, (64 11 52 0 1 12 0 1023)),(8, (8 7 6 5 4 3 2 1)))";
}

std::string fab_header(const mesh::Box& box, int ncomp) {
  AMRIO_EXPECTS(box.ok());
  AMRIO_EXPECTS(ncomp >= 1);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "FAB %s((%d,%d) (%d,%d) (0,0)) %d\n",
                kRealDescriptor, box.lo(0), box.lo(1), box.hi(0), box.hi(1),
                ncomp);
  return buf;
}

std::uint64_t fab_disk_size(const mesh::Box& box, int ncomp) {
  return fab_header(box, ncomp).size() +
         static_cast<std::uint64_t>(box.num_pts()) * ncomp * sizeof(double);
}

std::uint64_t write_fab(pfs::OutFile& out, const mesh::Fab& fab,
                        const mesh::Box& valid) {
  AMRIO_EXPECTS_MSG(fab.box().contains(valid),
                    "write_fab: valid box not contained in fab");
  const auto append = [&out](const void* p, std::size_t n) {
    out.write(std::span<const std::byte>(static_cast<const std::byte*>(p), n));
  };
  const std::string header = fab_header(valid, fab.ncomp());
  append(header.data(), header.size());
  std::uint64_t bytes = header.size();

  if (fab.box() == valid) {
    // fast path: contiguous payload
    append(fab.data().data(), fab.data().size() * sizeof(double));
    return bytes + fab.data().size() * sizeof(double);
  }
  // gather valid region row by row, component-major
  std::vector<double> row(static_cast<std::size_t>(valid.length(0)));
  for (int n = 0; n < fab.ncomp(); ++n) {
    for (int j = valid.lo(1); j <= valid.hi(1); ++j) {
      for (int i = valid.lo(0); i <= valid.hi(0); ++i)
        row[static_cast<std::size_t>(i - valid.lo(0))] = fab({i, j}, n);
      append(row.data(), row.size() * sizeof(double));
      bytes += row.size() * sizeof(double);
    }
  }
  return bytes;
}

FabHeaderInfo parse_fab_header(std::span<const std::byte> bytes,
                               std::size_t& offset) {
  // find the newline
  std::size_t end = offset;
  while (end < bytes.size() && static_cast<char>(bytes[end]) != '\n') ++end;
  if (end >= bytes.size())
    throw std::runtime_error("FAB header: no newline found");
  std::string line(reinterpret_cast<const char*>(bytes.data()) + offset,
                   end - offset);
  // the box spec follows the real descriptor: ...))((lox,loy) (hix,hiy) (0,0)) n
  const auto pos = line.rfind(")((");
  if (pos == std::string::npos || line.substr(0, 4) != "FAB ")
    throw std::runtime_error("FAB header: malformed: " + line);
  FabHeaderInfo info;
  int lox = 0;
  int loy = 0;
  int hix = 0;
  int hiy = 0;
  int ncomp = 0;
  if (std::sscanf(line.c_str() + pos, ")((%d,%d) (%d,%d) (0,0)) %d", &lox, &loy,
                  &hix, &hiy, &ncomp) != 5)
    throw std::runtime_error("FAB header: cannot parse box: " + line);
  info.box = mesh::Box(lox, loy, hix, hiy);
  info.ncomp = ncomp;
  if (!info.box.ok() || ncomp < 1)
    throw std::runtime_error("FAB header: invalid box/ncomp: " + line);
  offset = end + 1;
  return info;
}

mesh::Fab read_fab(std::span<const std::byte> bytes, std::size_t& offset) {
  const FabHeaderInfo info = parse_fab_header(bytes, offset);
  mesh::Fab fab(info.box, info.ncomp);
  const std::size_t payload = fab.data().size() * sizeof(double);
  if (offset + payload > bytes.size())
    throw std::runtime_error("FAB payload: truncated file");
  std::memcpy(fab.data().data(), bytes.data() + offset, payload);
  offset += payload;
  return fab;
}

}  // namespace amrio::plotfile
