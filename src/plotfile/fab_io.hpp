#pragma once
/// \file fab_io.hpp
/// Serialization of a single FAB in the AMReX native on-disk format: an ASCII
/// header line
///
///   FAB ((8, (64 11 52 0 1 12 0 1023)),(8, (8 7 6 5 4 3 2 1)))((lo_x,lo_y) (hi_x,hi_y) (0,0)) ncomp
///
/// followed by the raw little-endian doubles, component-major. The magic
/// tuples describe IEEE-754 binary64 exactly as AMReX's RealDescriptor does.

#include <cstdint>
#include <span>
#include <string>

#include "mesh/fab.hpp"
#include "pfs/backend.hpp"

namespace amrio::plotfile {

/// The FAB header line (without data) for a fab covering `box` with `ncomp`
/// components. Ends with '\n'.
std::string fab_header(const mesh::Box& box, int ncomp);

/// Exact serialized size of a fab: header + payload bytes.
std::uint64_t fab_disk_size(const mesh::Box& box, int ncomp);

/// Append one fab (valid region only) to an open backend file.
/// Returns bytes written.
std::uint64_t write_fab(pfs::OutFile& out, const mesh::Fab& fab,
                        const mesh::Box& valid);

/// Parse a FAB header line; returns {box, ncomp} and advances `offset` past
/// the newline. Throws std::runtime_error on malformed headers.
struct FabHeaderInfo {
  mesh::Box box;
  int ncomp = 0;
};
FabHeaderInfo parse_fab_header(std::span<const std::byte> bytes,
                               std::size_t& offset);

/// Read one fab starting at `offset` (header + payload); advances offset.
mesh::Fab read_fab(std::span<const std::byte> bytes, std::size_t& offset);

}  // namespace amrio::plotfile
