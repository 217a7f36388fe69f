#pragma once
/// \file path.hpp
/// Filesystem helpers used by the POSIX storage backend and bench drivers.

#include <string>
#include <vector>

namespace amrio::util {

/// mkdir -p. Throws std::runtime_error on failure.
void make_dirs(const std::string& path);

/// Join two path fragments with exactly one '/'.
std::string path_join(const std::string& a, const std::string& b);

/// True if the path exists (any file type).
bool path_exists(const std::string& path);

/// Size of a regular file in bytes; throws if missing.
std::uint64_t file_size(const std::string& path);

/// Recursive listing of regular files under `dir`, paths relative to `dir`,
/// sorted lexicographically. Missing dir → empty list.
std::vector<std::string> list_files_recursive(const std::string& dir);

}  // namespace amrio::util
