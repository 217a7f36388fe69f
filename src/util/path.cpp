#include "util/path.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <stdexcept>

namespace fs = std::filesystem;

namespace amrio::util {

void make_dirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) throw std::runtime_error("make_dirs(" + path + "): " + ec.message());
}

std::string path_join(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  if (a.back() == '/') return a + (b.front() == '/' ? b.substr(1) : b);
  return a + (b.front() == '/' ? b : "/" + b);
}

bool path_exists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) throw std::runtime_error("file_size(" + path + "): " + ec.message());
  return static_cast<std::uint64_t>(size);
}

std::vector<std::string> list_files_recursive(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return out;
  const fs::path base(dir);
  for (auto it = fs::recursive_directory_iterator(base, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) throw std::runtime_error("list_files_recursive: " + ec.message());
    if (it->is_regular_file()) {
      out.push_back(fs::relative(it->path(), base).generic_string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace amrio::util
