#include "pfs/backend.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/path.hpp"

namespace amrio::pfs {

std::uint64_t StorageBackend::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& path : list("")) total += size(path);
  return total;
}

std::uint64_t StorageBackend::file_count() const { return list("").size(); }

std::vector<std::byte> StorageBackend::read_range(const std::string& path,
                                                  std::uint64_t offset,
                                                  std::uint64_t length) const {
  const std::vector<std::byte> all = read(path);
  if (offset + length > all.size() || offset + length < offset)
    throw std::runtime_error("read_range: range past end of " + path);
  return std::vector<std::byte>(
      all.begin() + static_cast<std::ptrdiff_t>(offset),
      all.begin() + static_cast<std::ptrdiff_t>(offset + length));
}

// ---------------------------------------------------------------- Memory

MemoryBackend::PathShard& MemoryBackend::path_shard(
    const std::string& path) const {
  return path_shards_[std::hash<std::string>{}(path) % kPathShards];
}

FileHandle MemoryBackend::create(const std::string& path) {
  AMRIO_EXPECTS(!path.empty());
  FileRecord* rec = nullptr;
  {
    PathShard& shard = path_shard(path);
    std::lock_guard<std::mutex> lock(shard.mu);
    rec = &shard.files[path];
    // truncate semantics
    rec->bytes.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> content_lock(rec->content_mu);
    rec->contents.clear();
  }
  return handles_.put(rec);
}

FileHandle MemoryBackend::open_append(const std::string& path) {
  AMRIO_EXPECTS(!path.empty());
  FileRecord* rec = nullptr;
  {
    PathShard& shard = path_shard(path);
    std::lock_guard<std::mutex> lock(shard.mu);
    rec = &shard.files[path];  // keep existing contents
  }
  return handles_.put(rec);
}

void MemoryBackend::write(FileHandle handle, std::span<const std::byte> data) {
  FileRecord* rec = handles_.lookup(handle);
  if (rec == nullptr)
    throw std::runtime_error("MemoryBackend::write: bad handle");
  rec->bytes.fetch_add(data.size(), std::memory_order_relaxed);
  if (store_contents_) {
    std::lock_guard<std::mutex> lock(rec->content_mu);
    rec->contents.insert(rec->contents.end(), data.begin(), data.end());
  }
}

void MemoryBackend::close(FileHandle handle) {
  if (handles_.take(handle) == nullptr)
    throw std::runtime_error("MemoryBackend::close: bad handle");
}

bool MemoryBackend::exists(const std::string& path) const {
  PathShard& shard = path_shard(path);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.files.find(path) != shard.files.end();
}

std::uint64_t MemoryBackend::size(const std::string& path) const {
  PathShard& shard = path_shard(path);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.files.find(path);
  if (it == shard.files.end())
    throw std::runtime_error("MemoryBackend::size: no such file " + path);
  return it->second.bytes.load(std::memory_order_relaxed);
}

std::vector<std::string> MemoryBackend::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& shard : path_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [path, rec] : shard.files) {
      if (path.starts_with(prefix)) out.push_back(path);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::byte> MemoryBackend::read(const std::string& path) const {
  PathShard& shard = path_shard(path);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.files.find(path);
  if (it == shard.files.end())
    throw std::runtime_error("MemoryBackend::read: no such file " + path);
  if (!store_contents_ && it->second.bytes.load(std::memory_order_relaxed) > 0)
    throw std::runtime_error(
        "MemoryBackend::read: contents not retained (counting mode): " + path);
  std::lock_guard<std::mutex> content_lock(it->second.content_mu);
  return it->second.contents;
}

std::vector<std::byte> MemoryBackend::read_range(const std::string& path,
                                                 std::uint64_t offset,
                                                 std::uint64_t length) const {
  PathShard& shard = path_shard(path);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.files.find(path);
  if (it == shard.files.end())
    throw std::runtime_error("MemoryBackend::read_range: no such file " + path);
  if (!store_contents_ && it->second.bytes.load(std::memory_order_relaxed) > 0)
    throw std::runtime_error(
        "MemoryBackend::read_range: contents not retained (counting mode): " +
        path);
  std::lock_guard<std::mutex> content_lock(it->second.content_mu);
  const auto& contents = it->second.contents;
  if (offset + length > contents.size() || offset + length < offset)
    throw std::runtime_error("MemoryBackend::read_range: range past end of " +
                             path);
  return std::vector<std::byte>(
      contents.begin() + static_cast<std::ptrdiff_t>(offset),
      contents.begin() + static_cast<std::ptrdiff_t>(offset + length));
}

std::uint64_t MemoryBackend::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : path_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [path, rec] : shard.files)
      total += rec.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t MemoryBackend::file_count() const {
  std::uint64_t count = 0;
  for (const auto& shard : path_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    count += shard.files.size();
  }
  return count;
}

// ----------------------------------------------------------------- Posix

PosixBackend::PosixBackend(std::string root) : root_(std::move(root)) {
  util::make_dirs(root_);
}

PosixBackend::~PosixBackend() {
  handles_.for_each_open([](OpenFile* f) {
    std::fclose(f->file);  // cannot throw from a destructor; best effort
    delete f;
  });
}

std::string PosixBackend::full_path(const std::string& path) const {
  return util::path_join(root_, path);
}

namespace {
std::FILE* open_for(const std::string& full, const char* mode) {
  if (const auto slash = full.rfind('/'); slash != std::string::npos)
    util::make_dirs(full.substr(0, slash));
  return std::fopen(full.c_str(), mode);
}
}  // namespace

FileHandle PosixBackend::register_open(std::FILE* f) {
  auto open_file = std::make_unique<OpenFile>(OpenFile{f});
  try {
    const FileHandle h = handles_.put(open_file.get());
    open_file.release();  // now owned by the handle table until close()
    return h;
  } catch (...) {
    std::fclose(f);  // handle space exhausted: don't leak the FILE*
    throw;
  }
}

FileHandle PosixBackend::create(const std::string& path) {
  AMRIO_EXPECTS(!path.empty());
  const std::string full = full_path(path);
  std::FILE* f = open_for(full, "wb");
  if (f == nullptr)
    throw std::runtime_error("PosixBackend: cannot create " + full);
  return register_open(f);
}

FileHandle PosixBackend::open_append(const std::string& path) {
  AMRIO_EXPECTS(!path.empty());
  const std::string full = full_path(path);
  std::FILE* f = open_for(full, "ab");
  if (f == nullptr)
    throw std::runtime_error("PosixBackend: cannot append " + full);
  return register_open(f);
}

void PosixBackend::write(FileHandle handle, std::span<const std::byte> data) {
  OpenFile* f = handles_.lookup(handle);
  if (f == nullptr)
    throw std::runtime_error("PosixBackend::write: bad handle");
  if (!data.empty() &&
      std::fwrite(data.data(), 1, data.size(), f->file) != data.size())
    throw std::runtime_error("PosixBackend::write: short write");
}

void PosixBackend::close(FileHandle handle) {
  OpenFile* f = handles_.take(handle);
  if (f == nullptr)
    throw std::runtime_error("PosixBackend::close: bad handle");
  const int rc = std::fclose(f->file);
  delete f;
  // fclose flushes stdio-buffered data; a failure here means earlier writes
  // silently never reached disk (e.g. ENOSPC) — surface it.
  if (rc != 0)
    throw std::runtime_error("PosixBackend::close: flush failed");
}

bool PosixBackend::exists(const std::string& path) const {
  return util::path_exists(full_path(path));
}

std::uint64_t PosixBackend::size(const std::string& path) const {
  return util::file_size(full_path(path));
}

std::vector<std::string> PosixBackend::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (auto& rel : util::list_files_recursive(root_)) {
    if (rel.starts_with(prefix)) out.push_back(rel);
  }
  return out;
}

std::vector<std::byte> PosixBackend::read(const std::string& path) const {
  const std::string full = full_path(path);
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(full.c_str(), "rb"), &std::fclose);
  if (!f) throw std::runtime_error("PosixBackend::read: cannot open " + full);
  std::vector<std::byte> out;
  std::byte buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0)
    out.insert(out.end(), buf, buf + n);
  return out;
}

std::vector<std::byte> PosixBackend::read_range(const std::string& path,
                                                std::uint64_t offset,
                                                std::uint64_t length) const {
  const std::string full = full_path(path);
  if (offset + length > util::file_size(full) || offset + length < offset)
    throw std::runtime_error("PosixBackend::read_range: range past end of " +
                             full);
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(full.c_str(), "rb"), &std::fclose);
  if (!f)
    throw std::runtime_error("PosixBackend::read_range: cannot open " + full);
  // fseeko, not fseek: a long offset truncates past 2 GiB where long is
  // 32 bits, silently seeking the wrong bytes of a large shared dump file
  if (fseeko(f.get(), static_cast<off_t>(offset), SEEK_SET) != 0)
    throw std::runtime_error("PosixBackend::read_range: cannot seek in " +
                             full);
  std::vector<std::byte> out(length);
  if (std::fread(out.data(), 1, length, f.get()) != length)
    throw std::runtime_error("PosixBackend::read_range: short read from " +
                             full);
  return out;
}

}  // namespace amrio::pfs
