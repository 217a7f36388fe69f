#pragma once
/// \file backend.hpp
/// Storage backends. All plotfile/MACSio output flows through this interface
/// so the same writer code can target a real directory tree (PosixBackend) or
/// a byte-exact in-memory accounting store (MemoryBackend). The paper's
/// largest runs (8192² and beyond) are reproduced against the memory backend:
/// the byte counts are identical, nothing hits disk.
///
/// Paths are logical, '/'-separated, relative to the backend root. Backends
/// are thread-safe and designed to be contention-free on the write hot path:
/// rank threads dumping N files concurrently (the paper's N-to-N pattern)
/// never serialize on a shared lock. `MemoryBackend` shards its path table by
/// path hash and its open-handle table by handle id, and file byte counters
/// are atomics; `PosixBackend` gets the same handle-sharded treatment, with
/// writes going straight to the handle's own `FILE*`.

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace amrio::pfs {

using FileHandle = std::uint64_t;

namespace detail {

/// Lock-free open-handle registry: a segmented slot array addressed directly
/// by handle id. `lookup` (the per-write hot path) is two atomic loads — no
/// mutex, no hashing, no shared cache line between handles. Registration
/// allocates segments lazily under a small mutex (open/close are not hot);
/// slots are never recycled, so a stale handle reliably reads as closed.
template <typename T>
class HandleTable {
 public:
  static constexpr std::size_t kBlockBits = 10;
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockBits;
  static constexpr std::size_t kMaxBlocks = 8192;  // ~8.4M handles

  HandleTable() {
    for (auto& b : blocks_) b.store(nullptr, std::memory_order_relaxed);
  }
  ~HandleTable() {
    for (auto& b : blocks_) delete[] b.load(std::memory_order_relaxed);
  }
  HandleTable(const HandleTable&) = delete;
  HandleTable& operator=(const HandleTable&) = delete;

  /// Register `value` and return its handle. Throws when the handle space is
  /// exhausted (2^23 opens per backend lifetime).
  FileHandle put(T* value) {
    const FileHandle h = next_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t block = h >> kBlockBits;
    if (block >= kMaxBlocks)
      throw std::runtime_error("HandleTable: handle space exhausted");
    std::atomic<T*>* slots = blocks_[block].load(std::memory_order_acquire);
    if (slots == nullptr) {
      std::lock_guard<std::mutex> lock(grow_mu_);
      slots = blocks_[block].load(std::memory_order_acquire);
      if (slots == nullptr) {
        slots = new std::atomic<T*>[kBlockSize];
        for (std::size_t i = 0; i < kBlockSize; ++i)
          slots[i].store(nullptr, std::memory_order_relaxed);
        blocks_[block].store(slots, std::memory_order_release);
      }
    }
    slots[h & (kBlockSize - 1)].store(value, std::memory_order_release);
    return h;
  }

  /// nullptr when the handle was never issued or is already closed.
  T* lookup(FileHandle h) const {
    const std::size_t block = h >> kBlockBits;
    if (block >= kMaxBlocks) return nullptr;
    std::atomic<T*>* slots = blocks_[block].load(std::memory_order_acquire);
    if (slots == nullptr) return nullptr;
    return slots[h & (kBlockSize - 1)].load(std::memory_order_acquire);
  }

  /// Close a handle: returns the stored value, or nullptr if invalid/closed.
  T* take(FileHandle h) {
    const std::size_t block = h >> kBlockBits;
    if (block >= kMaxBlocks) return nullptr;
    std::atomic<T*>* slots = blocks_[block].load(std::memory_order_acquire);
    if (slots == nullptr) return nullptr;
    return slots[h & (kBlockSize - 1)].exchange(nullptr,
                                                std::memory_order_acq_rel);
  }

  /// Visit every still-open value (destruction-time cleanup; not
  /// thread-safe against concurrent writers).
  template <typename Fn>
  void for_each_open(Fn&& fn) {
    for (auto& b : blocks_) {
      std::atomic<T*>* slots = b.load(std::memory_order_relaxed);
      if (slots == nullptr) continue;
      for (std::size_t i = 0; i < kBlockSize; ++i) {
        if (T* v = slots[i].exchange(nullptr, std::memory_order_relaxed))
          fn(v);
      }
    }
  }

 private:
  std::array<std::atomic<std::atomic<T*>*>, kMaxBlocks> blocks_;
  std::mutex grow_mu_;
  std::atomic<FileHandle> next_{1};
};

}  // namespace detail

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Create/truncate a file for writing. Parent "directories" are implicit.
  virtual FileHandle create(const std::string& path) = 0;
  /// Open for append (create when missing) — MIF groups and SIF shared files
  /// need multiple sequential writers per file.
  virtual FileHandle open_append(const std::string& path) = 0;
  virtual void write(FileHandle handle, std::span<const std::byte> data) = 0;
  virtual void close(FileHandle handle) = 0;

  virtual bool exists(const std::string& path) const = 0;
  /// Size of a closed or in-progress file. Throws std::runtime_error if absent.
  virtual std::uint64_t size(const std::string& path) const = 0;
  /// All file paths starting with `prefix`, sorted. Empty prefix = everything.
  virtual std::vector<std::string> list(const std::string& prefix) const = 0;
  /// Full contents. Throws std::runtime_error when absent or (for the memory
  /// backend in counting mode) when contents were not retained.
  virtual std::vector<std::byte> read(const std::string& path) const = 0;
  /// Contents of [offset, offset + length). The default reads the whole file
  /// and slices; MemoryBackend/PosixBackend override with real ranged reads
  /// so a restart rank slicing its own byte range out of a shared dump file
  /// does not materialize the entire file. Throws std::runtime_error when
  /// the range exceeds the file (and whenever `read` would throw).
  virtual std::vector<std::byte> read_range(const std::string& path,
                                            std::uint64_t offset,
                                            std::uint64_t length) const;

  /// Total bytes across all files (accounting convenience).
  virtual std::uint64_t total_bytes() const;
  /// Number of files.
  virtual std::uint64_t file_count() const;

  /// Whether `read` returns real file contents. False for accounting-only
  /// stores (MemoryBackend counting mode) — readers that can degrade (the
  /// restart path replays exact sizes as zero bytes) probe this instead of
  /// catching the read error.
  virtual bool stores_contents() const { return true; }
};

/// In-memory backend. With `store_contents=false` it keeps only byte counts
/// ("counting mode") so arbitrarily large dumps cost O(#files) memory.
///
/// Concurrency: the path table is split into `kPathShards` independently
/// locked shards (path-hash addressed); the open-handle table is a lock-free
/// `detail::HandleTable`, so the per-write hot path is two atomic loads plus
/// atomic counter bumps — no lock at all. Content appends (store mode) take
/// a per-file mutex only.
class MemoryBackend final : public StorageBackend {
 public:
  explicit MemoryBackend(bool store_contents = true)
      : store_contents_(store_contents) {}

  FileHandle create(const std::string& path) override;
  FileHandle open_append(const std::string& path) override;
  void write(FileHandle handle, std::span<const std::byte> data) override;
  void close(FileHandle handle) override;

  bool exists(const std::string& path) const override;
  std::uint64_t size(const std::string& path) const override;
  std::vector<std::string> list(const std::string& prefix) const override;
  std::vector<std::byte> read(const std::string& path) const override;
  std::vector<std::byte> read_range(const std::string& path,
                                    std::uint64_t offset,
                                    std::uint64_t length) const override;

  std::uint64_t total_bytes() const override;
  std::uint64_t file_count() const override;

  bool stores_contents() const override { return store_contents_; }

 private:
  static constexpr std::size_t kPathShards = 64;

  /// Lives in a std::map node — address-stable, so open handles hold a direct
  /// pointer and writes never re-walk the path table.
  struct FileRecord {
    std::atomic<std::uint64_t> bytes{0};
    mutable std::mutex content_mu;
    std::vector<std::byte> contents;
  };
  struct PathShard {
    mutable std::mutex mu;
    std::map<std::string, FileRecord> files;
  };

  PathShard& path_shard(const std::string& path) const;

  bool store_contents_;
  mutable std::array<PathShard, kPathShards> path_shards_;
  detail::HandleTable<FileRecord> handles_;
};

/// Real-filesystem backend rooted at `root` (created if missing). Open
/// handles live in the same lock-free HandleTable; writes go to the handle's
/// own FILE* without touching any backend-wide state.
class PosixBackend final : public StorageBackend {
 public:
  explicit PosixBackend(std::string root);
  ~PosixBackend() override;

  FileHandle create(const std::string& path) override;
  FileHandle open_append(const std::string& path) override;
  void write(FileHandle handle, std::span<const std::byte> data) override;
  void close(FileHandle handle) override;

  bool exists(const std::string& path) const override;
  std::uint64_t size(const std::string& path) const override;
  std::vector<std::string> list(const std::string& prefix) const override;
  std::vector<std::byte> read(const std::string& path) const override;
  std::vector<std::byte> read_range(const std::string& path,
                                    std::uint64_t offset,
                                    std::uint64_t length) const override;

  const std::string& root() const { return root_; }

 private:
  struct OpenFile {
    std::FILE* file = nullptr;
  };

  std::string full_path(const std::string& path) const;
  FileHandle register_open(std::FILE* f);

  std::string root_;
  detail::HandleTable<OpenFile> handles_;
};

enum class OpenMode { kTruncate, kAppend };

/// RAII writer over a backend file; closes on destruction. Movable: the
/// moved-from object is left closed with zero bytes written, so destroying,
/// closing or re-assigning it is always safe.
class OutFile {
 public:
  OutFile(StorageBackend& backend, const std::string& path,
          OpenMode mode = OpenMode::kTruncate)
      : backend_(&backend),
        handle_(mode == OpenMode::kTruncate ? backend.create(path)
                                            : backend.open_append(path)) {}
  ~OutFile() { close_quietly(); }
  OutFile(const OutFile&) = delete;
  OutFile& operator=(const OutFile&) = delete;
  OutFile(OutFile&& other) noexcept
      : backend_(other.backend_), handle_(other.handle_),
        written_(other.written_), open_(other.open_) {
    other.reset_moved_from();
  }
  OutFile& operator=(OutFile&& other) noexcept {
    if (this != &other) {
      close_quietly();
      backend_ = other.backend_;
      handle_ = other.handle_;
      written_ = other.written_;
      open_ = other.open_;
      other.reset_moved_from();
    }
    return *this;
  }

  void write(std::span<const std::byte> data) {
    backend_->write(handle_, data);
    written_ += data.size();
  }
  void write(std::string_view text) {
    write(std::as_bytes(std::span<const char>(text.data(), text.size())));
  }
  /// Close, surfacing backend flush errors (e.g. PosixBackend's fclose
  /// failing on a full disk). The destructor and move-assignment close
  /// quietly instead — call this explicitly where errors must be observed.
  void close() {
    if (open_) {
      open_ = false;
      backend_->close(handle_);
    }
  }
  std::uint64_t bytes_written() const { return written_; }

 private:
  void close_quietly() noexcept {
    if (!open_) return;
    open_ = false;
    try {
      backend_->close(handle_);
    } catch (...) {
      // noexcept contexts must not throw; use close() to observe errors
    }
  }

  void reset_moved_from() {
    open_ = false;
    written_ = 0;
  }

  StorageBackend* backend_;
  FileHandle handle_;
  std::uint64_t written_ = 0;
  bool open_ = true;
};

}  // namespace amrio::pfs
