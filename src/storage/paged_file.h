// Page-granular file abstraction with I/O accounting.
//
// The paper (Section 4.1, 5) stores the network adjacency lists and the
// point groups in flat files of 4 KiB pages accessed through a 1 MiB
// memory buffer. PagedFile is the bottom layer: it reads and writes whole
// pages and counts every physical access, so experiments can report
// hardware-independent I/O counts.
//
// PagedFile is an abstract interface. Two implementations live here: a
// POSIX file on disk and an anonymous in-memory store (tests and benches
// that only care about I/O counts). The tests add a third,
// FaultInjectionFile (tests/support/fault_injection.h), a decorator that
// injects deterministic faults for robustness testing. All share the
// bounds checks and counters of the non-virtual public methods.
#ifndef NETCLUS_STORAGE_PAGED_FILE_H_
#define NETCLUS_STORAGE_PAGED_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace netclus {

/// Identifier of a page within a PagedFile.
using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = UINT32_MAX;

/// Physical I/O counters for one PagedFile.
struct FileIoStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t pages_allocated = 0;
  // Operations that returned a non-OK status (still counted above when the
  // backend partially executed them). Transient faults the BufferManager
  // later retries successfully also show up here.
  uint64_t failed_reads = 0;
  uint64_t failed_writes = 0;
};

/// \brief A growable sequence of fixed-size pages.
class PagedFile {
 public:
  /// Creates an anonymous in-memory paged file.
  static std::unique_ptr<PagedFile> CreateInMemory(uint32_t page_size);

  /// Opens (or creates) a paged file backed by `path`. When `truncate` is
  /// true any existing content is discarded. The existing file size must be
  /// a multiple of `page_size`.
  static Result<std::unique_ptr<PagedFile>> Open(const std::string& path,
                                                 uint32_t page_size,
                                                 bool truncate);

  virtual ~PagedFile() = default;

  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;

  uint32_t page_size() const { return page_size_; }
  PageId num_pages() const { return num_pages_; }

  /// Appends a zeroed page and returns its id.
  Result<PageId> AllocatePage();

  /// Reads page `id` into `out` (page_size() bytes).
  Status ReadPage(PageId id, char* out);

  /// Overwrites page `id` with `data` (page_size() bytes).
  Status WritePage(PageId id, const char* data);

  /// Shrinks the file to exactly `new_num_pages` pages, discarding the
  /// tail. Growing is not a truncate — use AllocatePage. Backends that
  /// cannot shrink return kInternal and leave the file untouched (the
  /// WAL's compaction then simply skips this cycle).
  Status Truncate(PageId new_num_pages);

  const FileIoStats& stats() const { return stats_; }
  void ResetStats() { stats_ = FileIoStats{}; }

 protected:
  explicit PagedFile(uint32_t page_size) : page_size_(page_size) {}

  // Backend hooks; `id` is already bounds-checked by the public wrappers
  // and counters are maintained there.
  virtual Status DoAllocate(PageId id) = 0;
  virtual Status DoRead(PageId id, char* out) = 0;
  virtual Status DoWrite(PageId id, const char* data) = 0;
  virtual Status DoTruncate(PageId new_num_pages);

  uint32_t page_size_;
  PageId num_pages_ = 0;
  FileIoStats stats_;
};

}  // namespace netclus

#endif  // NETCLUS_STORAGE_PAGED_FILE_H_
