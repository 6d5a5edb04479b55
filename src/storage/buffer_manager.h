// LRU buffer pool over one or more PagedFiles.
//
// Reproduces the paper's experimental setting (Section 5): a fixed memory
// buffer (1 MiB by default) of 4 KiB pages in front of the adjacency-list
// and points files. Hit/miss/eviction counters expose the logical vs.
// physical I/O split that the paper's cost discussion relies on.
//
// The pool is also the integrity boundary of the storage stack:
//  - Every registered file carries a per-page CRC32C footer
//    (kPageFooterBytes at the end of every page, covering the payload and
//    the page id). The footer is written on write-back and verified on
//    every physical read; a mismatch surfaces as Status::Corruption
//    naming the page and file offset. Callers must pack records into
//    usable_page_size() bytes, not page_size().
//  - Transient read errors (Status::Unavailable, e.g. short reads or
//    injected faults) are retried with bounded exponential backoff per
//    RetryPolicy; the sleep hook is injectable so tests run instantly.
#ifndef NETCLUS_STORAGE_BUFFER_MANAGER_H_
#define NETCLUS_STORAGE_BUFFER_MANAGER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/paged_file.h"

namespace netclus {

class BufferManager;

/// Index of a file registered with a BufferManager.
using FileId = uint32_t;

/// Buffer pool counters.
struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  // Robustness counters.
  uint64_t read_retries = 0;       ///< re-reads after a transient error
  uint64_t retries_exhausted = 0;  ///< reads that failed every attempt
  uint64_t checksum_failures = 0;  ///< physical reads rejected by the CRC

  uint64_t logical_accesses() const { return hits + misses; }
};

/// How physical reads that return Status::Unavailable are retried.
struct RetryPolicy {
  uint32_t max_retries = 3;         ///< retries after the first attempt
  uint64_t backoff_micros = 100;    ///< sleep before the first retry
  double backoff_multiplier = 2.0;  ///< growth factor per retry
};

/// \brief RAII pin on a buffered page.
///
/// While a handle is alive the frame stays in memory and its pointer stays
/// valid. Destroying (or moving from) the handle unpins the frame. Call
/// MarkDirty() after mutating data().
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  ~PageHandle() { Release(); }

  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return bm_ != nullptr; }
  char* data() const { return data_; }
  PageId page_id() const { return page_id_; }

  /// Marks the page dirty; it will be written back before eviction/flush.
  void MarkDirty();

  /// Explicitly unpins the page (also done by the destructor).
  void Release();

 private:
  friend class BufferManager;
  PageHandle(BufferManager* bm, size_t frame, char* data, PageId page)
      : bm_(bm), frame_(frame), data_(data), page_id_(page) {}

  BufferManager* bm_ = nullptr;
  size_t frame_ = 0;
  char* data_ = nullptr;
  PageId page_id_ = kInvalidPageId;
};

/// \brief Fixed-capacity LRU buffer pool.
///
/// All registered files must share the pool's page size. Not thread-safe
/// (the clustering algorithms are single-threaded, as in the paper).
class BufferManager {
 public:
  /// Bytes of every page reserved for the integrity footer:
  /// [crc32c u32][page id u32].
  static constexpr uint32_t kPageFooterBytes = 8;

  /// A pool of `pool_bytes / page_size` frames.
  BufferManager(uint64_t pool_bytes, uint32_t page_size);
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Registers `file` (not owned; must outlive the manager) and returns its
  /// FileId for use with FetchPage/NewPage. The pool maintains and
  /// verifies the per-page CRC32C footer; callers own only the first
  /// usable_page_size() bytes of each page.
  FileId RegisterFile(PagedFile* file);

  /// Bytes of a page available to callers: the page size minus the
  /// footer.
  uint32_t usable_page_size() const { return page_size_ - kPageFooterBytes; }

  /// Pins page (`file`, `page`), reading it from disk on a miss.
  Result<PageHandle> FetchPage(FileId file, PageId page);

  /// Allocates a fresh zeroed page in `file` and pins it.
  Result<PageHandle> NewPage(FileId file);

  /// Writes back all dirty frames (pages stay cached).
  Status FlushAll();

  /// Replaces the transient-read retry policy (defaults: 3 retries,
  /// 100 us first backoff, doubling).
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Replaces the backoff sleep hook (micros -> void). Tests inject a
  /// recording no-op clock; the default really sleeps.
  void set_sleep_function(std::function<void(uint64_t)> sleep_micros) {
    sleep_micros_ = std::move(sleep_micros);
  }

  uint32_t page_size() const { return page_size_; }
  const BufferStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferStats{}; }

  /// Number of currently pinned frames (for tests).
  size_t pinned_frames() const;

 private:
  friend class PageHandle;

  struct Frame {
    FileId file = 0;
    PageId page = kInvalidPageId;
    uint32_t pins = 0;
    bool dirty = false;
    bool in_use = false;
    bool in_lru = false;
    std::list<size_t>::iterator lru_it;
    std::unique_ptr<char[]> data;
  };

  static uint64_t Key(FileId file, PageId page) {
    return (static_cast<uint64_t>(file) << 32) | page;
  }

  void Unpin(size_t frame, bool dirty);
  // Physical read with transient-error retries and checksum verification.
  Status ReadPageChecked(FileId file, PageId page, char* out);
  // Physical write; stamps the checksum footer first when applicable.
  Status WritePageChecked(FileId file, PageId page, char* data);
  // Finds a frame for a new page: free list first, then LRU eviction.
  Result<size_t> GrabFrame();
  Result<PageHandle> InstallPage(FileId file, PageId page, bool read_from_disk);

  uint32_t page_size_;
  std::vector<Frame> frames_;
  std::vector<size_t> free_frames_;
  std::list<size_t> lru_;  // front = least recently used unpinned frame
  std::unordered_map<uint64_t, size_t> page_table_;
  std::vector<PagedFile*> files_;
  RetryPolicy retry_policy_;
  std::function<void(uint64_t)> sleep_micros_;  // empty = real sleep
  BufferStats stats_;
};

}  // namespace netclus

#endif  // NETCLUS_STORAGE_BUFFER_MANAGER_H_
