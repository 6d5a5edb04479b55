// Paged B+-tree with fixed-width uint64 keys and values.
//
// The paper's storage architecture (Section 4.1) indexes the adjacency-list
// flat file by node id and the points flat file by the first point id of
// each point group, both with sparse B+-trees. Both files are static, so a
// tree is bulk-loaded once and then only read. FloorEntry() implements the
// "sparse" lookup: the greatest indexed key <= the probe (e.g., point id ->
// containing point group).
#ifndef NETCLUS_STORAGE_BPTREE_H_
#define NETCLUS_STORAGE_BPTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/buffer_manager.h"

namespace netclus {

/// \brief Disk-resident B+-tree mapping uint64 -> uint64.
///
/// All nodes live in a dedicated PagedFile accessed through a
/// BufferManager; page 0 is a metadata page holding the root pointer,
/// height and entry count. The tree is built once by BulkLoad and read
/// thereafter; there is no insert or delete path.
class BPlusTree {
 public:
  /// Initializes a fresh tree in `file`, which must be empty.
  static Result<std::unique_ptr<BPlusTree>> Create(BufferManager* bm,
                                                   FileId file);

  /// Opens a tree previously created in `file`.
  static Result<std::unique_ptr<BPlusTree>> Open(BufferManager* bm,
                                                 FileId file);

  /// Returns the value for `key`, or NotFound.
  Result<uint64_t> Get(uint64_t key) const;

  /// Returns the entry with the greatest key <= `key`, or NotFound when
  /// every key in the tree is greater than `key`.
  Result<std::pair<uint64_t, uint64_t>> FloorEntry(uint64_t key) const;

  /// Calls `fn(key, value)` for each entry with lo <= key <= hi in key
  /// order; stops early when `fn` returns false.
  Status Scan(uint64_t lo, uint64_t hi,
              const std::function<bool(uint64_t, uint64_t)>& fn) const;

  /// Builds the tree from `sorted` (strictly increasing keys). The tree
  /// must be empty. Leaves are packed to ~100% occupancy.
  Status BulkLoad(const std::vector<std::pair<uint64_t, uint64_t>>& sorted);

  uint64_t size() const { return count_; }
  uint32_t height() const { return height_; }

  /// Verifies structural invariants (ordering, occupancy, leaf chain);
  /// used by tests.
  Status CheckInvariants() const;

 private:
  BPlusTree(BufferManager* bm, FileId file);

  Status WriteMeta();
  Status ReadMeta();

  // Descends to the leaf that may contain `key`; returns a pinned handle.
  Result<PageHandle> FindLeaf(uint64_t key) const;

  uint32_t leaf_capacity() const;
  uint32_t internal_capacity() const;

  BufferManager* bm_;
  FileId file_;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 0;  // 1 = root is a leaf
  uint64_t count_ = 0;
};

}  // namespace netclus

#endif  // NETCLUS_STORAGE_BPTREE_H_
