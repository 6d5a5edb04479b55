#include "storage/bptree.h"

#include <algorithm>
#include <cstring>

namespace netclus {

namespace {

// All node fields are accessed through memcpy to avoid unaligned loads.
template <typename T>
T Load(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}
template <typename T>
void Store(char* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

constexpr uint16_t kLeaf = 1;
constexpr uint16_t kInternal = 2;
constexpr uint64_t kMagic = 0x4E43424254524545ULL;  // "NCBBTREE"

// Leaf layout:     [kind u16][nkeys u16][next u32][(key u64, val u64)...]
// Internal layout: [kind u16][nkeys u16][pad u32][child0 u32]
//                  [(key u64, child u32)...]
constexpr size_t kLeafHeader = 8;
constexpr size_t kLeafEntry = 16;
constexpr size_t kInternalHeader = 12;
constexpr size_t kInternalEntry = 12;

uint16_t NodeKind(const char* p) { return Load<uint16_t>(p); }
uint16_t NumKeys(const char* p) { return Load<uint16_t>(p + 2); }
void SetKind(char* p, uint16_t k) { Store<uint16_t>(p, k); }
void SetNumKeys(char* p, uint16_t n) { Store<uint16_t>(p + 2, n); }

PageId LeafNext(const char* p) { return Load<PageId>(p + 4); }
void SetLeafNext(char* p, PageId n) { Store<PageId>(p + 4, n); }

uint64_t LeafKey(const char* p, int i) {
  return Load<uint64_t>(p + kLeafHeader + i * kLeafEntry);
}
uint64_t LeafVal(const char* p, int i) {
  return Load<uint64_t>(p + kLeafHeader + i * kLeafEntry + 8);
}
void SetLeafEntry(char* p, int i, uint64_t k, uint64_t v) {
  Store<uint64_t>(p + kLeafHeader + i * kLeafEntry, k);
  Store<uint64_t>(p + kLeafHeader + i * kLeafEntry + 8, v);
}

uint64_t InternalKey(const char* p, int i) {
  return Load<uint64_t>(p + kInternalHeader + i * kInternalEntry);
}
PageId InternalChild(const char* p, int i) {
  if (i == 0) return Load<PageId>(p + 8);
  return Load<PageId>(p + kInternalHeader + (i - 1) * kInternalEntry + 8);
}
void SetInternalKey(char* p, int i, uint64_t k) {
  Store<uint64_t>(p + kInternalHeader + i * kInternalEntry, k);
}
void SetInternalChild(char* p, int i, PageId c) {
  if (i == 0) {
    Store<PageId>(p + 8, c);
  } else {
    Store<PageId>(p + kInternalHeader + (i - 1) * kInternalEntry + 8, c);
  }
}

// First child index whose subtree may contain `key`
// (= number of separator keys <= key).
int ChildIndex(const char* p, uint64_t key) {
  int lo = 0, hi = NumKeys(p);
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (InternalKey(p, mid) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// First leaf slot with key >= `key`.
int LeafLowerBound(const char* p, uint64_t key) {
  int lo = 0, hi = NumKeys(p);
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (LeafKey(p, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

BPlusTree::BPlusTree(BufferManager* bm, FileId file) : bm_(bm), file_(file) {}

// Node capacities derive from the usable page area, which leaves room
// for the page footer.
uint32_t BPlusTree::leaf_capacity() const {
  return (bm_->usable_page_size() - kLeafHeader) / kLeafEntry;
}
uint32_t BPlusTree::internal_capacity() const {
  return (bm_->usable_page_size() - kInternalHeader) / kInternalEntry;
}

Status BPlusTree::WriteMeta() {
  Result<PageHandle> meta = bm_->FetchPage(file_, 0);
  if (!meta.ok()) return meta.status();
  char* p = meta.value().data();
  Store<uint64_t>(p, kMagic);
  Store<PageId>(p + 8, root_);
  Store<uint32_t>(p + 12, height_);
  Store<uint64_t>(p + 16, count_);
  meta.value().MarkDirty();
  return Status::OK();
}

Status BPlusTree::ReadMeta() {
  Result<PageHandle> meta = bm_->FetchPage(file_, 0);
  if (!meta.ok()) return meta.status();
  const char* p = meta.value().data();
  if (Load<uint64_t>(p) != kMagic) {
    return Status::Corruption("BPlusTree: bad magic in meta page");
  }
  root_ = Load<PageId>(p + 8);
  height_ = Load<uint32_t>(p + 12);
  count_ = Load<uint64_t>(p + 16);
  return Status::OK();
}

Result<std::unique_ptr<BPlusTree>> BPlusTree::Create(BufferManager* bm,
                                                     FileId file) {
  auto tree = std::unique_ptr<BPlusTree>(new BPlusTree(bm, file));
  if (bm->usable_page_size() < 64) {
    return Status::InvalidArgument("BPlusTree: page size too small");
  }
  {
    Result<PageHandle> meta = bm->NewPage(file);
    if (!meta.ok()) return meta.status();
    if (meta.value().page_id() != 0) {
      return Status::InvalidArgument("BPlusTree::Create: file not empty");
    }
  }
  Result<PageHandle> root = bm->NewPage(file);
  if (!root.ok()) return root.status();
  SetKind(root.value().data(), kLeaf);
  SetNumKeys(root.value().data(), 0);
  SetLeafNext(root.value().data(), kInvalidPageId);
  root.value().MarkDirty();
  tree->root_ = root.value().page_id();
  tree->height_ = 1;
  tree->count_ = 0;
  NETCLUS_RETURN_IF_ERROR(tree->WriteMeta());
  return tree;
}

Result<std::unique_ptr<BPlusTree>> BPlusTree::Open(BufferManager* bm,
                                                   FileId file) {
  auto tree = std::unique_ptr<BPlusTree>(new BPlusTree(bm, file));
  NETCLUS_RETURN_IF_ERROR(tree->ReadMeta());
  return tree;
}

Result<PageHandle> BPlusTree::FindLeaf(uint64_t key) const {
  PageId node = root_;
  for (uint32_t level = 1; level < height_; ++level) {
    Result<PageHandle> h = bm_->FetchPage(file_, node);
    if (!h.ok()) return h.status();
    const char* p = h.value().data();
    if (NodeKind(p) != kInternal) {
      return Status::Corruption("BPlusTree: expected internal node");
    }
    node = InternalChild(p, ChildIndex(p, key));
  }
  Result<PageHandle> h = bm_->FetchPage(file_, node);
  if (!h.ok()) return h.status();
  if (NodeKind(h.value().data()) != kLeaf) {
    return Status::Corruption("BPlusTree: expected leaf node");
  }
  return h;
}

Result<uint64_t> BPlusTree::Get(uint64_t key) const {
  Result<PageHandle> leaf = FindLeaf(key);
  if (!leaf.ok()) return leaf.status();
  const char* p = leaf.value().data();
  int i = LeafLowerBound(p, key);
  if (i < NumKeys(p) && LeafKey(p, i) == key) return LeafVal(p, i);
  return Status::NotFound("key not in tree");
}

Result<std::pair<uint64_t, uint64_t>> BPlusTree::FloorEntry(
    uint64_t key) const {
  // Descend to the target leaf, remembering the nearest subtree to the
  // left; the floor lives there when the leaf holds no key <= `key`.
  PageId node = root_;
  PageId left_subtree = kInvalidPageId;
  for (uint32_t level = 1; level < height_; ++level) {
    Result<PageHandle> h = bm_->FetchPage(file_, node);
    if (!h.ok()) return h.status();
    const char* p = h.value().data();
    int idx = ChildIndex(p, key);
    if (idx > 0) left_subtree = InternalChild(p, idx - 1);
    node = InternalChild(p, idx);
  }
  {
    Result<PageHandle> h = bm_->FetchPage(file_, node);
    if (!h.ok()) return h.status();
    const char* p = h.value().data();
    int i = LeafLowerBound(p, key);
    if (i < NumKeys(p) && LeafKey(p, i) == key) {
      return std::make_pair(LeafKey(p, i), LeafVal(p, i));
    }
    if (i > 0) {
      return std::make_pair(LeafKey(p, i - 1), LeafVal(p, i - 1));
    }
  }
  if (left_subtree == kInvalidPageId) {
    return Status::NotFound("no key <= probe");
  }
  // Rightmost descent from the recorded left subtree.
  node = left_subtree;
  while (true) {
    Result<PageHandle> h = bm_->FetchPage(file_, node);
    if (!h.ok()) return h.status();
    const char* p = h.value().data();
    if (NodeKind(p) == kLeaf) {
      int n = NumKeys(p);
      if (n == 0) return Status::Corruption("empty non-root leaf");
      return std::make_pair(LeafKey(p, n - 1), LeafVal(p, n - 1));
    }
    node = InternalChild(p, NumKeys(p));
  }
}

Status BPlusTree::Scan(
    uint64_t lo, uint64_t hi,
    const std::function<bool(uint64_t, uint64_t)>& fn) const {
  Result<PageHandle> leaf = FindLeaf(lo);
  if (!leaf.ok()) return leaf.status();
  PageHandle h = std::move(leaf.value());
  while (true) {
    const char* p = h.data();
    int n = NumKeys(p);
    for (int i = LeafLowerBound(p, lo); i < n; ++i) {
      uint64_t k = LeafKey(p, i);
      if (k > hi) return Status::OK();
      if (!fn(k, LeafVal(p, i))) return Status::OK();
    }
    PageId next = LeafNext(p);
    if (next == kInvalidPageId) return Status::OK();
    Result<PageHandle> nh = bm_->FetchPage(file_, next);
    if (!nh.ok()) return nh.status();
    h = std::move(nh.value());
  }
}

Status BPlusTree::BulkLoad(
    const std::vector<std::pair<uint64_t, uint64_t>>& sorted) {
  if (count_ != 0) {
    return Status::InvalidArgument("BulkLoad: tree not empty");
  }
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1].first >= sorted[i].first) {
      return Status::InvalidArgument("BulkLoad: keys not strictly increasing");
    }
  }
  if (sorted.empty()) return Status::OK();

  // Level 0: packed leaves. `level` collects (first key of node, page id).
  std::vector<std::pair<uint64_t, PageId>> level;
  const uint32_t lcap = leaf_capacity();
  size_t pos = 0;
  PageHandle prev_leaf;
  while (pos < sorted.size()) {
    size_t take = std::min<size_t>(lcap, sorted.size() - pos);
    size_t remaining = sorted.size() - pos - take;
    // Keep the final leaf at >= half occupancy by leaving it more entries.
    if (remaining > 0 && remaining < lcap / 2) {
      take = sorted.size() - pos - lcap / 2;
    }
    Result<PageHandle> h = bm_->NewPage(file_);
    if (!h.ok()) return h.status();
    char* p = h.value().data();
    SetKind(p, kLeaf);
    SetLeafNext(p, kInvalidPageId);
    SetNumKeys(p, static_cast<uint16_t>(take));
    for (size_t i = 0; i < take; ++i) {
      SetLeafEntry(p, static_cast<int>(i), sorted[pos + i].first,
                   sorted[pos + i].second);
    }
    h.value().MarkDirty();
    if (prev_leaf.valid()) {
      SetLeafNext(prev_leaf.data(), h.value().page_id());
      prev_leaf.MarkDirty();
    }
    level.emplace_back(sorted[pos].first, h.value().page_id());
    prev_leaf = std::move(h.value());
    pos += take;
  }
  prev_leaf.Release();

  // Internal levels until a single root remains.
  uint32_t height = 1;
  const uint32_t icap = internal_capacity();
  while (level.size() > 1) {
    std::vector<std::pair<uint64_t, PageId>> next_level;
    size_t i = 0;
    while (i < level.size()) {
      // children per node = keys + 1; cap at icap keys.
      size_t take = std::min<size_t>(icap + 1, level.size() - i);
      size_t remaining = level.size() - i - take;
      if (remaining > 0 && remaining < icap / 2 + 1) {
        take = level.size() - i - (icap / 2 + 1);
      }
      if (take < 2 && level.size() - i >= 2) take = 2;
      Result<PageHandle> h = bm_->NewPage(file_);
      if (!h.ok()) return h.status();
      char* p = h.value().data();
      SetKind(p, kInternal);
      SetNumKeys(p, static_cast<uint16_t>(take - 1));
      SetInternalChild(p, 0, level[i].second);
      for (size_t j = 1; j < take; ++j) {
        SetInternalKey(p, static_cast<int>(j - 1), level[i + j].first);
        SetInternalChild(p, static_cast<int>(j), level[i + j].second);
      }
      h.value().MarkDirty();
      next_level.emplace_back(level[i].first, h.value().page_id());
      i += take;
    }
    level = std::move(next_level);
    ++height;
  }
  root_ = level.front().second;
  height_ = height;
  count_ = sorted.size();
  return WriteMeta();
}

namespace {
struct CheckState {
  uint64_t count = 0;
  std::vector<PageId> leaves_in_order;
};
}  // namespace

Status BPlusTree::CheckInvariants() const {
  // Recursive structural check via an explicit lambda.
  CheckState st;
  std::function<Status(PageId, uint32_t, bool, bool, uint64_t, bool, uint64_t)>
      walk = [&](PageId node, uint32_t depth, bool is_root, bool has_lo,
                 uint64_t lo, bool has_hi, uint64_t hi) -> Status {
    Result<PageHandle> h = bm_->FetchPage(file_, node);
    if (!h.ok()) return h.status();
    const char* p = h.value().data();
    int n = NumKeys(p);
    if (NodeKind(p) == kLeaf) {
      if (depth != height_) return Status::Corruption("leaf at wrong depth");
      if (!is_root && static_cast<uint32_t>(n) < leaf_capacity() / 2) {
        return Status::Corruption("leaf underflow");
      }
      for (int i = 0; i < n; ++i) {
        uint64_t k = LeafKey(p, i);
        if (i > 0 && LeafKey(p, i - 1) >= k) {
          return Status::Corruption("leaf keys not increasing");
        }
        if ((has_lo && k < lo) || (has_hi && k >= hi)) {
          return Status::Corruption("leaf key outside separator range");
        }
      }
      st.count += n;
      st.leaves_in_order.push_back(node);
      return Status::OK();
    }
    if (NodeKind(p) != kInternal) return Status::Corruption("bad node kind");
    if (!is_root && static_cast<uint32_t>(n) < internal_capacity() / 2) {
      return Status::Corruption("internal underflow");
    }
    if (is_root && n < 1) return Status::Corruption("internal root empty");
    for (int i = 0; i < n; ++i) {
      uint64_t k = InternalKey(p, i);
      if (i > 0 && InternalKey(p, i - 1) >= k) {
        return Status::Corruption("internal keys not increasing");
      }
      if ((has_lo && k < lo) || (has_hi && k >= hi)) {
        return Status::Corruption("separator outside range");
      }
    }
    for (int i = 0; i <= n; ++i) {
      bool child_has_lo = has_lo || i > 0;
      uint64_t child_lo = i > 0 ? InternalKey(p, i - 1) : lo;
      bool child_has_hi = has_hi || i < n;
      uint64_t child_hi = i < n ? InternalKey(p, i) : hi;
      NETCLUS_RETURN_IF_ERROR(walk(InternalChild(p, i), depth + 1, false,
                                   child_has_lo, child_lo, child_has_hi,
                                   child_hi));
    }
    return Status::OK();
  };
  NETCLUS_RETURN_IF_ERROR(walk(root_, 1, true, false, 0, false, 0));
  if (st.count != count_) return Status::Corruption("count mismatch");
  // Leaf chain must visit the leaves in key order.
  for (size_t i = 0; i + 1 < st.leaves_in_order.size(); ++i) {
    Result<PageHandle> h = bm_->FetchPage(file_, st.leaves_in_order[i]);
    if (!h.ok()) return h.status();
    if (LeafNext(h.value().data()) != st.leaves_in_order[i + 1]) {
      return Status::Corruption("leaf chain broken");
    }
  }
  if (!st.leaves_in_order.empty()) {
    Result<PageHandle> h = bm_->FetchPage(file_, st.leaves_in_order.back());
    if (!h.ok()) return h.status();
    if (LeafNext(h.value().data()) != kInvalidPageId) {
      return Status::Corruption("last leaf has a next pointer");
    }
  }
  return Status::OK();
}

}  // namespace netclus
