#include "graph/network_store.h"

#include <array>
#include <algorithm>
#include <cstring>
#include <queue>

#include "common/random.h"

namespace netclus {

namespace {

template <typename T>
T Load(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}
template <typename T>
void Store_(char* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

constexpr uint64_t kAdjMagic = 0x4E43414A464C4154ULL;  // "NCAJFLAT"
constexpr uint64_t kPtsMagic = 0x4E435054464C4154ULL;  // "NCPTFLAT"
constexpr size_t kPageHeader = 2;                       // used bytes u16

// On-disk format version written by Build() and the only one Open()
// reads: every page carries the CRC32C footer.
constexpr uint32_t kFormatVersion = 2;
// Version field offsets within the two header pages.
constexpr size_t kAdjVersionOffset = 16;
constexpr size_t kPtsVersionOffset = 12;

uint64_t MakeAddr(PageId page, uint32_t offset) {
  return (static_cast<uint64_t>(page) << 32) | offset;
}
PageId AddrPage(uint64_t addr) { return static_cast<PageId>(addr >> 32); }
uint32_t AddrOffset(uint64_t addr) {
  return static_cast<uint32_t>(addr & 0xFFFFFFFFULL);
}

// Validates that flat-file record bytes [offset, offset + len) lie within
// the used region of the fetched page. Catches garbage addresses/lengths
// that pass the page checksum (a record written wrong, not a flipped
// byte) before they cause out-of-bounds reads; the Status names the page
// and file offset.
Status ValidateRecordBounds(const PageHandle& h, uint32_t usable,
                            uint32_t page_size, uint32_t offset, uint64_t len,
                            const char* what) {
  uint64_t used = Load<uint16_t>(h.data());
  if (used >= kPageHeader && used <= usable && offset >= kPageHeader &&
      offset + len <= used) {
    return Status::OK();
  }
  return Status::Corruption(
      std::string(what) + ": record out of page bounds: page " +
      std::to_string(h.page_id()) + ", offset " + std::to_string(offset) +
      " (file offset " +
      std::to_string(static_cast<uint64_t>(h.page_id()) * page_size + offset) +
      ")");
}

// Sequentially appends variable-length records to a flat file, packing
// them into pages. Records never span pages.
class FlatWriter {
 public:
  FlatWriter(BufferManager* bm, FileId file, uint32_t page_size)
      : bm_(bm), file_(file), page_size_(page_size) {}

  Result<uint64_t> Append(const char* data, size_t len) {
    if (len + kPageHeader > page_size_) {
      return Status::InvalidArgument("flat record larger than a page");
    }
    if (!page_.valid() || used_ + len > page_size_) {
      NETCLUS_RETURN_IF_ERROR(CloseCurrent());
      Result<PageHandle> h = bm_->NewPage(file_);
      if (!h.ok()) return h.status();
      page_ = std::move(h.value());
      used_ = kPageHeader;
    }
    std::memcpy(page_.data() + used_, data, len);
    uint64_t addr = MakeAddr(page_.page_id(), used_);
    used_ += static_cast<uint32_t>(len);
    page_.MarkDirty();
    return addr;
  }

  Status CloseCurrent() {
    if (page_.valid()) {
      Store_<uint16_t>(page_.data(), static_cast<uint16_t>(used_));
      page_.MarkDirty();
      page_.Release();
    }
    return Status::OK();
  }

 private:
  BufferManager* bm_;
  FileId file_;
  uint32_t page_size_;
  PageHandle page_;
  uint32_t used_ = 0;
};

// Adjacency record encoding: [degree u32] + degree * [node u32][group u32]
// [weight f64].
constexpr size_t kAdjEntryBytes = 16;

std::vector<char> EncodeAdjRecord(
    const std::vector<std::pair<NodeId, double>>& neighbors,
    const std::function<PointId(NodeId)>& group_of_neighbor) {
  std::vector<char> rec(4 + neighbors.size() * kAdjEntryBytes);
  Store_<uint32_t>(rec.data(), static_cast<uint32_t>(neighbors.size()));
  char* p = rec.data() + 4;
  for (const auto& [m, w] : neighbors) {
    Store_<NodeId>(p, m);
    Store_<PointId>(p + 4, group_of_neighbor(m));
    Store_<double>(p + 8, w);
    p += kAdjEntryBytes;
  }
  return rec;
}

// Point chunk encoding: [u u32][v u32][count u32] + count * [offset f64].
std::vector<char> EncodePtsChunk(NodeId u, NodeId v, const double* offsets,
                                 uint32_t count) {
  std::vector<char> rec(12 + static_cast<size_t>(count) * 8);
  Store_<NodeId>(rec.data(), u);
  Store_<NodeId>(rec.data() + 4, v);
  Store_<uint32_t>(rec.data() + 8, count);
  for (uint32_t i = 0; i < count; ++i) {
    Store_<double>(rec.data() + 12 + i * 8, offsets[i]);
  }
  return rec;
}

std::vector<NodeId> PlacementOrder(const Network& net, NodePlacement placement,
                                   uint64_t seed) {
  NodeId n = net.num_nodes();
  std::vector<NodeId> order;
  order.reserve(n);
  if (placement == NodePlacement::kRandom) {
    for (NodeId i = 0; i < n; ++i) order.push_back(i);
    Rng rng(seed);
    rng.Shuffle(&order);
    return order;
  }
  // Connectivity order: BFS from each unvisited node in id order, so that
  // adjacent nodes land close together in the flat file (CCAM-style).
  std::vector<bool> seen(n, false);
  for (NodeId s = 0; s < n; ++s) {
    if (seen[s]) continue;
    std::queue<NodeId> q;
    q.push(s);
    seen[s] = true;
    while (!q.empty()) {
      NodeId x = q.front();
      q.pop();
      order.push_back(x);
      for (const auto& [y, w] : net.neighbors(x)) {
        (void)w;
        if (!seen[y]) {
          seen[y] = true;
          q.push(y);
        }
      }
    }
  }
  return order;
}

}  // namespace

Result<std::unique_ptr<NetworkStore>> NetworkStore::Build(
    const Network& net, const PointSet& points, BufferManager* bm,
    const NetworkStoreFiles& files, NodePlacement placement, uint64_t seed) {
  for (PagedFile* f :
       {files.adj_flat, files.adj_index, files.pts_flat, files.pts_index}) {
    if (f == nullptr) return Status::InvalidArgument("missing file");
    if (f->num_pages() != 0) {
      return Status::InvalidArgument("Build requires empty files");
    }
    if (f->page_size() != bm->page_size()) {
      return Status::InvalidArgument("page size mismatch");
    }
  }
  // Every page of all four files carries the CRC32C footer (format v2).
  FileId adj_flat = bm->RegisterFile(files.adj_flat);
  FileId adj_index = bm->RegisterFile(files.adj_index);
  FileId pts_flat = bm->RegisterFile(files.pts_flat);
  FileId pts_index = bm->RegisterFile(files.pts_index);
  auto store =
      std::unique_ptr<NetworkStore>(new NetworkStore(bm, adj_flat, pts_flat));
  store->num_nodes_ = net.num_nodes();
  store->num_points_ = points.size();

  // --- Adjacency flat file: header page, then records in placement order.
  {
    Result<PageHandle> h = bm->NewPage(adj_flat);
    if (!h.ok()) return h.status();
    Store_<uint64_t>(h.value().data(), kAdjMagic);
    Store_<uint32_t>(h.value().data() + 8, net.num_nodes());
    Store_<uint32_t>(h.value().data() + 12, points.size());
    Store_<uint32_t>(h.value().data() + kAdjVersionOffset, kFormatVersion);
    h.value().MarkDirty();
  }
  std::vector<std::pair<uint64_t, uint64_t>> adj_entries;  // node -> addr
  adj_entries.reserve(net.num_nodes());
  {
    FlatWriter writer(bm, adj_flat, bm->usable_page_size());
    for (NodeId n : PlacementOrder(net, placement, seed)) {
      std::vector<char> rec =
          EncodeAdjRecord(net.neighbors(n), [&](NodeId m) -> PointId {
            auto [first, count] = points.EdgePointRange(n, m);
            return count > 0 ? first : kInvalidPointId;
          });
      Result<uint64_t> addr = writer.Append(rec.data(), rec.size());
      if (!addr.ok()) return addr.status();
      adj_entries.emplace_back(n, addr.value());
    }
    NETCLUS_RETURN_IF_ERROR(writer.CloseCurrent());
  }
  std::sort(adj_entries.begin(), adj_entries.end());
  {
    Result<std::unique_ptr<BPlusTree>> tree = BPlusTree::Create(bm, adj_index);
    if (!tree.ok()) return tree.status();
    store->adj_index_ = std::move(tree.value());
    NETCLUS_RETURN_IF_ERROR(store->adj_index_->BulkLoad(adj_entries));
  }

  // --- Points flat file: header page, then group chunks in point-id order.
  {
    Result<PageHandle> h = bm->NewPage(pts_flat);
    if (!h.ok()) return h.status();
    Store_<uint64_t>(h.value().data(), kPtsMagic);
    Store_<uint32_t>(h.value().data() + 8, points.size());
    Store_<uint32_t>(h.value().data() + kPtsVersionOffset, kFormatVersion);
    h.value().MarkDirty();
  }
  const uint32_t max_chunk = static_cast<uint32_t>(
      (bm->usable_page_size() - kPageHeader - 12) / 8);
  std::vector<std::pair<uint64_t, uint64_t>> pts_entries;  // first pt -> addr
  {
    FlatWriter writer(bm, pts_flat, bm->usable_page_size());
    std::vector<double> offsets;
    for (size_t gi = 0; gi < points.num_groups(); ++gi) {
      const PointSet::Group& g = points.group(gi);
      offsets.clear();
      for (uint32_t i = 0; i < g.count; ++i) {
        offsets.push_back(points.offset(g.first + i));
      }
      for (uint32_t start = 0; start < g.count; start += max_chunk) {
        uint32_t count = std::min(max_chunk, g.count - start);
        std::vector<char> rec =
            EncodePtsChunk(g.u, g.v, offsets.data() + start, count);
        Result<uint64_t> addr = writer.Append(rec.data(), rec.size());
        if (!addr.ok()) return addr.status();
        pts_entries.emplace_back(g.first + start, addr.value());
      }
    }
    NETCLUS_RETURN_IF_ERROR(writer.CloseCurrent());
  }
  {
    Result<std::unique_ptr<BPlusTree>> tree = BPlusTree::Create(bm, pts_index);
    if (!tree.ok()) return tree.status();
    store->pts_index_ = std::move(tree.value());
    NETCLUS_RETURN_IF_ERROR(store->pts_index_->BulkLoad(pts_entries));
  }
  NETCLUS_RETURN_IF_ERROR(bm->FlushAll());
  return store;
}

Result<std::unique_ptr<NetworkStore>> NetworkStore::Open(
    BufferManager* bm, const NetworkStoreFiles& files) {
  // Sniff the adjacency header straight from the file (bypassing the
  // pool), so a store in any other format version is refused by name
  // rather than as a page-checksum mismatch.
  {
    if (files.adj_flat->num_pages() == 0) {
      return Status::Corruption("adjacency file: missing header page");
    }
    std::vector<char> header(files.adj_flat->page_size());
    NETCLUS_RETURN_IF_ERROR(files.adj_flat->ReadPage(0, header.data()));
    if (Load<uint64_t>(header.data()) != kAdjMagic) {
      return Status::Corruption("adjacency file: bad magic");
    }
    const uint32_t version = Load<uint32_t>(header.data() + kAdjVersionOffset);
    if (version != kFormatVersion) {
      return Status::Corruption("adjacency file: format version " +
                                std::to_string(version) +
                                " is not supported (expected " +
                                std::to_string(kFormatVersion) + ")");
    }
  }
  FileId adj_flat = bm->RegisterFile(files.adj_flat);
  FileId adj_index = bm->RegisterFile(files.adj_index);
  FileId pts_flat = bm->RegisterFile(files.pts_flat);
  FileId pts_index = bm->RegisterFile(files.pts_index);
  auto store =
      std::unique_ptr<NetworkStore>(new NetworkStore(bm, adj_flat, pts_flat));
  {
    // Re-read through the pool so the header page's checksum is verified.
    Result<PageHandle> h = bm->FetchPage(adj_flat, 0);
    if (!h.ok()) return h.status();
    if (Load<uint64_t>(h.value().data()) != kAdjMagic) {
      return Status::Corruption("adjacency file: bad magic");
    }
    store->num_nodes_ = Load<uint32_t>(h.value().data() + 8);
    store->num_points_ = Load<uint32_t>(h.value().data() + 12);
  }
  {
    Result<PageHandle> h = bm->FetchPage(pts_flat, 0);
    if (!h.ok()) return h.status();
    if (Load<uint64_t>(h.value().data()) != kPtsMagic) {
      return Status::Corruption("points file: bad magic");
    }
    const uint32_t pts_version =
        Load<uint32_t>(h.value().data() + kPtsVersionOffset);
    if (pts_version != kFormatVersion) {
      return Status::Corruption("points file: format version " +
                                std::to_string(pts_version) +
                                " does not match adjacency file version " +
                                std::to_string(kFormatVersion));
    }
  }
  Result<std::unique_ptr<BPlusTree>> ai = BPlusTree::Open(bm, adj_index);
  if (!ai.ok()) return ai.status();
  store->adj_index_ = std::move(ai.value());
  Result<std::unique_ptr<BPlusTree>> pi = BPlusTree::Open(bm, pts_index);
  if (!pi.ok()) return pi.status();
  store->pts_index_ = std::move(pi.value());
  return store;
}

Status NetworkStore::ReadAdjacency(
    NodeId n, const std::function<void(NodeId, double, PointId)>& fn) const {
  uint64_t addr;
  NETCLUS_ASSIGN_OR_RETURN(addr, adj_index_->Get(n));
  PageHandle h;
  NETCLUS_ASSIGN_OR_RETURN(h, bm_->FetchPage(adj_flat_, AddrPage(addr)));
  const uint32_t usable = bm_->usable_page_size();
  const uint32_t offset = AddrOffset(addr);
  NETCLUS_RETURN_IF_ERROR(ValidateRecordBounds(
      h, usable, bm_->page_size(), offset, 4, "adjacency record"));
  const char* p = h.data() + offset;
  uint32_t degree = Load<uint32_t>(p);
  NETCLUS_RETURN_IF_ERROR(ValidateRecordBounds(
      h, usable, bm_->page_size(), offset,
      4 + static_cast<uint64_t>(degree) * kAdjEntryBytes, "adjacency record"));
  p += 4;
  // A weight outside the domain (graph/types.h) was never written: the
  // store is built from a Network, which rejects one. Check the whole
  // record before handing any entry out, so no traversal sees it.
  for (uint32_t i = 0; i < degree; ++i) {
    const double w = Load<double>(p + i * kAdjEntryBytes + 8);
    if (!IsEdgeWeightInDomain(w)) {
      return Status::Corruption(
          "adjacency record: edge weight " + std::to_string(w) +
          " outside (0, 2^28): node " + std::to_string(n) + ", page " +
          std::to_string(h.page_id()) + ", offset " + std::to_string(offset));
    }
  }
  for (uint32_t i = 0; i < degree; ++i) {
    fn(Load<NodeId>(p), Load<double>(p + 8), Load<PointId>(p + 4));
    p += kAdjEntryBytes;
  }
  return Status::OK();
}

Status NetworkStore::ReadGroup(PointId first, NodeId* u, NodeId* v,
                               std::vector<double>* offsets) const {
  offsets->clear();
  *u = kInvalidNodeId;
  *v = kInvalidNodeId;
  PointId next = first;
  while (true) {
    Result<uint64_t> addr_or = pts_index_->Get(next);
    if (!addr_or.ok()) {
      if (addr_or.status().IsNotFound() && next != first) return Status::OK();
      return addr_or.status();
    }
    uint64_t addr = addr_or.value();
    PageHandle h;
    NETCLUS_ASSIGN_OR_RETURN(h, bm_->FetchPage(pts_flat_, AddrPage(addr)));
    const uint32_t usable = bm_->usable_page_size();
    const uint32_t offset = AddrOffset(addr);
    NETCLUS_RETURN_IF_ERROR(ValidateRecordBounds(
        h, usable, bm_->page_size(), offset, 12, "point chunk"));
    const char* p = h.data() + offset;
    NodeId cu = Load<NodeId>(p);
    NodeId cv = Load<NodeId>(p + 4);
    uint32_t count = Load<uint32_t>(p + 8);
    NETCLUS_RETURN_IF_ERROR(ValidateRecordBounds(
        h, usable, bm_->page_size(), offset,
        12 + static_cast<uint64_t>(count) * 8, "point chunk"));
    if (count == 0) {
      // A zero-count chunk is never written and would loop forever below.
      return Status::Corruption(
          "point chunk: zero point count: page " +
          std::to_string(h.page_id()) + ", offset " + std::to_string(offset));
    }
    if (next == first) {
      *u = cu;
      *v = cv;
    } else if (cu != *u || cv != *v) {
      return Status::OK();  // next group of a different edge
    }
    for (uint32_t i = 0; i < count; ++i) {
      offsets->push_back(Load<double>(p + 12 + i * 8));
    }
    next += count;
  }
}

Result<PointPos> NetworkStore::ReadPointPosition(PointId p) const {
  Result<std::pair<uint64_t, uint64_t>> entry = pts_index_->FloorEntry(p);
  if (!entry.ok()) return entry.status();
  auto [chunk_first, addr] = entry.value();
  PageHandle h;
  NETCLUS_ASSIGN_OR_RETURN(h, bm_->FetchPage(pts_flat_, AddrPage(addr)));
  const uint32_t usable = bm_->usable_page_size();
  const uint32_t offset = AddrOffset(addr);
  NETCLUS_RETURN_IF_ERROR(ValidateRecordBounds(
      h, usable, bm_->page_size(), offset, 12, "point chunk"));
  const char* rec = h.data() + offset;
  uint32_t count = Load<uint32_t>(rec + 8);
  NETCLUS_RETURN_IF_ERROR(ValidateRecordBounds(
      h, usable, bm_->page_size(), offset,
      12 + static_cast<uint64_t>(count) * 8, "point chunk"));
  uint64_t idx = p - chunk_first;
  if (idx >= count) {
    return Status::NotFound("point id beyond its floor chunk");
  }
  PointPos pos;
  pos.u = Load<NodeId>(rec);
  pos.v = Load<NodeId>(rec + 4);
  pos.offset = Load<double>(rec + 12 + idx * 8);
  return pos;
}

Status NetworkStore::ScanGroups(
    const std::function<void(NodeId, NodeId, PointId, uint32_t)>& fn) const {
  // Materialize the chunk directory first so the flat-file reads below do
  // not run inside a pinned B+-tree leaf scan.
  std::vector<std::pair<uint64_t, uint64_t>> chunks;
  NETCLUS_RETURN_IF_ERROR(
      pts_index_->Scan(0, UINT64_MAX, [&](uint64_t key, uint64_t addr) {
        chunks.emplace_back(key, addr);
        return true;
      }));
  NodeId cur_u = kInvalidNodeId, cur_v = kInvalidNodeId;
  PointId cur_first = kInvalidPointId;
  uint32_t cur_count = 0;
  for (const auto& [key, addr] : chunks) {
    PageHandle h;
    NETCLUS_ASSIGN_OR_RETURN(h, bm_->FetchPage(pts_flat_, AddrPage(addr)));
    const uint32_t offset = AddrOffset(addr);
    NETCLUS_RETURN_IF_ERROR(ValidateRecordBounds(
        h, bm_->usable_page_size(), bm_->page_size(), offset, 12,
        "point chunk"));
    const char* p = h.data() + offset;
    NodeId u = Load<NodeId>(p);
    NodeId v = Load<NodeId>(p + 4);
    uint32_t count = Load<uint32_t>(p + 8);
    if (u == cur_u && v == cur_v) {
      cur_count += count;  // continuation chunk of the same edge
    } else {
      if (cur_count > 0) fn(cur_u, cur_v, cur_first, cur_count);
      cur_u = u;
      cur_v = v;
      cur_first = static_cast<PointId>(key);
      cur_count = count;
    }
  }
  if (cur_count > 0) fn(cur_u, cur_v, cur_first, cur_count);
  return Status::OK();
}

void DiskNetworkView::Record(const Status& s) const {
  MutexLock lock(&mu_);
  if (first_error_.ok()) first_error_ = s;
}

Status DiskNetworkView::status() const {
  MutexLock lock(&mu_);
  return first_error_;
}

void DiskNetworkView::ClearStatus() {
  MutexLock lock(&mu_);
  first_error_ = Status::OK();
}

void DiskNetworkView::ForEachNeighbor(
    NodeId n, const std::function<void(NodeId, double)>& fn) const {
  Status s = store_->ReadAdjacency(
      n, [&](NodeId m, double w, PointId group) {
        (void)group;
        fn(m, w);
      });
  if (!s.ok()) Record(s);
}

double DiskNetworkView::EdgeWeight(NodeId a, NodeId b) const {
  double weight = -1.0;
  Status s = store_->ReadAdjacency(a, [&](NodeId m, double w, PointId group) {
    (void)group;
    if (m == b) weight = w;
  });
  if (!s.ok()) Record(s);
  return weight;
}

PointPos DiskNetworkView::PointPosition(PointId p) const {
  Result<PointPos> pos = store_->ReadPointPosition(p);
  if (!pos.ok()) {
    Record(pos.status());
    // The fallback must stay inside the node-id range: callers index
    // per-node arrays with it, and PointPos{} holds kInvalidNodeId.
    // Node 0 exists whenever the store holds any point at all.
    return PointPos{0, 0, 0.0};
  }
  return pos.value();
}

void DiskNetworkView::GetEdgePoints(NodeId a, NodeId b,
                                    std::vector<EdgePoint>* out) const {
  out->clear();
  PointId group = kInvalidPointId;
  Status s = store_->ReadAdjacency(a, [&](NodeId m, double w, PointId g) {
    (void)w;
    if (m == b) group = g;
  });
  if (!s.ok()) {
    Record(s);
    return;
  }
  if (group == kInvalidPointId) return;
  NodeId u, v;
  std::vector<double> offsets;
  s = store_->ReadGroup(group, &u, &v, &offsets);
  if (!s.ok()) {
    Record(s);
    return;
  }
  for (size_t i = 0; i < offsets.size(); ++i) {
    out->push_back(EdgePoint{group + static_cast<PointId>(i), offsets[i]});
  }
}

void DiskNetworkView::ForEachPointGroup(
    const std::function<void(NodeId, NodeId, PointId, uint32_t)>& fn) const {
  Status s = store_->ScanGroups(fn);
  if (!s.ok()) Record(s);
}

Result<std::unique_ptr<DiskNetworkBundle>> DiskNetworkBundle::Create(
    const Network& net, const PointSet& points, uint64_t pool_bytes,
    uint32_t page_size, NodePlacement placement, uint64_t seed) {
  auto bundle = std::unique_ptr<DiskNetworkBundle>(new DiskNetworkBundle());
  bundle->adj_flat_ = PagedFile::CreateInMemory(page_size);
  bundle->adj_index_ = PagedFile::CreateInMemory(page_size);
  bundle->pts_flat_ = PagedFile::CreateInMemory(page_size);
  bundle->pts_index_ = PagedFile::CreateInMemory(page_size);
  bundle->bm_ = std::make_unique<BufferManager>(pool_bytes, page_size);
  NetworkStoreFiles files;
  files.adj_flat = bundle->adj_flat_.get();
  files.adj_index = bundle->adj_index_.get();
  files.pts_flat = bundle->pts_flat_.get();
  files.pts_index = bundle->pts_index_.get();
  Result<std::unique_ptr<NetworkStore>> store = NetworkStore::Build(
      net, points, bundle->bm_.get(), files, placement, seed);
  if (!store.ok()) return store.status();
  bundle->store_ = std::move(store.value());
  bundle->view_ = std::make_unique<DiskNetworkView>(bundle->store_.get());
  return bundle;
}

namespace {
Result<std::array<std::unique_ptr<PagedFile>, 4>> OpenBundleFiles(
    const std::string& directory, uint32_t page_size, bool truncate) {
  std::array<std::unique_ptr<PagedFile>, 4> files;
  const char* names[4] = {"adj.dat", "adj.idx", "pts.dat", "pts.idx"};
  for (int i = 0; i < 4; ++i) {
    Result<std::unique_ptr<PagedFile>> f =
        PagedFile::Open(directory + "/" + names[i], page_size, truncate);
    if (!f.ok()) return f.status();
    files[i] = std::move(f.value());
  }
  return files;
}
}  // namespace

Result<std::unique_ptr<DiskNetworkBundle>> DiskNetworkBundle::CreateOnDisk(
    const std::string& directory, const Network& net, const PointSet& points,
    uint64_t pool_bytes, uint32_t page_size, NodePlacement placement,
    uint64_t seed) {
  auto bundle = std::unique_ptr<DiskNetworkBundle>(new DiskNetworkBundle());
  Result<std::array<std::unique_ptr<PagedFile>, 4>> files =
      OpenBundleFiles(directory, page_size, /*truncate=*/true);
  if (!files.ok()) return files.status();
  bundle->adj_flat_ = std::move(files.value()[0]);
  bundle->adj_index_ = std::move(files.value()[1]);
  bundle->pts_flat_ = std::move(files.value()[2]);
  bundle->pts_index_ = std::move(files.value()[3]);
  bundle->bm_ = std::make_unique<BufferManager>(pool_bytes, page_size);
  NetworkStoreFiles store_files;
  store_files.adj_flat = bundle->adj_flat_.get();
  store_files.adj_index = bundle->adj_index_.get();
  store_files.pts_flat = bundle->pts_flat_.get();
  store_files.pts_index = bundle->pts_index_.get();
  Result<std::unique_ptr<NetworkStore>> store = NetworkStore::Build(
      net, points, bundle->bm_.get(), store_files, placement, seed);
  if (!store.ok()) return store.status();
  bundle->store_ = std::move(store.value());
  bundle->view_ = std::make_unique<DiskNetworkView>(bundle->store_.get());
  return bundle;
}

Result<std::unique_ptr<DiskNetworkBundle>> DiskNetworkBundle::OpenOnDisk(
    const std::string& directory, uint64_t pool_bytes, uint32_t page_size) {
  auto bundle = std::unique_ptr<DiskNetworkBundle>(new DiskNetworkBundle());
  Result<std::array<std::unique_ptr<PagedFile>, 4>> files =
      OpenBundleFiles(directory, page_size, /*truncate=*/false);
  if (!files.ok()) return files.status();
  bundle->adj_flat_ = std::move(files.value()[0]);
  bundle->adj_index_ = std::move(files.value()[1]);
  bundle->pts_flat_ = std::move(files.value()[2]);
  bundle->pts_index_ = std::move(files.value()[3]);
  bundle->bm_ = std::make_unique<BufferManager>(pool_bytes, page_size);
  NetworkStoreFiles store_files;
  store_files.adj_flat = bundle->adj_flat_.get();
  store_files.adj_index = bundle->adj_index_.get();
  store_files.pts_flat = bundle->pts_flat_.get();
  store_files.pts_index = bundle->pts_index_.get();
  Result<std::unique_ptr<NetworkStore>> store =
      NetworkStore::Open(bundle->bm_.get(), store_files);
  if (!store.ok()) return store.status();
  bundle->store_ = std::move(store.value());
  bundle->view_ = std::make_unique<DiskNetworkView>(bundle->store_.get());
  return bundle;
}

uint64_t DiskNetworkBundle::TotalPhysicalReads() const {
  return adj_flat_->stats().page_reads + adj_index_->stats().page_reads +
         pts_flat_->stats().page_reads + pts_index_->stats().page_reads;
}

DiskNetworkBundle::IoBreakdown DiskNetworkBundle::GetIoBreakdown() const {
  return IoBreakdown{adj_flat_->stats(), adj_index_->stats(),
                     pts_flat_->stats(), pts_index_->stats()};
}

void DiskNetworkBundle::ResetIoStats() {
  adj_flat_->ResetStats();
  adj_index_->ResetStats();
  pts_flat_->ResetStats();
  pts_index_->ResetStats();
  bm_->ResetStats();
}

}  // namespace netclus
