// Disk-based storage of the network and its points (paper Section 4.1).
//
// Two flat files hold the adjacency lists and the point groups; each is
// indexed by a sparse B+-tree (adjacency keyed by node id, points keyed by
// the first point id of each group). All four files sit behind one LRU
// buffer pool, reproducing the paper's 1 MiB buffer / 4 KiB page setting.
//
// Adjacency record (one per node):
//   [degree u32] then per neighbor [node u32][group_first u32][weight f64]
//   where group_first is the first point id of the point group on that
//   edge, or kInvalidPointId when the edge holds no points.
// Point-group record (one per chunk; large groups split across chunks):
//   [u u32][v u32][count u32][offset f64 x count]
//
// Node records are placed into pages either in connectivity (BFS) order —
// the CCAM idea of co-locating neighbor nodes — or in random order, the
// ablation baseline.
//
// On-disk format version: a u32 in each flat file's header page. Build()
// writes v2, where every page of all four files carries the
// BufferManager's CRC32C footer and records are packed into
// usable_page_size() bytes. Open() reads v2 only and refuses any other
// version (including the unchecksummed v1) as Corruption.
#ifndef NETCLUS_GRAPH_NETWORK_STORE_H_
#define NETCLUS_GRAPH_NETWORK_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "storage/bptree.h"
#include "storage/buffer_manager.h"
#include "storage/paged_file.h"
#include "graph/network.h"
#include "graph/network_view.h"

namespace netclus {

/// How node adjacency records are assigned to disk pages.
enum class NodePlacement {
  kConnectivity,  // BFS order: neighbors tend to share pages (CCAM-style)
  kRandom,        // shuffled order: the ablation baseline
};

/// \brief The four paged files of the storage architecture.
struct NetworkStoreFiles {
  PagedFile* adj_flat = nullptr;
  PagedFile* adj_index = nullptr;
  PagedFile* pts_flat = nullptr;
  PagedFile* pts_index = nullptr;
};

/// \brief Disk-resident network + points, queried through a buffer pool.
class NetworkStore {
 public:
  /// Serializes `net` and `points` into the (empty) files and builds the
  /// B+-tree indexes. `seed` drives the kRandom placement shuffle.
  static Result<std::unique_ptr<NetworkStore>> Build(
      const Network& net, const PointSet& points, BufferManager* bm,
      const NetworkStoreFiles& files, NodePlacement placement, uint64_t seed);

  /// Reopens a store previously Build()-written into `files`.
  static Result<std::unique_ptr<NetworkStore>> Open(
      BufferManager* bm, const NetworkStoreFiles& files);

  NodeId num_nodes() const { return num_nodes_; }
  PointId num_points() const { return num_points_; }

  /// Reads the adjacency record of `n`:
  /// fn(neighbor, weight, group_first_point_or_invalid).
  Status ReadAdjacency(
      NodeId n,
      const std::function<void(NodeId, double, PointId)>& fn) const;

  /// Reads the point group starting at point id `first` (all chunks of one
  /// edge), filling `u`, `v` and the ascending offsets.
  Status ReadGroup(PointId first, NodeId* u, NodeId* v,
                   std::vector<double>* offsets) const;

  /// Position of point `p` via a floor lookup on the points index.
  Result<PointPos> ReadPointPosition(PointId p) const;

  /// Scans all point groups in point-id order (chunks of one edge are
  /// coalesced): fn(u, v, first, count).
  Status ScanGroups(
      const std::function<void(NodeId, NodeId, PointId, uint32_t)>& fn) const;

 private:
  NetworkStore(BufferManager* bm, FileId adj_flat, FileId pts_flat)
      : bm_(bm), adj_flat_(adj_flat), pts_flat_(pts_flat) {}

  BufferManager* bm_;
  FileId adj_flat_;
  FileId pts_flat_;
  std::unique_ptr<BPlusTree> adj_index_;
  std::unique_ptr<BPlusTree> pts_index_;
  NodeId num_nodes_ = 0;
  PointId num_points_ = 0;
};

/// \brief NetworkView over a NetworkStore: the algorithms' disk path.
///
/// The NetworkView accessors cannot report I/O failures inline, so the
/// view records the first non-OK Status from the store (returning neutral
/// values for the failed call) and exposes it through status(), which
/// RunClustering checks at its boundary. Recording is thread-safe; the
/// first error wins.
class DiskNetworkView : public NetworkView {
 public:
  explicit DiskNetworkView(const NetworkStore* store) : store_(store) {}

  NodeId num_nodes() const override { return store_->num_nodes(); }
  PointId num_points() const override { return store_->num_points(); }
  void ForEachNeighbor(
      NodeId n,
      const std::function<void(NodeId, double)>& fn) const override;
  double EdgeWeight(NodeId a, NodeId b) const override;
  PointPos PointPosition(PointId p) const override;
  void GetEdgePoints(NodeId a, NodeId b,
                     std::vector<EdgePoint>* out) const override;
  void ForEachPointGroup(
      const std::function<void(NodeId, NodeId, PointId, uint32_t)>& fn)
      const override;

  /// First storage error any accessor swallowed, or OK.
  Status status() const override NETCLUS_EXCLUDES(mu_);

  /// Forgets a recorded error (fault-injection tests reuse one view
  /// across injected and clean phases).
  void ClearStatus() NETCLUS_EXCLUDES(mu_);

 private:
  void Record(const Status& s) const NETCLUS_EXCLUDES(mu_);

  const NetworkStore* store_;
  // Rank kDiskViewStatus: the leaf of the disk read path — Record runs
  // from deep inside traversals, which must not be holding anything
  // that ranks above it.
  mutable Mutex mu_{lock_rank::kDiskViewStatus, "DiskNetworkView::mu_"};
  mutable Status first_error_ NETCLUS_GUARDED_BY(mu_);
};

/// \brief Convenience bundle owning the files, pool, store and view.
///
/// Benches and tests use this to stand up a disk-backed network in one
/// call. With `on_disk` false the paged files are in-memory (I/O is still
/// counted identically).
class DiskNetworkBundle {
 public:
  static Result<std::unique_ptr<DiskNetworkBundle>> Create(
      const Network& net, const PointSet& points, uint64_t pool_bytes,
      uint32_t page_size, NodePlacement placement, uint64_t seed);

  /// Like Create, but the four paged files live on disk under
  /// `directory` (created files: adj.dat, adj.idx, pts.dat, pts.idx;
  /// any existing ones are truncated).
  static Result<std::unique_ptr<DiskNetworkBundle>> CreateOnDisk(
      const std::string& directory, const Network& net,
      const PointSet& points, uint64_t pool_bytes, uint32_t page_size,
      NodePlacement placement, uint64_t seed);

  /// Reopens a store previously written by CreateOnDisk.
  static Result<std::unique_ptr<DiskNetworkBundle>> OpenOnDisk(
      const std::string& directory, uint64_t pool_bytes, uint32_t page_size);

  const DiskNetworkView& view() const { return *view_; }
  BufferManager& buffer_manager() { return *bm_; }
  const NetworkStore& store() const { return *store_; }

  /// Physical page reads across all four files.
  uint64_t TotalPhysicalReads() const;

  /// Per-file physical I/O counters (the paper's cost discussion is
  /// about which files an algorithm touches and how).
  struct IoBreakdown {
    FileIoStats adj_flat, adj_index, pts_flat, pts_index;
  };
  IoBreakdown GetIoBreakdown() const;

  /// Zeroes all per-file counters and the buffer statistics.
  void ResetIoStats();

 private:
  DiskNetworkBundle() = default;
  std::unique_ptr<PagedFile> adj_flat_, adj_index_, pts_flat_, pts_index_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<NetworkStore> store_;
  std::unique_ptr<DiskNetworkView> view_;
};

}  // namespace netclus

#endif  // NETCLUS_GRAPH_NETWORK_STORE_H_
