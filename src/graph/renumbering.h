// Renumbering: how a merge moved the entries of an ordered table.
//
// PointSetBuilder::Merge inserts new entries into tables it keeps in
// order — points into the dense PointId order, groups into the edge-key
// order — and never drops or reorders an old entry. So one ascending
// list describes the whole renumbering: the final positions of the
// inserted entries. Old position q moves to q + #{steps <= q}, where the
// j-th step, at[j] - j, is the number of old entries placed ahead of the
// j-th insert. Every carrier of a merge uses that list:
//   - a table indexed by old position is written as run copies between
//     the inserts (ForEachRun);
//   - a stored old position v is rewritten as Remap(v) (RemapAll over a
//     whole table): a count over the steps, log2(k) for k inserts and
//     one compare for a one-insert batch, with no table indexed by old
//     position.
// Nothing else is O(old table) but the copies themselves.
#ifndef NETCLUS_GRAPH_RENUMBERING_H_
#define NETCLUS_GRAPH_RENUMBERING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace netclus {

/// \brief The final positions of the entries a merge inserted into an
/// ordered table, ascending; see the file comment.
class Renumbering {
 public:
  /// No insert: every entry keeps its position.
  Renumbering() = default;

  /// Records the next insert, at final position `at`, past every earlier
  /// one.
  void Append(uint32_t at) {
    NETCLUS_DCHECK(at_.empty() || at > at_.back())
        << "Renumbering: inserts must be appended in ascending order";
    steps_.push_back(at - static_cast<uint32_t>(at_.size()));
    at_.push_back(at);
  }

  size_t size() const { return at_.size(); }
  bool empty() const { return at_.empty(); }
  /// The inserted entries' final positions, ascending.
  const std::vector<uint32_t>& inserted() const { return at_; }

  /// The final position of old position `v`: v plus the inserts placed
  /// ahead of it.
  uint32_t Remap(uint32_t v) const {
    return v + static_cast<uint32_t>(
                   std::upper_bound(steps_.begin(), steps_.end(), v) -
                   steps_.begin());
  }

  /// Remap over a table of stored positions: to[i] = Remap(from[i]) for
  /// i < n, except that an entry equal to `none` (a sentinel such as
  /// kInvalidPointId) is copied as it is. `from` and `to` may be equal.
  void RemapAll(const uint32_t* from, size_t n, uint32_t* to,
                uint32_t none) const {
    // The steps padded with UINT32_MAX to 2^depth - 1 entries, so the
    // search is `depth` halvings whatever the batch. A small batch's
    // search is unrolled to its depth (a one-insert batch's is a single
    // compare, which vectorizes); a deeper one loops over its levels.
    size_t depth = 0;
    while ((size_t{1} << depth) <= steps_.size()) ++depth;
    std::vector<uint32_t> padded((size_t{1} << depth) - 1, UINT32_MAX);
    std::copy(steps_.begin(), steps_.end(), padded.begin());
    switch (depth) {
      case 0:
        return RemapAtDepth<0>(padded.data(), depth, from, n, to, none);
      case 1:
        return RemapAtDepth<1>(padded.data(), depth, from, n, to, none);
      case 2:
        return RemapAtDepth<2>(padded.data(), depth, from, n, to, none);
      case 3:
        return RemapAtDepth<3>(padded.data(), depth, from, n, to, none);
      default:
        return RemapAtDepth<-1>(padded.data(), depth, from, n, to, none);
    }
  }

  /// The same inserts in a table that keeps `lead` more entries ahead of
  /// every position, such as a 1-based numbering whose 0 means "none"
  /// (lead = 1): its Remap leaves positions below `lead` alone.
  Renumbering Shifted(uint32_t lead) const {
    Renumbering out;
    out.at_.reserve(at_.size());
    out.steps_.reserve(steps_.size());
    for (size_t j = 0; j < at_.size(); ++j) {
      out.at_.push_back(at_[j] + lead);
      out.steps_.push_back(steps_[j] + lead);
    }
    return out;
  }

  /// Visits the final table of an old one `old_size` entries long, in
  /// order: `run(q, f, n)` for each run of n > 0 old entries [q, q + n)
  /// that land at [f, f + n), and `insert(j, f)` for the j-th insert,
  /// which lands at f.
  template <typename Run, typename Insert>
  void ForEachRun(size_t old_size, Run&& run, Insert&& insert) const {
    size_t q = 0;
    for (size_t j = 0; j < at_.size(); ++j) {
      if (steps_[j] > q) run(q, q + j, steps_[j] - q);
      q = steps_[j];
      insert(j, static_cast<size_t>(at_[j]));
    }
    NETCLUS_DCHECK(q <= old_size) << "Renumbering: insert past the table";
    if (old_size > q) run(q, q + at_.size(), old_size - q);
  }

 private:
  // RemapAll over `padded`, the steps padded to 2^depth - 1 entries;
  // kDepth >= 0 fixes the depth at compile time, -1 reads `depth`.
  template <int kDepth>
  static void RemapAtDepth(const uint32_t* padded, size_t depth,
                           const uint32_t* from, size_t n, uint32_t* to,
                           uint32_t none) {
    const size_t levels = kDepth < 0 ? depth : static_cast<size_t>(kDepth);
    // A fixed depth's pivots in a local array, which no store to `to`
    // can alias, so they stay in registers.
    uint32_t local[kDepth > 0 ? (1 << kDepth) - 1 : 1] = {};
    const uint32_t* steps = padded;
    if constexpr (kDepth > 0) {
      std::copy(padded, padded + (1 << kDepth) - 1, local);
      steps = local;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t v = from[i];
      uint32_t count = 0;
      for (size_t level = levels; level-- > 0;) {
        const uint32_t half = 1u << level;
        count = steps[count + half - 1] <= v ? count + half : count;
      }
      // A mask rather than a select: sentinels sit among the entries at
      // random, and a branch on them would mispredict.
      const uint32_t moves = 0u - static_cast<uint32_t>(v != none);
      to[i] = v + (count & moves);
    }
  }

  std::vector<uint32_t> at_;     // final positions, ascending
  std::vector<uint32_t> steps_;  // at_[j] - j, non-decreasing
};

}  // namespace netclus

#endif  // NETCLUS_GRAPH_RENUMBERING_H_
