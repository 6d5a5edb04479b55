// Deterministic fault injection for the storage stack.
//
// FaultInjectionFile decorates any PagedFile and perturbs its operations
// according to a schedule: transient errors (Status::Unavailable — the
// BufferManager retries these), permanent I/O errors, short reads, torn
// writes (only a prefix of the page reaches the backend) and silent bit
// flips (the op "succeeds" with corrupted data — the page-checksum layer
// must turn these into Status::Corruption). Faults fire either at exact
// operation indices (AddFault) or randomly from a seeded RNG
// (EnableRandomFaults); both are fully deterministic given the same op
// sequence, so a faulty run can be replayed bit-identically.
#ifndef NETCLUS_SUPPORT_FAULT_INJECTION_H_
#define NETCLUS_SUPPORT_FAULT_INJECTION_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "storage/paged_file.h"

namespace netclus {

/// Which operation class a FaultEvent applies to.
enum class FaultOp { kRead, kWrite };

/// What the injected fault does.
enum class FaultKind {
  kTransientError,  ///< op not executed; returns Unavailable (retryable)
  kPermanentError,  ///< op not executed; returns IOError (not retried)
  kShortRead,       ///< only the first half of the page is read; Unavailable
  kTornWrite,       ///< only the first half of the page is written; IOError
  kBitFlip,         ///< op executes and returns OK, one bit is flipped
};

/// \brief One scheduled fault.
struct FaultEvent {
  FaultOp op = FaultOp::kRead;
  FaultKind kind = FaultKind::kTransientError;
  /// Fires on ops `[op_index, op_index + count)` of class `op`, counted
  /// from 0 across the file's lifetime.
  uint64_t op_index = 0;
  uint64_t count = 1;
  /// Restricts the fault to one page; kInvalidPageId matches any page.
  PageId page = kInvalidPageId;
  /// kBitFlip target: `bit_mask` is XORed into byte `byte` of the page.
  uint32_t byte = 0;
  uint8_t bit_mask = 1;
};

/// Counters of what the harness actually injected.
struct FaultInjectionStats {
  uint64_t transient_errors = 0;
  uint64_t permanent_errors = 0;
  uint64_t short_reads = 0;
  uint64_t torn_writes = 0;
  uint64_t bit_flips = 0;

  uint64_t total() const {
    return transient_errors + permanent_errors + short_reads + torn_writes +
           bit_flips;
  }
};

/// \brief PagedFile decorator that injects faults from a schedule.
class FaultInjectionFile final : public PagedFile {
 public:
  /// Decorates `base` (not owned; must outlive this file). The decorator
  /// starts transparent: with no schedule every op passes through.
  explicit FaultInjectionFile(PagedFile* base);

  /// Schedules one fault. Events are matched independently; multiple
  /// events may fire on the same op (first match wins).
  void AddFault(const FaultEvent& event);

  /// Additionally injects random faults: each read fails transiently with
  /// probability `transient_prob` and each read is silently bit-flipped
  /// with probability `bit_flip_prob`. Deterministic in `seed` and the op
  /// sequence.
  void EnableRandomFaults(uint64_t seed, double transient_prob,
                          double bit_flip_prob);

  /// Drops the whole schedule (scheduled events and random mode).
  void ClearFaults();

  const FaultInjectionStats& fault_stats() const { return fault_stats_; }
  uint64_t read_ops() const { return read_ops_; }
  uint64_t write_ops() const { return write_ops_; }

 protected:
  Status DoAllocate(PageId id) override;
  Status DoRead(PageId id, char* out) override;
  Status DoWrite(PageId id, const char* data) override;
  Status DoTruncate(PageId new_num_pages) override;

 private:
  // Returns the first scheduled event matching this op, or nullptr.
  const FaultEvent* Match(FaultOp op, uint64_t index, PageId page) const;

  PagedFile* base_;
  std::vector<FaultEvent> schedule_;
  bool random_enabled_ = false;
  Rng rng_{0};
  double transient_prob_ = 0.0;
  double bit_flip_prob_ = 0.0;
  uint64_t read_ops_ = 0;
  uint64_t write_ops_ = 0;
  FaultInjectionStats fault_stats_;
};

}  // namespace netclus

#endif  // NETCLUS_SUPPORT_FAULT_INJECTION_H_
