#include "support/fault_injection.h"

#include <cstring>
#include <string>

namespace netclus {

namespace {
std::string Describe(const char* what, PageId page) {
  return std::string("injected ") + what + " (page " + std::to_string(page) +
         ")";
}
}  // namespace

FaultInjectionFile::FaultInjectionFile(PagedFile* base)
    : PagedFile(base->page_size()), base_(base) {
  num_pages_ = base->num_pages();
}

void FaultInjectionFile::AddFault(const FaultEvent& event) {
  schedule_.push_back(event);
}

void FaultInjectionFile::EnableRandomFaults(uint64_t seed,
                                            double transient_prob,
                                            double bit_flip_prob) {
  random_enabled_ = true;
  rng_ = Rng(seed);
  transient_prob_ = transient_prob;
  bit_flip_prob_ = bit_flip_prob;
}

void FaultInjectionFile::ClearFaults() {
  schedule_.clear();
  random_enabled_ = false;
}

const FaultEvent* FaultInjectionFile::Match(FaultOp op, uint64_t index,
                                            PageId page) const {
  for (const FaultEvent& e : schedule_) {
    if (e.op != op) continue;
    // index - op_index, not op_index + count: the sum overflows for
    // open-ended events (count = UINT64_MAX at a nonzero start).
    if (index < e.op_index || index - e.op_index >= e.count) continue;
    if (e.page != kInvalidPageId && e.page != page) continue;
    return &e;
  }
  return nullptr;
}

Status FaultInjectionFile::DoAllocate(PageId id) {
  // Allocation goes straight to the backend; read/write faults model the
  // data path. Keep the decorator's page count mirroring the backend's.
  Result<PageId> allocated = base_->AllocatePage();
  if (!allocated.ok()) return allocated.status();
  (void)id;
  return Status::OK();
}

Status FaultInjectionFile::DoTruncate(PageId new_num_pages) {
  // Truncation passes through un-faulted (it is a metadata op, not the
  // data path the fault kinds model); mirror the backend's page count.
  return base_->Truncate(new_num_pages);
}

Status FaultInjectionFile::DoRead(PageId id, char* out) {
  uint64_t index = read_ops_++;
  const FaultEvent* e = Match(FaultOp::kRead, index, id);
  FaultKind kind;
  uint32_t flip_byte;
  uint8_t flip_mask;
  if (e != nullptr) {
    kind = e->kind;
    flip_byte = e->byte;
    flip_mask = e->bit_mask;
  } else if (random_enabled_ && rng_.NextBernoulli(transient_prob_)) {
    kind = FaultKind::kTransientError;
    flip_byte = 0;
    flip_mask = 0;
  } else if (random_enabled_ && rng_.NextBernoulli(bit_flip_prob_)) {
    kind = FaultKind::kBitFlip;
    flip_byte = static_cast<uint32_t>(rng_.NextBounded(page_size_));
    flip_mask = static_cast<uint8_t>(1u << rng_.NextBounded(8));
  } else {
    return base_->ReadPage(id, out);
  }
  switch (kind) {
    case FaultKind::kTransientError:
      ++fault_stats_.transient_errors;
      return Status::Unavailable(Describe("transient read error", id));
    case FaultKind::kPermanentError:
      ++fault_stats_.permanent_errors;
      return Status::IOError(Describe("read error", id));
    case FaultKind::kShortRead: {
      ++fault_stats_.short_reads;
      std::memset(out, 0, page_size_);
      Status s = base_->ReadPage(id, out);  // then keep only a prefix
      if (!s.ok()) return s;
      std::memset(out + page_size_ / 2, 0, page_size_ - page_size_ / 2);
      return Status::Unavailable(Describe("short read", id));
    }
    case FaultKind::kTornWrite:  // write-only kind; treat as transparent
      return base_->ReadPage(id, out);
    case FaultKind::kBitFlip: {
      ++fault_stats_.bit_flips;
      Status s = base_->ReadPage(id, out);
      if (!s.ok()) return s;
      out[flip_byte % page_size_] ^= static_cast<char>(flip_mask);
      return Status::OK();  // silent: the checksum layer must catch this
    }
  }
  return Status::Internal("unreachable fault kind");
}

Status FaultInjectionFile::DoWrite(PageId id, const char* data) {
  uint64_t index = write_ops_++;
  const FaultEvent* e = Match(FaultOp::kWrite, index, id);
  if (e == nullptr) return base_->WritePage(id, data);
  switch (e->kind) {
    case FaultKind::kTransientError:
      ++fault_stats_.transient_errors;
      return Status::Unavailable(Describe("transient write error", id));
    case FaultKind::kPermanentError:
      ++fault_stats_.permanent_errors;
      return Status::IOError(Describe("write error", id));
    case FaultKind::kTornWrite: {
      // The first half of the page reaches the medium, the rest keeps the
      // old content — the classic power-cut torn page.
      ++fault_stats_.torn_writes;
      std::vector<char> merged(page_size_);
      Status s = base_->ReadPage(id, merged.data());
      if (!s.ok()) return s;
      std::memcpy(merged.data(), data, page_size_ / 2);
      s = base_->WritePage(id, merged.data());
      if (!s.ok()) return s;
      return Status::IOError(Describe("torn write", id));
    }
    case FaultKind::kShortRead:  // read-only kind; treat as transparent
      return base_->WritePage(id, data);
    case FaultKind::kBitFlip: {
      ++fault_stats_.bit_flips;
      std::vector<char> flipped(data, data + page_size_);
      flipped[e->byte % page_size_] ^= static_cast<char>(e->bit_mask);
      return base_->WritePage(id, flipped.data());
    }
  }
  return Status::Internal("unreachable fault kind");
}

}  // namespace netclus
