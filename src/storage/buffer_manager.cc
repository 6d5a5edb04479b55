#include "storage/buffer_manager.h"

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "common/check.h"
#include "common/crc32c.h"

namespace netclus {

namespace {

// Page footer: [crc32c u32][page id u32], where the crc
// covers the payload plus the page id, so a structurally valid page read
// from the wrong offset (misdirected I/O) also fails verification.
uint32_t PageCrc(const char* data, uint32_t payload_bytes, PageId page) {
  uint32_t crc = Crc32c(data, payload_bytes);
  return Crc32cExtend(crc, &page, sizeof(page));
}

}  // namespace

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    bm_ = other.bm_;
    frame_ = other.frame_;
    data_ = other.data_;
    page_id_ = other.page_id_;
    other.bm_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

void PageHandle::MarkDirty() {
  if (bm_ != nullptr) bm_->frames_[frame_].dirty = true;
}

void PageHandle::Release() {
  if (bm_ != nullptr) {
    bm_->Unpin(frame_, /*dirty=*/false);
    bm_ = nullptr;
    data_ = nullptr;
  }
}

BufferManager::BufferManager(uint64_t pool_bytes, uint32_t page_size)
    : page_size_(page_size) {
  size_t n = static_cast<size_t>(pool_bytes / page_size);
  if (n == 0) n = 1;
  frames_.resize(n);
  free_frames_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    frames_[i].data = std::make_unique<char[]>(page_size_);
    free_frames_.push_back(n - 1 - i);  // hand out frame 0 first
  }
}

BufferManager::~BufferManager() {
  Status s = FlushAll();
  (void)s;  // destructor cannot propagate errors; tests call FlushAll().
}

FileId BufferManager::RegisterFile(PagedFile* file) {
  // A mismatched page size would corrupt every frame swap; this is a
  // caller bug, kept fatal in release builds.
  NETCLUS_CHECK_EQ(file->page_size(), page_size_)
      << "RegisterFile: file page size does not match the buffer pool";
  files_.push_back(file);
  return static_cast<FileId>(files_.size() - 1);
}

Status BufferManager::ReadPageChecked(FileId file, PageId page, char* out) {
  uint64_t backoff = retry_policy_.backoff_micros;
  for (uint32_t attempt = 0;; ++attempt) {
    Status s = files_[file]->ReadPage(page, out);
    if (s.ok()) break;
    if (!s.IsUnavailable() || attempt >= retry_policy_.max_retries) {
      if (s.IsUnavailable()) ++stats_.retries_exhausted;
      return s;
    }
    ++stats_.read_retries;
    if (sleep_micros_) {
      sleep_micros_(backoff);
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    }
    backoff = static_cast<uint64_t>(
        static_cast<double>(backoff) * retry_policy_.backoff_multiplier);
  }
  const uint32_t payload = page_size_ - kPageFooterBytes;
  uint32_t stored_crc, stored_page;
  std::memcpy(&stored_crc, out + payload, sizeof(stored_crc));
  std::memcpy(&stored_page, out + payload + 4, sizeof(stored_page));
  if (stored_page != page || stored_crc != PageCrc(out, payload, page)) {
    ++stats_.checksum_failures;
    return Status::Corruption(
        "page checksum mismatch: file " + std::to_string(file) + ", page " +
        std::to_string(page) + " (file offset " +
        std::to_string(static_cast<uint64_t>(page) * page_size_) + ")");
  }
  return Status::OK();
}

Status BufferManager::WritePageChecked(FileId file, PageId page, char* data) {
  const uint32_t payload = page_size_ - kPageFooterBytes;
  uint32_t crc = PageCrc(data, payload, page);
  std::memcpy(data + payload, &crc, sizeof(crc));
  std::memcpy(data + payload + 4, &page, sizeof(page));
  return files_[file]->WritePage(page, data);
}

void BufferManager::Unpin(size_t frame, bool dirty) {
  Frame& f = frames_[frame];
  NETCLUS_CHECK_GT(f.pins, 0u)
      << "Unpin of frame " << frame << " without a matching pin";
  if (dirty) f.dirty = true;
  if (--f.pins == 0) {
    lru_.push_back(frame);
    f.lru_it = std::prev(lru_.end());
    f.in_lru = true;
  }
}

Result<size_t> BufferManager::GrabFrame() {
  if (!free_frames_.empty()) {
    size_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  if (lru_.empty()) {
    return Status::Internal("buffer pool exhausted: all frames pinned");
  }
  size_t victim = lru_.front();
  lru_.pop_front();
  Frame& f = frames_[victim];
  f.in_lru = false;
  if (f.dirty) {
    NETCLUS_RETURN_IF_ERROR(WritePageChecked(f.file, f.page, f.data.get()));
    f.dirty = false;
    ++stats_.dirty_writebacks;
  }
  page_table_.erase(Key(f.file, f.page));
  f.in_use = false;
  ++stats_.evictions;
  return victim;
}

Result<PageHandle> BufferManager::InstallPage(FileId file, PageId page,
                                              bool read_from_disk) {
  Result<size_t> grabbed = GrabFrame();
  if (!grabbed.ok()) return grabbed.status();
  size_t frame = grabbed.value();
  Frame& f = frames_[frame];
  if (read_from_disk) {
    Status s = ReadPageChecked(file, page, f.data.get());
    if (!s.ok()) {
      free_frames_.push_back(frame);
      return s;
    }
  } else {
    std::memset(f.data.get(), 0, page_size_);
  }
  f.file = file;
  f.page = page;
  f.pins = 1;
  f.dirty = false;
  f.in_use = true;
  f.in_lru = false;
  page_table_[Key(file, page)] = frame;
  return PageHandle(this, frame, f.data.get(), page);
}

Result<PageHandle> BufferManager::FetchPage(FileId file, PageId page) {
  if (file >= files_.size()) {
    return Status::InvalidArgument("FetchPage: unknown file id");
  }
  auto it = page_table_.find(Key(file, page));
  if (it != page_table_.end()) {
    ++stats_.hits;
    size_t frame = it->second;
    Frame& f = frames_[frame];
    if (f.pins == 0 && f.in_lru) {
      lru_.erase(f.lru_it);
      f.in_lru = false;
    }
    ++f.pins;
    return PageHandle(this, frame, f.data.get(), page);
  }
  ++stats_.misses;
  return InstallPage(file, page, /*read_from_disk=*/true);
}

Result<PageHandle> BufferManager::NewPage(FileId file) {
  if (file >= files_.size()) {
    return Status::InvalidArgument("NewPage: unknown file id");
  }
  Result<PageId> page = files_[file]->AllocatePage();
  if (!page.ok()) return page.status();
  ++stats_.misses;
  Result<PageHandle> handle =
      InstallPage(file, page.value(), /*read_from_disk=*/false);
  if (handle.ok()) {
    // The zeroed content only exists in the frame; make sure it reaches
    // disk even if the caller never writes to the page.
    frames_[handle.value().frame_].dirty = true;
  }
  return handle;
}

Status BufferManager::FlushAll() {
  for (Frame& f : frames_) {
    if (f.in_use && f.dirty) {
      NETCLUS_RETURN_IF_ERROR(WritePageChecked(f.file, f.page, f.data.get()));
      f.dirty = false;
      ++stats_.dirty_writebacks;
    }
  }
  return Status::OK();
}

size_t BufferManager::pinned_frames() const {
  size_t n = 0;
  for (const Frame& f : frames_) {
    if (f.in_use && f.pins > 0) ++n;
  }
  return n;
}

}  // namespace netclus
