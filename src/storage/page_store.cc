#include "storage/page_store.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

namespace rtb::storage {

namespace {

bool InitialDurableSync() {
  if (const char* env = std::getenv("RTB_NO_FSYNC")) {
    if (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
        std::strcmp(env, "true") == 0) {
      return false;
    }
  }
  return true;
}

std::atomic<bool>& DurableSyncSlot() {
  static std::atomic<bool> slot{InitialDurableSync()};
  return slot;
}

}  // namespace

bool DurableSyncActive() {
  return DurableSyncSlot().load(std::memory_order_relaxed);
}

void SetDurableSync(bool on) {
  DurableSyncSlot().store(on, std::memory_order_relaxed);
}

MemPageStore::MemPageStore(size_t page_size) : page_size_(page_size) {
  RTB_CHECK(page_size > 0);
}

Result<PageId> MemPageStore::Allocate() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (pages_.size() >= kInvalidPageId) {
    return Status::ResourceExhausted("page id space exhausted");
  }
  pages_.emplace_back(page_size_, uint8_t{0});
  allocations_.fetch_add(1, std::memory_order_relaxed);
  return static_cast<PageId>(pages_.size() - 1);
}

Status MemPageStore::ReadBatch(const PageId* ids, size_t n,
                               uint8_t* const* out) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (size_t i = 0; i < n; ++i) {
    if (ids[i] >= pages_.size()) {
      return Status::NotFound("read of unallocated page " +
                              std::to_string(ids[i]));
    }
    std::memcpy(out[i], pages_[ids[i]].data(), page_size_);
    reads_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status MemPageStore::WriteBatch(const PageId* ids, size_t n,
                                const uint8_t* const* data) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (size_t i = 0; i < n; ++i) {
    if (ids[i] >= pages_.size()) {
      return Status::NotFound("write of unallocated page " +
                              std::to_string(ids[i]));
    }
    std::memcpy(pages_[ids[i]].data(), data[i], page_size_);
    writes_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

}  // namespace rtb::storage
