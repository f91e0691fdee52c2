#include "rtree/level_scheduler.h"

#include <chrono>

namespace rtb::rtree {

namespace {

constexpr size_t kMaxFetchWindow = 8;

}  // namespace

size_t FetchWindow(const storage::PageCache& pool) {
  return std::min(kMaxFetchWindow,
                  std::max<size_t>(1, pool.capacity() / pool.num_shards() / 4));
}

LevelScheduler::LevelScheduler(storage::PageCache* pool, size_t workers)
    : pool_(pool) {
  RTB_CHECK(pool_ != nullptr);
  // The cursor's 16-bit claim count and index hold one claim per shard.
  RTB_CHECK(pool_->num_shards() < (size_t{1} << 16));
  workers = std::clamp<size_t>(workers, 1, pool_->num_shards());
  slots_.resize(workers);
  try {
    for (size_t w = 1; w < workers; ++w) {
      helpers_.emplace_back(&LevelScheduler::HelperLoop, this, w);
    }
  } catch (...) {
    StopHelpers();  // Join the helpers already started before unwinding.
    throw;
  }
}

LevelScheduler::~LevelScheduler() { StopHelpers(); }

void LevelScheduler::StopHelpers() {
  stop_.store(true, std::memory_order_release);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void LevelScheduler::HelperLoop(size_t worker) {
  uint32_t seen = 0;
  for (;;) {
    generation_.wait(seen, std::memory_order_acquire);
    seen = generation_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    Claim(worker, seen);
  }
}

void LevelScheduler::Claim(size_t worker, uint32_t generation) {
  uint64_t cursor = cursor_.load(std::memory_order_acquire);
  for (;;) {
    const size_t count = (cursor >> 16) & 0xFFFF;
    const size_t index = cursor & 0xFFFF;
    if ((cursor >> 32) != generation || index >= count) return;
    // Success publishes the level to this thread (the caller stored the
    // cursor with release after writing it) and keeps the level in place
    // until this claim is counted in finished_.
    if (!cursor_.compare_exchange_weak(cursor, cursor + 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      continue;
    }
    const uint32_t s = claim_order_[index];
    Slot& slot = slots_[worker];
    ++slot.claims;
    if (slot.status.ok()) {
      slot.status = (*walk_)(
          worker,
          std::span<const PageRun>(by_shard_.data() + shard_begin_[s],
                                   shard_begin_[s + 1] - shard_begin_[s]));
    }
    if (finished_.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
      finished_.notify_one();
    }
    cursor = cursor_.load(std::memory_order_acquire);
  }
}

Status LevelScheduler::Run(std::span<const PageRun> runs, const WalkFn& walk,
                           const MergeFn& merge) {
  Status status;
  if (runs.size() < kMinParallelRuns) {
    status = walk(0, runs);
  } else {
    ++parallel_levels_;
    // Regroup the runs by shard, keeping the sweep order within each.
    const size_t num_shards = pool_->num_shards();
    shard_begin_.assign(num_shards + 1, 0);
    shard_of_.resize(runs.size());
    for (size_t i = 0; i < runs.size(); ++i) {
      shard_of_[i] = static_cast<uint32_t>(pool_->ShardOf(runs[i].page));
      ++shard_begin_[shard_of_[i] + 1];
    }
    for (size_t s = 0; s < num_shards; ++s) {
      shard_begin_[s + 1] += shard_begin_[s];
    }
    shard_fill_.assign(shard_begin_.begin(), shard_begin_.end() - 1);
    by_shard_.resize(runs.size());
    for (size_t i = 0; i < runs.size(); ++i) {
      by_shard_[shard_fill_[shard_of_[i]]++] = runs[i];
    }
    claim_order_.clear();
    for (uint32_t s = 0; s < num_shards; ++s) {
      if (shard_begin_[s + 1] > shard_begin_[s]) claim_order_.push_back(s);
    }
    auto size_of = [this](uint32_t s) {
      return shard_begin_[s + 1] - shard_begin_[s];
    };
    std::stable_sort(claim_order_.begin(), claim_order_.end(),
                     [&size_of](uint32_t a, uint32_t b) {
                       return size_of(a) > size_of(b);
                     });
    // No claim of an earlier level is in flight: each ended with all of
    // its claims counted, so the slots and the level data are free.
    for (Slot& slot : slots_) slot.status = Status::OK();
    walk_ = &walk;
    const uint32_t generation =
        generation_.load(std::memory_order_relaxed) + 1;
    const uint32_t count = static_cast<uint32_t>(claim_order_.size());
    finished_.store(0, std::memory_order_relaxed);
    cursor_.store(Cursor(generation, count), std::memory_order_release);
    if (slots_.size() > 1) {
      generation_.store(generation, std::memory_order_release);
      generation_.notify_all();
    }
    Claim(0, generation);
    // Level barrier: every shard is claimed by now; wait for the claims
    // still being walked.
    const auto start = std::chrono::steady_clock::now();
    for (uint32_t done = finished_.load(std::memory_order_acquire);
         done != count; done = finished_.load(std::memory_order_acquire)) {
      finished_.wait(done, std::memory_order_acquire);
    }
    barrier_wait_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    walk_ = nullptr;
    for (const Slot& slot : slots_) {
      if (status.ok()) status = slot.status;
    }
  }
  for (size_t w = 0; w < slots_.size(); ++w) merge(w);
  return status;
}

SchedulerStats LevelScheduler::stats() const {
  SchedulerStats out;
  out.parallel_levels = parallel_levels_;
  for (const Slot& slot : slots_) out.shard_claims.push_back(slot.claims);
  out.barrier_wait_us = barrier_wait_ns_ / 1000;
  return out;
}

}  // namespace rtb::rtree
