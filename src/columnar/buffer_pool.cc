#include "columnar/buffer_pool.h"

#include <utility>

namespace prost::columnar {
namespace {

/// Decoded in-memory footprint of a column chunk (what the budget caps).
uint64_t DecodedColumnBytes(const Column& column) {
  if (column.kind() == ColumnKind::kId) {
    return sizeof(TermId) * column.ids().size();
  }
  const IdListColumn& lists = column.lists();
  return sizeof(uint32_t) * lists.offsets.size() +
         sizeof(TermId) * lists.values.size();
}

obs::MetricsRegistry* ResolveRegistry(
    obs::MetricsRegistry* metrics,
    std::unique_ptr<obs::MetricsRegistry>* owned) {
  if (metrics != nullptr) return metrics;
  // Called once per counter member: create the fallback exactly once.
  if (*owned == nullptr) *owned = std::make_unique<obs::MetricsRegistry>();
  return owned->get();
}

}  // namespace

/// One cached page. Lifecycle: kLoading (decode in flight, lock dropped)
/// -> kLoaded (data valid) or kFailed (status valid; erased when the
/// last waiter drops its pin). `pins` > 0 blocks eviction; `lru_tick`
/// orders eviction among unpinned loaded frames.
struct PageFrame {
  enum State { kLoading, kLoaded, kFailed };

  PageKey key;
  State state = kLoading;
  Status status = Status::OK();
  Column data;
  uint64_t bytes = 0;
  uint32_t pins = 0;
  uint64_t lru_tick = 0;
};

const Column& PinnedPage::column() const { return frame_->data; }

void PinnedPage::Release() {
  if (pool_ != nullptr && frame_ != nullptr) pool_->Unpin(frame_);
  pool_ = nullptr;
  frame_ = nullptr;
}

BufferPool::BufferPool(uint64_t budget_bytes, obs::MetricsRegistry* metrics)
    : budget_bytes_(budget_bytes),
      owned_metrics_(),
      pages_pinned_(ResolveRegistry(metrics, &owned_metrics_)
                        ->counter("storage.pages_pinned")),
      page_misses_(ResolveRegistry(metrics, &owned_metrics_)
                       ->counter("storage.page_misses")),
      evictions_(ResolveRegistry(metrics, &owned_metrics_)
                     ->counter("storage.evictions")),
      row_groups_skipped_(ResolveRegistry(metrics, &owned_metrics_)
                              ->counter("storage.row_groups_skipped_zonemap")),
      partitions_skipped_(ResolveRegistry(metrics, &owned_metrics_)
                              ->counter("storage.partitions_skipped_bloom")),
      bytes_scanned_(ResolveRegistry(metrics, &owned_metrics_)
                         ->counter("storage.bytes_scanned")) {}

BufferPool::~BufferPool() = default;

Result<PinnedPage> BufferPool::Pin(const PagedTable& table, uint32_t group,
                                   uint32_t column) {
  PageKey key{&table, group, column};
  pages_pinned_.Increment();
  MutexLock lock(mu_);
  auto it = frames_.find(key);
  if (it != frames_.end()) {
    PageFrame* frame = it->second.get();
    ++frame->pins;
    while (frame->state == PageFrame::kLoading) loaded_cv_.Wait(mu_);
    if (frame->state == PageFrame::kFailed) {
      Status status = frame->status;
      if (--frame->pins == 0) {
        PageKey dead = frame->key;
        frames_.erase(dead);
      }
      return status;
    }
    frame->lru_tick = ++lru_tick_;
    return PinnedPage(this, frame);
  }

  auto inserted = frames_.emplace(key, std::make_unique<PageFrame>());
  PageFrame* frame = inserted.first->second.get();
  frame->key = key;
  frame->pins = 1;
  frame->state = PageFrame::kLoading;
  page_misses_.Increment();
  // Decode outside the lock: other pages stay pinnable during the
  // decode, and concurrent pins of *this* page wait on loaded_cv_.
  lock.Unlock();
  Result<Column> decoded = table.DecodeChunk(group, column);
  lock.Lock();
  if (!decoded.ok()) {
    frame->state = PageFrame::kFailed;
    frame->status = decoded.status();
    loaded_cv_.NotifyAll();
    Status status = frame->status;
    if (--frame->pins == 0) {
      PageKey dead = frame->key;
      frames_.erase(dead);
    }
    return status;
  }
  frame->data = std::move(decoded).value();
  frame->bytes = DecodedColumnBytes(frame->data);
  frame->state = PageFrame::kLoaded;
  frame->lru_tick = ++lru_tick_;
  resident_bytes_ += frame->bytes;
  loaded_cv_.NotifyAll();
  EvictToBudgetLocked();
  return PinnedPage(this, frame);
}

void BufferPool::Unpin(PageFrame* frame) {
  MutexLock lock(mu_);
  --frame->pins;
  if (frame->pins == 0 && OverBudgetLocked()) {
    EvictToBudgetLocked();
  }
}

void BufferPool::EvictToBudgetLocked() {
  while (OverBudgetLocked()) {
    PageFrame* victim = nullptr;
    for (auto& [key, frame] : frames_) {
      if (frame->state != PageFrame::kLoaded || frame->pins != 0) continue;
      if (victim == nullptr || frame->lru_tick < victim->lru_tick) {
        victim = frame.get();
      }
    }
    if (victim == nullptr) return;  // Everything resident is pinned.
    resident_bytes_ -= victim->bytes;
    evictions_.Increment();
    PageKey dead = victim->key;
    frames_.erase(dead);
  }
}

BufferPool::Stats BufferPool::GetStats() const {
  MutexLock lock(mu_);
  Stats stats;
  stats.resident_bytes = resident_bytes_;
  for (const auto& [key, frame] : frames_) {
    if (frame->state == PageFrame::kLoaded) ++stats.resident_pages;
    if (frame->pins > 0) ++stats.pinned_pages;
  }
  return stats;
}

void BufferPool::NoteScan(uint64_t row_groups_skipped,
                          uint64_t partitions_skipped, uint64_t bytes_scanned) {
  if (row_groups_skipped > 0) row_groups_skipped_.Add(row_groups_skipped);
  if (partitions_skipped > 0) partitions_skipped_.Add(partitions_skipped);
  if (bytes_scanned > 0) bytes_scanned_.Add(bytes_scanned);
}

}  // namespace prost::columnar
