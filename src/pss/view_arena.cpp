#include "pss/view_arena.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace croupier::pss {

namespace {

constexpr std::size_t kAlign = 8;

std::size_t round_up(std::size_t bytes) {
  return (bytes + kAlign - 1) & ~(kAlign - 1);
}

}  // namespace

void* ViewArena::do_allocate(std::size_t bytes, std::size_t alignment) {
  CROUPIER_ASSERT(bytes > 0);
  CROUPIER_ASSERT(alignment <= kAlign);
  bytes = round_up(bytes);
  std::lock_guard<std::mutex> lock(mu_);

  if (auto it = free_.find(bytes); it != free_.end() && !it->second.empty()) {
    std::byte* block = it->second.back();
    it->second.pop_back();
    ++stats_.reuses;
    ++stats_.live_blocks;
    stats_.live_bytes += bytes;
    return block;
  }

  if (bytes > cursor_left_) {
    // Oversized requests get a dedicated slab; normal ones start a fresh
    // slab and the remainder of the old one is abandoned (bounded waste:
    // view blocks are a few hundred bytes against 1 MiB slabs).
    const std::size_t slab_bytes = std::max(bytes, kSlabBytes);
    slabs_.push_back(std::make_unique<std::byte[]>(slab_bytes));
    cursor_ = slabs_.back().get();
    cursor_left_ = slab_bytes;
    ++stats_.slab_count;
    stats_.slab_bytes += slab_bytes;
  }

  std::byte* block = cursor_;
  cursor_ += bytes;
  cursor_left_ -= bytes;
  ++stats_.live_blocks;
  stats_.live_bytes += bytes;
  return block;
}

void ViewArena::do_deallocate(void* block, std::size_t bytes,
                              std::size_t /*alignment*/) {
  bytes = round_up(bytes);
  std::lock_guard<std::mutex> lock(mu_);
  free_[bytes].push_back(static_cast<std::byte*>(block));
  CROUPIER_ASSERT(stats_.live_blocks > 0);
  --stats_.live_blocks;
  stats_.live_bytes -= bytes;
}

ViewArena::Stats ViewArena::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace croupier::pss
