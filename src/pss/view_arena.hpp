// The World-owned pool that partial views draw their descriptor vectors
// from.
//
// Every PartialView keeps its descriptors in one std::pmr::vector whose
// memory resource is the World's ViewArena. The arena carves blocks out
// of 1 MiB slabs and keeps freed blocks on per-size free lists, so node
// churn recycles view blocks instead of calling the system allocator
// once per join, and the `pss.arena_*` layer metrics of bench/suite read
// its Stats. Views built without an arena (protocol unit tests) use
// std::pmr::new_delete_resource().
#pragma once

#include <cstddef>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <vector>

#include "common/hash_index.hpp"

namespace croupier::pss {

/// Largest view a PartialView holds. Views are small by design (paper
/// view size 10); the bound stops an absurd `view=` option, which the
/// registry rejects, before it reaches the allocator.
inline constexpr std::size_t kMaxViewSlots = 0x7fff;

/// Pool allocator for view blocks, owned by the World. Blocks come back
/// on node death and are reused by the next joiner. Thread-safe:
/// allocation happens on serial-affinity spawn/kill events, but the
/// parallel engine's workers may still be in flight, so the free lists
/// are guarded. Serves alignments up to 8 bytes, which covers every
/// descriptor type.
class ViewArena final : public std::pmr::memory_resource {
 public:
  ViewArena() = default;
  ViewArena(const ViewArena&) = delete;
  ViewArena& operator=(const ViewArena&) = delete;

  struct Stats {
    std::size_t slab_count = 0;   // backing slabs obtained from the heap
    std::size_t slab_bytes = 0;   // total bytes of backing storage
    std::size_t live_blocks = 0;  // blocks currently handed out
    std::size_t live_bytes = 0;
    std::size_t reuses = 0;  // allocations served from a free list
  };
  [[nodiscard]] Stats stats() const;

 private:
  static constexpr std::size_t kSlabBytes = std::size_t{1} << 20;

  /// An 8-byte-aligned block of at least `bytes` bytes.
  void* do_allocate(std::size_t bytes, std::size_t alignment) override;
  /// Returns a block to its size class; `bytes` is the allocated size.
  void do_deallocate(void* block, std::size_t bytes,
                     std::size_t alignment) override;
  [[nodiscard]] bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  mutable std::mutex mu_;
  HashIndex<std::size_t, std::vector<std::byte*>> free_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::byte* cursor_ = nullptr;
  std::size_t cursor_left_ = 0;
  Stats stats_;
};

}  // namespace croupier::pss
