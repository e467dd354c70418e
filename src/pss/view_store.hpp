// Columnar (struct-of-arrays) storage for partial views, plus the
// World-owned arena the per-node view blocks are carved from.
//
// Motivation (million-node Worlds): a PartialView held a
// std::vector<Desc> — one heap block per view, descriptors stored as
// array-of-structs with padding. At 10^6 nodes that is 2·10^6 malloc'd
// vectors. ViewStore instead packs each view into one arena block laid
// out as separate columns:
//
//   ids    : NodeId[R]            4 bytes/entry
//   ages   : uint16_t[R]          2 bytes/entry, saturating at 0xffff
//   nats   : uint8_t[ceil(R/4)]   NAT class, dictionary-encoded to 2 bits
//
// Membership probes (slot_of) scan the packed id column: views are sized
// by the protocol's `view=` option (paper default 10), and at 4
// bytes/entry one or two cache lines of ids beat any hash.
//
// The NAT column is dictionary-encoded in the column-store sense
// (hyrise-style): the column holds 2-bit code points, and NatDictionary
// maps codes to the NatType domain values. Two codes are in use today
// (Public/Private); the width leaves room for four without a layout
// change.
//
// Descriptor types that decorate the base (id, nat, age) triple with
// protocol state (Gozar's relay parents, Nylon's learned_from) declare
// the decoration through a ViewTraits specialization; it is stored in a
// side column so the hot columns stay packed.
//
// Slot semantics are identical to the vector they replace: slots are
// ordered, erase shifts subsequent slots down (preserving relative
// order), and the "oldest" slot is the FIRST slot of maximal age. The
// max-age slot is maintained incrementally instead of recomputed with
// std::max_element per query. None of this changes observable behavior:
// the same operation sequence yields the same slot contents in the same
// order, so selection, merging, and therefore output bytes are
// unchanged (pinned by tests/view_store_test.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/hash_index.hpp"
#include "net/address.hpp"
#include "pss/descriptor.hpp"

namespace croupier::pss {

/// Pool allocator for view column blocks, owned by the World. Blocks
/// come back on node death and are reused by the next joiner, so heavy
/// churn does not touch the system allocator. Thread-safe: allocation
/// happens on serial-affinity spawn/kill events, but the parallel
/// engine's workers may still be in flight, so the free lists are
/// guarded.
class ViewArena {
 public:
  ViewArena() = default;
  ViewArena(const ViewArena&) = delete;
  ViewArena& operator=(const ViewArena&) = delete;

  /// Returns an 8-byte-aligned block of at least `bytes` bytes.
  std::byte* allocate(std::size_t bytes);

  /// Returns a block to the pool. `bytes` must match the allocate() size.
  void release(std::byte* block, std::size_t bytes);

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

  mutable std::mutex mu_;
  HashIndex<std::size_t, std::vector<std::byte*>> free_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::byte* cursor_ = nullptr;
  std::size_t cursor_left_ = 0;
  Stats stats_;
};

/// The 2-bit NAT-class dictionary: code points <-> domain values.
struct NatDictionary {
  static constexpr std::uint8_t kBits = 2;
  static constexpr std::uint8_t kMask = 0x3;

  static constexpr std::uint8_t encode(net::NatType t) {
    return static_cast<std::uint8_t>(t) & kMask;
  }
  static constexpr net::NatType decode(std::uint8_t code) {
    return static_cast<net::NatType>(code);
  }
};

/// Describes how a descriptor type maps onto the columns. Specialize for
/// every Desc used with ViewStore/PartialView. `Extra` is the
/// protocol-specific decoration beyond (id, nat, age); use an empty
/// struct and kHasExtra = false when there is none.
template <typename Desc>
struct ViewTraits;

template <>
struct ViewTraits<NodeDescriptor> {
  static constexpr bool kHasExtra = false;
  struct Extra {};

  static net::NodeId id(const NodeDescriptor& d) { return d.id; }
  static net::NatType nat(const NodeDescriptor& d) { return d.nat_type; }
  static std::uint16_t age(const NodeDescriptor& d) { return d.age; }
  static Extra extra(const NodeDescriptor&) { return {}; }
  static NodeDescriptor make(net::NodeId id, net::NatType nat,
                             std::uint16_t age, const Extra&) {
    return NodeDescriptor{id, nat, age};
  }
};

/// Largest view a ViewStore holds. Views are small by design (paper view
/// size 10); the bound stops an absurd `view=` option, which the
/// registry rejects, before it reaches the allocator.
inline constexpr std::size_t kMaxViewSlots = 0x7fff;

/// Columnar bounded sequence of descriptors with an
/// incrementally-maintained first-max-age slot.
template <typename Desc>
class ViewStore {
 public:
  using Traits = ViewTraits<Desc>;

  explicit ViewStore(std::size_t capacity, ViewArena* arena = nullptr)
      : arena_(arena) {
    CROUPIER_ASSERT(capacity > 0);
    grow_storage(static_cast<std::uint32_t>(capacity));
  }

  ~ViewStore() { free_block(); }

  ViewStore(const ViewStore&) = delete;
  ViewStore& operator=(const ViewStore&) = delete;

  ViewStore(ViewStore&& other) noexcept { steal(other); }
  ViewStore& operator=(ViewStore&& other) noexcept {
    if (this != &other) {
      free_block();
      steal(other);
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t reserved() const { return reserved_; }

  /// Ensures storage for at least `capacity` slots (never shrinks:
  /// Croupier's ratio-proportional sizing oscillates every round, and
  /// realloc thrash would cost more than the slack).
  void reserve(std::size_t capacity) {
    if (capacity > reserved_) {
      grow_storage(static_cast<std::uint32_t>(
          std::max<std::size_t>(capacity, std::size_t{reserved_} * 2)));
    }
  }

  // The per-slot readers skip bounds assertions: they sit inside every
  // hot loop, callers derive i from size()/slot_of(), and the mutation
  // ops still assert. tests/view_store_test.cpp pins the semantics.
  [[nodiscard]] net::NodeId id_at(std::size_t i) const { return ids_[i]; }
  [[nodiscard]] std::uint16_t age_at(std::size_t i) const { return ages_[i]; }
  [[nodiscard]] net::NatType nat_at(std::size_t i) const {
    const std::uint8_t byte = nats_[i >> 2];
    return NatDictionary::decode(
        static_cast<std::uint8_t>(byte >> ((i & 3u) * NatDictionary::kBits)) &
        NatDictionary::kMask);
  }

  /// Materializes the descriptor stored at slot i.
  [[nodiscard]] Desc get(std::size_t i) const {
    if constexpr (Traits::kHasExtra) {
      return Traits::make(ids_[i], nat_at(i), ages_[i], extra_[i]);
    } else {
      return Traits::make(ids_[i], nat_at(i), ages_[i], {});
    }
  }

  /// Bulk-materializes every slot into `out` (replacing its contents) —
  /// the subset/sampling paths' copy, done in one sized pass.
  void materialize_into(std::vector<Desc>& out) const {
    out.clear();
    out.reserve(size_);
    for (std::uint32_t i = 0; i < size_; ++i) out.push_back(get(i));
  }

  /// Overwrites slot i (the id may change — swapper eviction does this).
  void assign(std::size_t i, const Desc& d) {
    CROUPIER_ASSERT(i < size_);
    const std::uint16_t old_age = ages_[i];
    write_columns(i, d);
    if (i == max_slot_) {
      // Slot i held the first maximal age; a smaller age may demote it.
      if (ages_[i] < old_age) recompute_max();
    } else if (ages_[i] > ages_[max_slot_] ||
               (ages_[i] == ages_[max_slot_] && i < max_slot_)) {
      max_slot_ = static_cast<std::uint32_t>(i);
    }
  }

  void push_back(const Desc& d) {
    reserve(std::size_t{size_} + 1);
    const std::uint32_t i = size_++;
    write_columns(i, d);
    if (i == 0 || ages_[i] > ages_[max_slot_]) max_slot_ = i;
  }

  /// Removes slot i; later slots shift down one (relative order kept).
  void erase_at(std::size_t i) {
    CROUPIER_ASSERT(i < size_);
    const std::size_t tail = size_ - i - 1;
    std::memmove(ids_ + i, ids_ + i + 1, tail * sizeof(*ids_));
    std::memmove(ages_ + i, ages_ + i + 1, tail * sizeof(*ages_));
    // Delete field i from the packed 2-bit nat column: within its byte,
    // fields below i stay put and the rest shift down one field; every
    // later byte shifts whole, pulling its low field from the next byte.
    {
      const std::size_t last_byte = size_ >= 1 ? (size_ - 1) >> 2 : 0;
      std::size_t b = i >> 2;
      const auto r = static_cast<std::uint8_t>((i & 3u) * NatDictionary::kBits);
      const auto low_mask = static_cast<std::uint8_t>((1u << r) - 1u);
      const std::uint8_t next = b < last_byte ? nats_[b + 1] : 0;
      nats_[b] = static_cast<std::uint8_t>(
          (nats_[b] & low_mask) |
          (static_cast<std::uint8_t>(nats_[b] >> 2) &
           static_cast<std::uint8_t>(~low_mask)) |
          static_cast<std::uint8_t>(next << 6));
      for (++b; b <= last_byte; ++b) {
        const std::uint8_t hi = b < last_byte ? nats_[b + 1] : 0;
        nats_[b] = static_cast<std::uint8_t>(
            static_cast<std::uint8_t>(nats_[b] >> 2) |
            static_cast<std::uint8_t>(hi << 6));
      }
    }
    if constexpr (Traits::kHasExtra) {
      extra_.erase(extra_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    --size_;
    if (size_ == 0) {
      max_slot_ = 0;
    } else if (i == max_slot_) {
      recompute_max();
    } else if (i < max_slot_) {
      --max_slot_;
    }
  }

  /// Removes every slot listed in `slots` (ascending, no duplicates) in
  /// one compaction pass — the multi-evict path of set_capacity.
  void erase_slots_sorted(std::span<const std::uint32_t> slots) {
    if (slots.empty()) return;
    std::size_t next_victim = 0;
    std::size_t out = 0;
    for (std::size_t in = 0; in < size_; ++in) {
      if (next_victim < slots.size() && slots[next_victim] == in) {
        ++next_victim;
        continue;
      }
      if (out != in) {
        ids_[out] = ids_[in];
        ages_[out] = ages_[in];
        set_nat(out, nat_at(in));
        if constexpr (Traits::kHasExtra) {
          extra_[out] = std::move(extra_[in]);
        }
      }
      ++out;
    }
    CROUPIER_ASSERT(next_victim == slots.size());
    size_ = static_cast<std::uint32_t>(out);
    if constexpr (Traits::kHasExtra) {
      extra_.resize(size_);
    }
    recompute_max();
  }

  /// Ages every slot by one round (saturating), maintaining the max slot:
  /// a uniform bump cannot move the first argmax unless the current max
  /// is already saturated and another slot catches up to the tie.
  void bump_ages() {
    if (size_ == 0) return;
    const bool saturated = ages_[max_slot_] == 0xffff;
    for (std::size_t i = 0; i < size_; ++i) {
      // Branchless saturating increment; the loop auto-vectorizes.
      ages_[i] = static_cast<std::uint16_t>(
          ages_[i] + static_cast<std::uint16_t>(ages_[i] != 0xffff));
    }
    if (saturated) recompute_max();
  }

  void clear() {
    size_ = 0;
    max_slot_ = 0;
    if constexpr (Traits::kHasExtra) extra_.clear();
  }

  /// id -> slot lookup: a scan of the packed id column (4 bytes/entry).
  [[nodiscard]] std::optional<std::uint32_t> slot_of(net::NodeId id) const {
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (ids_[i] == id) return i;
    }
    return std::nullopt;
  }

  /// First slot of maximal age ("oldest" under the tail policy).
  [[nodiscard]] std::uint32_t oldest_slot() const {
    CROUPIER_ASSERT(size_ > 0);
    return max_slot_;
  }

 private:
  static constexpr std::size_t block_bytes(std::uint32_t r) {
    const std::size_t raw = std::size_t{r} * sizeof(net::NodeId) +
                            std::size_t{r} * sizeof(std::uint16_t) +
                            (std::size_t{r} + 3) / 4;
    return (raw + 7) & ~std::size_t{7};
  }

  void recompute_max() {
    max_slot_ = 0;
    for (std::uint32_t i = 1; i < size_; ++i) {
      if (ages_[i] > ages_[max_slot_]) max_slot_ = i;
    }
  }

  void set_nat(std::size_t i, net::NatType t) {
    const std::size_t byte = i >> 2;
    const auto shift =
        static_cast<std::uint8_t>((i & 3u) * NatDictionary::kBits);
    nats_[byte] = static_cast<std::uint8_t>(
        (nats_[byte] & ~(NatDictionary::kMask << shift)) |
        (NatDictionary::encode(t) << shift));
  }

  void write_columns(std::size_t i, const Desc& d) {
    ids_[i] = Traits::id(d);
    ages_[i] = Traits::age(d);
    set_nat(i, Traits::nat(d));
    if constexpr (Traits::kHasExtra) {
      if (extra_.size() <= i) extra_.resize(i + 1);
      extra_[i] = Traits::extra(d);
    }
  }

  void grow_storage(std::uint32_t new_reserved) {
    CROUPIER_ASSERT(new_reserved <= kMaxViewSlots);
    const std::size_t bytes = block_bytes(new_reserved);
    std::byte* block =
        arena_ != nullptr ? arena_->allocate(bytes) : new std::byte[bytes];

    auto* new_ids = reinterpret_cast<net::NodeId*>(block);
    auto* new_ages = reinterpret_cast<std::uint16_t*>(
        block + std::size_t{new_reserved} * sizeof(net::NodeId));
    auto* new_nats = reinterpret_cast<std::uint8_t*>(new_ages + new_reserved);

    if (size_ > 0) {
      std::memcpy(new_ids, ids_, std::size_t{size_} * sizeof(net::NodeId));
      std::memcpy(new_ages, ages_, std::size_t{size_} * sizeof(std::uint16_t));
      std::memcpy(new_nats, nats_, (std::size_t{size_} + 3) / 4);
    }
    free_block();

    block_ = block;
    block_bytes_ = bytes;
    ids_ = new_ids;
    ages_ = new_ages;
    nats_ = new_nats;
    reserved_ = new_reserved;
  }

  void free_block() {
    if (block_ == nullptr) return;
    if (arena_ != nullptr) {
      arena_->release(block_, block_bytes_);
    } else {
      delete[] block_;
    }
    block_ = nullptr;
  }

  void steal(ViewStore& other) {
    arena_ = other.arena_;
    block_ = std::exchange(other.block_, nullptr);
    block_bytes_ = other.block_bytes_;
    ids_ = other.ids_;
    ages_ = other.ages_;
    nats_ = other.nats_;
    size_ = std::exchange(other.size_, 0);
    reserved_ = std::exchange(other.reserved_, 0);
    max_slot_ = std::exchange(other.max_slot_, 0);
    if constexpr (Traits::kHasExtra) extra_ = std::move(other.extra_);
  }

  struct NoExtra {};
  using ExtraColumn =
      std::conditional_t<Traits::kHasExtra,
                         std::vector<typename Traits::Extra>, NoExtra>;

  ViewArena* arena_ = nullptr;
  std::byte* block_ = nullptr;
  std::size_t block_bytes_ = 0;
  net::NodeId* ids_ = nullptr;
  std::uint16_t* ages_ = nullptr;
  std::uint8_t* nats_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t reserved_ = 0;
  std::uint32_t max_slot_ = 0;
  [[no_unique_address]] ExtraColumn extra_;
};

}  // namespace croupier::pss
