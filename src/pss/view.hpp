// Bounded partial view with the paper's selection/merge policies.
//
// All four protocols (Croupier, Cyclon, Gozar, Nylon) use the same view
// mechanics from Jelasity et al. [7]:
//  - "tail" node selection: pick the descriptor with the highest age;
//  - random bounded subsets for the exchanged state;
//  - "swapper" view merging (paper Algorithm 2, updateView): keep the
//    newer copy of a known node, fill free space, and once full evict
//    exactly the descriptors that were shipped to the other side.
//
// The view is templated on the descriptor type because Gozar and Nylon
// decorate descriptors with traversal state (relay parents / RVPs); any
// Desc with `id`, `age` and `bump_age()` works.
//
// Storage is one std::pmr::vector<Desc> drawn from the World's ViewArena
// (pss/view_arena.hpp). Views hold about 10 slots, so membership probes
// and the oldest-slot query are linear scans. The slot rules are the
// ones every output byte depends on: descriptors keep append order, an
// update assigns in place, erase compacts to the left, and the oldest
// entry is the first slot of maximal age. tests/view_twin_test.cpp pins
// them against a reference implementation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory_resource>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "net/address.hpp"
#include "pss/view_arena.hpp"
#include "sim/conflict.hpp"
#include "sim/rng.hpp"

namespace croupier::pss {

/// View-merge policy (Jelasity et al. [7]). The paper's comparison runs
/// every system with Swapper; Healer is provided for ablating that
/// design choice (bench/ablation_merge).
enum class MergePolicy : std::uint8_t {
  Swapper = 0,  // evict exactly what was sent; minimal information loss
  Healer = 1,   // keep the freshest descriptors; fastest staleness purge
};

template <typename Desc>
class PartialView {
 public:
  /// A view of `capacity` slots whose storage comes from `arena`, or
  /// from the heap when `arena` is null.
  explicit PartialView(std::size_t capacity, ViewArena* arena = nullptr)
      : capacity_(capacity),
        entries_(arena != nullptr
                     ? static_cast<std::pmr::memory_resource*>(arena)
                     : std::pmr::new_delete_resource()) {
    CROUPIER_ASSERT(capacity > 0 && capacity <= kMaxViewSlots);
    entries_.reserve(capacity);
  }

  // A copied pmr::vector would take the default resource and leave the
  // arena, so views are not copyable.
  PartialView(const PartialView&) = delete;
  PartialView& operator=(const PartialView&) = delete;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Tags the view with the node that owns it, for the conflict checker
  /// (CROUPIER_CONFLICT_CHECK builds): every mutation then asserts it
  /// happens on that node's own shard. Untagged views (tests, benches)
  /// keep owner 0 and are never checked. No-op in normal builds.
#if defined(CROUPIER_CONFLICT_CHECK)
  void set_owner(net::NodeId owner) { owner_ = owner; }
#else
  void set_owner(net::NodeId /*owner*/) {}
#endif

  /// Rebounds the view. Shrinking evicts oldest descriptors first (the
  /// repeated first-max eviction of the original, computed as one pass:
  /// the k evicted slots are exactly the k largest ages, ties broken by
  /// earliest slot). Used by Croupier's ratio-proportional view sizing,
  /// where the public/private capacity split tracks the estimated ratio.
  void set_capacity(std::size_t capacity) {
    CROUPIER_ASSERT(capacity > 0 && capacity <= kMaxViewSlots);
    record_mutation("PartialView::set_capacity");
    capacity_ = capacity;
    entries_.reserve(capacity);
    if (entries_.size() <= capacity_) return;

    // Oldest first; ties by earliest slot — the order repeated
    // remove-first-max would pick victims in.
    const std::size_t evict = entries_.size() - capacity_;
    std::vector<std::uint32_t> order(entries_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::partial_sort(order.begin(), order.begin() + evict, order.end(),
                      [this](std::uint32_t a, std::uint32_t b) {
                        if (entries_[a].age != entries_[b].age) {
                          return entries_[a].age > entries_[b].age;
                        }
                        return a < b;
                      });
    std::vector<bool> victim(entries_.size(), false);
    for (std::size_t i = 0; i < evict; ++i) victim[order[i]] = true;
    std::size_t out = 0;
    for (std::size_t in = 0; in < entries_.size(); ++in) {
      if (victim[in]) continue;
      if (out != in) entries_[out] = std::move(entries_[in]);
      ++out;
    }
    entries_.resize(out);
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] bool full() const { return entries_.size() >= capacity_; }

  /// The descriptors in slot order.
  [[nodiscard]] std::span<const Desc> entries() const { return entries_; }

  [[nodiscard]] bool contains(net::NodeId id) const {
    return slot_of(id) != entries_.end();
  }

  [[nodiscard]] std::optional<Desc> find(net::NodeId id) const {
    const auto slot = slot_of(id);
    if (slot == entries_.end()) return std::nullopt;
    return *slot;
  }

  /// Ages every descriptor by one round.
  void age_all() {
    record_mutation("PartialView::age_all");
    for (auto& d : entries_) d.bump_age();
  }

  /// Tail policy: the oldest descriptor (ties broken by position, which is
  /// deterministic). Empty view yields nullopt.
  [[nodiscard]] std::optional<Desc> oldest() const {
    if (entries_.empty()) return std::nullopt;
    return *oldest_slot();
  }

  /// Removes a node if present; returns whether it was there.
  bool remove(net::NodeId id) {
    const auto slot = slot_of(id);
    if (slot == entries_.end()) return false;
    record_mutation("PartialView::remove");
    entries_.erase(slot);
    return true;
  }

  /// Inserts if the node is absent and space remains. Returns whether the
  /// descriptor was inserted.
  bool add_if_room(const Desc& d) {
    if (full() || contains(d.id)) return false;
    record_mutation("PartialView::add_if_room");
    entries_.push_back(d);
    return true;
  }

  /// Unconditional insert used at bootstrap: if full, replaces the oldest
  /// descriptor; if the node is present, keeps the newer copy.
  void force_add(const Desc& d) {
    record_mutation("PartialView::force_add");
    if (const auto slot = slot_of(d.id); slot != entries_.end()) {
      if (d.age < slot->age) *slot = d;
      return;
    }
    if (!full()) {
      entries_.push_back(d);
      return;
    }
    *oldest_slot() = d;
  }

  /// Uniformly random subset of up to n descriptors (without replacement).
  [[nodiscard]] std::vector<Desc> random_subset(std::size_t n,
                                                sim::RngStream& rng) const {
    std::vector<Desc> pool(entries_.begin(), entries_.end());
    pool.resize(rng.sample_prefix(std::span<Desc>(pool), n));
    return pool;
  }

  /// Random subset of up to n descriptors, never including `excluded`.
  /// One pass: the pool is copied already filtered and sampled in place
  /// (no second copy inside the RNG).
  [[nodiscard]] std::vector<Desc> random_subset_excluding(
      std::size_t n, net::NodeId excluded, sim::RngStream& rng) const {
    std::vector<Desc> pool;
    pool.reserve(entries_.size());
    for (const auto& d : entries_) {
      if (d.id != excluded) pool.push_back(d);
    }
    pool.resize(rng.sample_prefix(std::span<Desc>(pool), n));
    return pool;
  }

  /// Uniformly random single entry.
  [[nodiscard]] std::optional<Desc> random_entry(sim::RngStream& rng) const {
    if (entries_.empty()) return std::nullopt;
    return entries_[rng.index(entries_.size())];
  }

  /// Healer merge (Jelasity et al. [7]): integrates `received` keeping
  /// the *freshest* descriptors overall — when the view overflows, the
  /// oldest entries are evicted regardless of what was sent. Heals stale
  /// state fastest at the cost of more information loss than swapper.
  /// `self` is never inserted.
  void merge_healer(std::span<const Desc> received, net::NodeId self) {
    record_mutation("PartialView::merge_healer");
    for (const auto& r : received) {
      if (r.id == self) continue;
      if (const auto slot = slot_of(r.id); slot != entries_.end()) {
        if (r.age < slot->age) *slot = r;
        continue;
      }
      if (!full()) {
        entries_.push_back(r);
        continue;
      }
      const auto victim = oldest_slot();
      if (victim->age > r.age) *victim = r;  // only if strictly fresher
    }
  }

  /// Swapper merge (paper Algorithm 2, `updateView`): integrates
  /// `received` into the view given that `sent` was shipped to the peer.
  /// `self` is never inserted. `sent` must not alias the view's slots.
  void merge_swapper(std::span<const Desc> sent, std::span<const Desc> received,
                     net::NodeId self) {
    record_mutation("PartialView::merge_swapper");
    std::size_t next_victim = 0;  // sent descriptors are evicted in order
    for (const auto& r : received) {
      if (r.id == self) continue;
      if (const auto slot = slot_of(r.id); slot != entries_.end()) {
        // Node already known: keep the more recent descriptor.
        if (r.age < slot->age) *slot = r;
        continue;
      }
      if (!full()) {
        entries_.push_back(r);
        continue;
      }
      // Full: evict one of the descriptors we sent away (swap semantics —
      // minimal information loss, per the swapper policy).
      bool placed = false;
      while (next_victim < sent.size() && !placed) {
        const net::NodeId victim = sent[next_victim++].id;
        if (const auto vslot = slot_of(victim); vslot != entries_.end()) {
          *vslot = r;
          placed = true;
        }
      }
      // No sent descriptor remains in the view: drop `r` (view stays full).
    }
  }

  void clear() {
    record_mutation("PartialView::clear");
    entries_.clear();
  }

 private:
  using Slots = std::pmr::vector<Desc>;

  /// The slot holding `id`, or end(): a linear scan.
  [[nodiscard]] typename Slots::iterator slot_of(net::NodeId id) {
    return std::ranges::find(entries_, id, &Desc::id);
  }
  [[nodiscard]] typename Slots::const_iterator slot_of(net::NodeId id) const {
    return std::ranges::find(entries_, id, &Desc::id);
  }

  /// The first slot of maximal age; the view must not be empty.
  [[nodiscard]] typename Slots::iterator oldest_slot() {
    return std::ranges::max_element(entries_, {}, &Desc::age);
  }
  [[nodiscard]] typename Slots::const_iterator oldest_slot() const {
    return std::ranges::max_element(entries_, {}, &Desc::age);
  }

  /// Conflict-checker probe on every mutation path; compiles to nothing
  /// in normal builds.
  void record_mutation(const char* site) const {
#if defined(CROUPIER_CONFLICT_CHECK)
    sim::conflict::record_write(owner_, site);
#else
    (void)site;
#endif
  }

  std::size_t capacity_;
  Slots entries_;
#if defined(CROUPIER_CONFLICT_CHECK)
  net::NodeId owner_ = 0;  // 0 = untagged; never checked
#endif
};

/// Dispatches a merge through the configured policy.
template <typename Desc>
void merge_by_policy(PartialView<Desc>& view, MergePolicy policy,
                     std::span<const Desc> sent,
                     std::span<const Desc> received, net::NodeId self) {
  if (policy == MergePolicy::Swapper) {
    view.merge_swapper(sent, received, self);
  } else {
    view.merge_healer(received, self);
  }
}

}  // namespace croupier::pss
