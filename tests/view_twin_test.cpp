// The view twin test: pins PartialView to the seed's vector-of-structs
// semantics. A reference AoS implementation (a copy of the seed's
// PartialView) runs the same operation sequences — with twin RNG
// streams where draws are involved — and every intermediate state must
// match descriptor-for-descriptor in slot order, for plain descriptors
// and for Gozar's and Nylon's decorated ones. Slot order is the
// byte-identity lever: identical order means identical wire payloads
// and identical downstream RNG draws, which is what keeps every bench's
// output unchanged when the view's storage changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "baselines/gozar.hpp"
#include "baselines/nylon.hpp"
#include "pss/descriptor.hpp"
#include "pss/view.hpp"
#include "pss/view_arena.hpp"
#include "sim/rng.hpp"

namespace croupier::pss {
namespace {

/// The seed's AoS PartialView, verbatim semantics: linear find,
/// max_element first-max for oldest/force_add/healer, repeated
/// first-max eviction in set_capacity, rng.sample for subsets.
template <typename Desc>
class RefView {
 public:
  explicit RefView(std::size_t capacity) : capacity_(capacity) {
    entries_.reserve(capacity);
  }

  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (entries_.size() > capacity_) {
      entries_.erase(first_max());
    }
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool full() const { return entries_.size() >= capacity_; }
  [[nodiscard]] const std::vector<Desc>& entries() const { return entries_; }

  void age_all() {
    for (auto& d : entries_) d.bump_age();
  }

  [[nodiscard]] std::optional<Desc> oldest() const {
    if (entries_.empty()) return std::nullopt;
    return *first_max();
  }

  bool remove(net::NodeId id) {
    const auto idx = find_index(id);
    if (!idx.has_value()) return false;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(*idx));
    return true;
  }

  bool add_if_room(const Desc& d) {
    if (full() || find_index(d.id).has_value()) return false;
    entries_.push_back(d);
    return true;
  }

  void force_add(const Desc& d) {
    if (auto idx = find_index(d.id); idx.has_value()) {
      if (d.age < entries_[*idx].age) entries_[*idx] = d;
      return;
    }
    if (!full()) {
      entries_.push_back(d);
      return;
    }
    *first_max() = d;
  }

  [[nodiscard]] std::vector<Desc> random_subset(std::size_t n,
                                                sim::RngStream& rng) const {
    return rng.sample(std::span<const Desc>(entries_), n);
  }

  [[nodiscard]] std::vector<Desc> random_subset_excluding(
      std::size_t n, net::NodeId excluded, sim::RngStream& rng) const {
    std::vector<Desc> pool;
    pool.reserve(entries_.size());
    for (const auto& d : entries_) {
      if (d.id != excluded) pool.push_back(d);
    }
    return rng.sample(std::span<const Desc>(pool), n);
  }

  void merge_healer(std::span<const Desc> received, net::NodeId self) {
    for (const auto& r : received) {
      if (r.id == self) continue;
      if (auto idx = find_index(r.id); idx.has_value()) {
        if (r.age < entries_[*idx].age) entries_[*idx] = r;
        continue;
      }
      if (!full()) {
        entries_.push_back(r);
        continue;
      }
      auto it = first_max();
      if (it->age > r.age) *it = r;
    }
  }

  void merge_swapper(std::span<const Desc> sent,
                     std::span<const Desc> received, net::NodeId self) {
    std::deque<net::NodeId> evictable;
    for (const auto& d : sent) evictable.push_back(d.id);
    for (const auto& r : received) {
      if (r.id == self) continue;
      if (auto idx = find_index(r.id); idx.has_value()) {
        if (r.age < entries_[*idx].age) entries_[*idx] = r;
        continue;
      }
      if (!full()) {
        entries_.push_back(r);
        continue;
      }
      bool placed = false;
      while (!evictable.empty() && !placed) {
        const net::NodeId victim = evictable.front();
        evictable.pop_front();
        if (auto vidx = find_index(victim); vidx.has_value()) {
          entries_[*vidx] = r;
          placed = true;
        }
      }
    }
  }

 private:
  [[nodiscard]] std::optional<std::size_t> find_index(net::NodeId id) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].id == id) return i;
    }
    return std::nullopt;
  }

  [[nodiscard]] auto first_max() { return first_max_impl(entries_); }
  [[nodiscard]] auto first_max() const { return first_max_impl(entries_); }
  template <typename V>
  [[nodiscard]] static auto first_max_impl(V& v) {
    return std::max_element(v.begin(), v.end(),
                            [](const Desc& a, const Desc& b) {
                              return a.age < b.age;
                            });
  }

  std::size_t capacity_;
  std::vector<Desc> entries_;
};

NodeDescriptor desc(net::NodeId id, std::uint16_t age,
                    net::NatType nat = net::NatType::Public) {
  return NodeDescriptor{id, nat, age};
}

net::NatType nat_of(std::uint64_t bits) {
  return bits % 2 == 0 ? net::NatType::Public : net::NatType::Private;
}

/// Draws one descriptor over ids 1..`ids` with an age in 0..5, plus the
/// type's decoration: 0-3 relay parents for Gozar, the neighbour it was
/// learned from for Nylon.
template <typename Desc>
Desc draw(sim::RngStream& ops, std::uint64_t ids) {
  Desc d{};
  d.id = static_cast<net::NodeId>(ops.uniform(ids) + 1);
  d.age = static_cast<std::uint16_t>(ops.uniform(6));
  d.nat_type = nat_of(ops.uniform(3));
  if constexpr (std::is_same_v<Desc, baselines::GozarDescriptor>) {
    for (auto n = ops.uniform(4); n > 0; --n) {
      d.parents.push_back(static_cast<net::NodeId>(ops.uniform(ids) + 1));
    }
  } else if constexpr (std::is_same_v<Desc, baselines::NylonDescriptor>) {
    d.learned_from = static_cast<net::NodeId>(ops.uniform(ids) + 1);
  }
  return d;
}

/// Asserts slot-order equality between the view and the reference — the
/// property every downstream byte depends on.
template <typename Desc>
void expect_same(const PartialView<Desc>& v, const RefView<Desc>& ref,
                 const char* where) {
  ASSERT_EQ(v.size(), ref.size()) << where;
  const auto entries = v.entries();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(entries[i], ref.entries()[i]) << where << " slot " << i;
  }
  const auto v_old = v.oldest();
  const auto r_old = ref.oldest();
  ASSERT_EQ(v_old.has_value(), r_old.has_value()) << where;
  if (v_old.has_value()) {
    EXPECT_EQ(*v_old, *r_old) << where;
  }
}

/// One generator seed x a long op mix over ids 1..`ids`, covering every
/// PartialView mutation plus capacity shrink (to 1..`capacity`),
/// RNG-drawing subsets and `merge`-descriptor merges. Returns the largest
/// size the view reached.
template <typename Desc>
std::size_t run_operation_mix(std::uint64_t run, std::size_t capacity,
                              std::uint64_t ids, std::size_t merge) {
  sim::RngStream ops(run * 0x9E37);
  sim::RngStream rng_a(run * 0xC0FFEE);
  sim::RngStream rng_b(run * 0xC0FFEE);  // twin: must stay in lockstep
  PartialView<Desc> v(capacity);
  RefView<Desc> ref(capacity);
  std::size_t peak = 0;
  const auto received = [&] {
    std::vector<Desc> out;
    for (std::size_t k = 0; k < merge; ++k) out.push_back(draw<Desc>(ops, ids));
    return out;
  };

  for (int step = 0; step < 2000; ++step) {
    const auto d = draw<Desc>(ops, ids);
    const net::NodeId id = d.id;
    switch (ops.uniform(9)) {
      case 0:
        EXPECT_EQ(v.add_if_room(d), ref.add_if_room(d));
        break;
      case 1:
        v.force_add(d);
        ref.force_add(d);
        break;
      case 2:
        EXPECT_EQ(v.remove(id), ref.remove(id));
        break;
      case 3:
        v.age_all();
        ref.age_all();
        break;
      case 4: {
        const auto cap = ops.uniform(capacity) + 1;
        v.set_capacity(cap);
        ref.set_capacity(cap);
        break;
      }
      case 5: {
        const auto n = ops.uniform(6);
        EXPECT_EQ(v.random_subset(n, rng_a), ref.random_subset(n, rng_b));
        break;
      }
      case 6: {
        const auto n = ops.uniform(6);
        EXPECT_EQ(v.random_subset_excluding(n, id, rng_a),
                  ref.random_subset_excluding(n, id, rng_b));
        break;
      }
      case 7: {
        std::vector<Desc> sent = v.random_subset(3, rng_a);
        EXPECT_EQ(sent, ref.random_subset(3, rng_b));
        const auto in = received();
        v.merge_swapper(sent, in, /*self=*/5);
        ref.merge_swapper(sent, in, /*self=*/5);
        break;
      }
      default: {
        const auto in = received();
        v.merge_healer(in, /*self=*/5);
        ref.merge_healer(in, /*self=*/5);
        break;
      }
    }
    expect_same(v, ref, "after step");
    if (::testing::Test::HasFailure()) break;
    peak = std::max(peak, v.size());
  }
  return peak;
}

TEST(ViewTwin, RandomOperationMix) {
  for (std::uint64_t run = 1; run <= 3; ++run) {
    run_operation_mix<NodeDescriptor>(run, /*capacity=*/8, /*ids=*/24,
                                      /*merge=*/4);
    if (::testing::Test::HasFailure()) return;
  }
  // Views far above the paper's size 10 behave the same.
  std::size_t peak = 0;
  for (std::uint64_t run = 1; run <= 3; ++run) {
    peak = std::max(peak, run_operation_mix<NodeDescriptor>(
                              run, /*capacity=*/100, /*ids=*/300,
                              /*merge=*/40));
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(peak, 64u);
}

// Gozar's relay parents and Nylon's learned_from travel with their
// descriptor through every slot move: assignment, eviction, compaction.
template <typename Desc>
void run_decorated_mix() {
  for (std::uint64_t run = 1; run <= 3; ++run) {
    run_operation_mix<Desc>(run, /*capacity=*/8, /*ids=*/24, /*merge=*/4);
    if (::testing::Test::HasFailure()) return;
    run_operation_mix<Desc>(run, /*capacity=*/40, /*ids=*/120,
                            /*merge=*/16);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(ViewTwin, GozarDescriptorOperationMix) {
  run_decorated_mix<baselines::GozarDescriptor>();
}

TEST(ViewTwin, NylonDescriptorOperationMix) {
  run_decorated_mix<baselines::NylonDescriptor>();
}

TEST(ViewTwin, ForceAddTieBreaksOnFirstMax) {
  // Several slots share the max age; the seed replaced the *first* of
  // them (max_element with strict less). Pin that tie-break.
  PartialView<NodeDescriptor> v(3);
  RefView<NodeDescriptor> ref(3);
  for (const auto& d : {desc(1, 7), desc(2, 7), desc(3, 7)}) {
    v.force_add(d);
    ref.force_add(d);
  }
  v.force_add(desc(9, 0));
  ref.force_add(desc(9, 0));
  expect_same(v, ref, "first tie-break");
  EXPECT_EQ(v.entries()[0].id, 9u);  // slot 0 held the first max

  v.force_add(desc(10, 0));
  ref.force_add(desc(10, 0));
  expect_same(v, ref, "second tie-break");
  EXPECT_EQ(v.entries()[1].id, 10u);
}

TEST(ViewTwin, SetCapacityShrinkMatchesRepeatedFirstMax) {
  // The view shrinks in one pass (k largest by age, ties by earliest
  // slot); the seed looped remove-first-max. Same survivors, same order.
  PartialView<NodeDescriptor> v(8);
  RefView<NodeDescriptor> ref(8);
  const std::uint16_t ages[] = {3, 9, 1, 9, 4, 9, 2, 0};
  for (std::size_t i = 0; i < std::size(ages); ++i) {
    const auto d = desc(static_cast<net::NodeId>(i + 1), ages[i]);
    v.add_if_room(d);
    ref.add_if_room(d);
  }
  v.set_capacity(3);
  ref.set_capacity(3);
  expect_same(v, ref, "shrink to 3");
  v.set_capacity(1);
  ref.set_capacity(1);
  expect_same(v, ref, "shrink to 1");
}

TEST(ViewTwin, AgeSaturationKeepsOldestStable) {
  // Saturated ages tie at 0xffff: after age_all the first saturated
  // slot must win, exactly as max_element did.
  PartialView<NodeDescriptor> v(4);
  RefView<NodeDescriptor> ref(4);
  for (const auto& d : {desc(1, 0xfffe), desc(2, 0xffff), desc(3, 0xfffd)}) {
    v.add_if_room(d);
    ref.add_if_room(d);
  }
  for (int i = 0; i < 4; ++i) {
    v.age_all();
    ref.age_all();
    expect_same(v, ref, "saturating bump");
  }
  EXPECT_EQ(v.oldest()->id, 1u);  // 1 and 2 both saturated; 1 is first
}

TEST(ViewArena, BlocksAreReusedAcrossViews) {
  ViewArena arena;
  {
    PartialView<NodeDescriptor> a(8, &arena);
    for (net::NodeId id = 1; id <= 8; ++id) a.add_if_room(desc(id, 0));
  }
  const auto after_first = arena.stats();
  EXPECT_EQ(after_first.live_blocks, 0u);
  EXPECT_GE(after_first.slab_bytes, after_first.live_bytes);
  {
    PartialView<NodeDescriptor> b(8, &arena);
    b.add_if_room(desc(42, 3, net::NatType::Private));
    const auto live = arena.stats();
    EXPECT_EQ(live.live_blocks, 1u);
    EXPECT_EQ(live.live_bytes, 8 * sizeof(NodeDescriptor));
    EXPECT_GE(live.reuses, 1u);  // same size class: the freed block
    EXPECT_EQ(live.slab_count, after_first.slab_count);  // no new slab
    EXPECT_EQ(b.entries()[0], desc(42, 3, net::NatType::Private));
  }
  EXPECT_EQ(arena.stats().live_blocks, 0u);
}

}  // namespace
}  // namespace croupier::pss
