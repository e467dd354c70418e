// Distributed public/private ratio estimation (paper §VI, Algorithm 3 and
// equations (1)-(9)).
//
// Croupiers (public nodes) count the shuffle requests they receive from
// public senders (c_u) and private senders (c_v) each round. Summed over a
// sliding window of the last α rounds (the *local history*), the counts
// give the node's local estimate E_i = C_ui / (C_ui + C_vi) — an unbiased
// sample of ω = |U| / (|U| + |V|) because every node, public or private,
// sends exactly one shuffle request per round to a uniformly random public
// node. Local estimates are disseminated piggy-backed on shuffle traffic;
// each node caches the most recent estimate per origin (the *neighbour
// history* M_i), drops entries older than γ rounds, and averages:
//   public node:  Ê(ω) = (Σ_{m∈M} E_m + E_i) / (|M| + 1)     (eq. 8)
//   private node: Ê(ω) =  Σ_{m∈M} E_m / |M|                  (eq. 9)
//
// Wire format per shared entry is 5 bytes (paper §VI: 2 B origin id, 1 B
// public hits, 1 B private hits, 1 B age); origins past 16 bits —
// million-node worlds — escape to 4 B through the 0xffff sentinel
// without perturbing a single byte of smaller worlds. A node keeps only
// what the wire carries: share() quantizes its window counts
// proportionally into the byte range once, when it builds its own entry,
// which preserves the ratio to ~1/255 — noise that averages out across
// M. Every cached and shared EstimateEntry is therefore its own wire
// image. The local estimate E_i and the per-round history stay exact.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/address.hpp"
#include "sim/rng.hpp"
#include "wire/wire.hpp"

namespace croupier::core {

/// E_i of equation (6) from one window's hit counts; 0 without hits.
[[nodiscard]] inline double hit_ratio(std::uint32_t pub_hits,
                                      std::uint32_t priv_hits) {
  const auto total = pub_hits + priv_hits;
  return total == 0 ? 0.0 : static_cast<double>(pub_hits) / total;
}

/// One node's local estimate as it travels between nodes: the one-byte
/// counts and age of its wire image.
struct EstimateEntry {
  net::NodeId origin = net::kNilNode;
  std::uint8_t pub_hits = 0;
  std::uint8_t priv_hits = 0;
  std::uint8_t age = 0;  // rounds since the origin computed it

  /// The ratio this entry encodes: E_i of equation (6).
  [[nodiscard]] double ratio() const { return hit_ratio(pub_hits, priv_hits); }

  friend bool operator==(const EstimateEntry&, const EstimateEntry&) = default;
};

/// Bytes one estimate entry occupies on the wire (paper §VI).
constexpr std::size_t kEstimateWireBytes = 5;

/// The one layout whose two directions differ, so writer and reader are
/// written out as a pair. Paper §VI carries 2 B origin ids, enough for
/// every paper-scale experiment. Worlds past 64Ki publics (croupier-lab's
/// 10^6-node sweep) escape through the 0xffff sentinel to a 4 B id; origins
/// below the sentinel encode byte-identically to the fixed 2 B format.
inline void layout(wire::Writer& w, const EstimateEntry& e) {
  if (e.origin < 0xffff) {
    w.u16(static_cast<std::uint16_t>(e.origin));
  } else {
    w.u16(0xffff);
    w.u32(e.origin);
  }
  w.u8(e.pub_hits);
  w.u8(e.priv_hits);
  w.u8(e.age);
}
inline void layout(wire::Reader& r, EstimateEntry& e) {
  e.origin = r.u16();
  if (e.origin == 0xffff) e.origin = r.u32();
  e.pub_hits = r.u8();
  e.priv_hits = r.u8();
  e.age = r.u8();
}

struct EstimatorConfig {
  std::size_t local_history = 25;      // α: rounds of own hit counts kept
  std::size_t neighbour_history = 50;  // γ: max age of cached estimates
  std::size_t share_limit = 10;        // entries piggy-backed per message

  /// Largest γ: an age is one byte on the wire, and cached ages are
  /// 8-bit round stamps, exact while no age passes γ + 1 <= 0xff.
  static constexpr std::size_t kMaxNeighbourHistory = 0xfe;
  /// Largest share_limit: an estimate list's wire count is one byte.
  static constexpr std::size_t kMaxShareLimit = wire::kMaxListEntries;
};

class RatioEstimator {
 public:
  RatioEstimator(net::NodeId self, net::NatType type, EstimatorConfig cfg);

  /// Advances one gossip round (paper Algorithm 2, lines 3-11): ages and
  /// expires cached estimates, recomputes the local estimate from the
  /// history window, then rolls the current round's hit counters into the
  /// history.
  void begin_round();

  /// Records an incoming shuffle request from a sender of the given type
  /// (Algorithm 2, lines 26-30). Only meaningful on public nodes.
  void count_request(net::NatType sender_type);

  /// Integrates estimates received in a shuffle message, retaining the
  /// most recent entry per origin (paper: "when two estimations for the
  /// same node are available, the older is replaced by the newer").
  void merge(std::span<const EstimateEntry> entries);

  /// The bounded random subset of cached estimates to piggy-back on an
  /// outgoing shuffle message; includes this node's own local estimate,
  /// its window counts quantized into the byte range, when one exists
  /// (public nodes). At most `share_limit` entries.
  [[nodiscard]] std::vector<EstimateEntry> share(sim::RngStream& rng) const;

  /// Ê(ω) per equations (8)/(9). Falls back to 0.5 when no information is
  /// available yet (fresh node, first rounds).
  [[nodiscard]] double estimate() const;

  /// E_i: this node's own window estimate, exact, if it has received any
  /// shuffle requests within the window (public nodes only).
  [[nodiscard]] std::optional<double> local_estimate() const;

  /// Introspection (tests, diagnostics): the cached estimates in cache
  /// order, with their current ages.
  [[nodiscard]] std::size_t cached_count() const { return origins_.size(); }
  [[nodiscard]] std::vector<EstimateEntry> cached() const;
  [[nodiscard]] const EstimatorConfig& config() const { return cfg_; }

 private:
  struct Hits {
    std::uint32_t pub;
    std::uint32_t priv;
  };
  struct WireHits {
    std::uint8_t pub;
    std::uint8_t priv;
  };

  [[nodiscard]] std::uint8_t age_at(std::size_t i) const {
    return static_cast<std::uint8_t>(round_ - born_[i]);
  }
  [[nodiscard]] EstimateEntry entry_at(std::size_t i) const {
    return EstimateEntry{origins_[i], hits_[i].pub, hits_[i].priv, age_at(i)};
  }
  [[nodiscard]] std::uint8_t birth_of(const EstimateEntry& e) const {
    return static_cast<std::uint8_t>(round_ - e.age);
  }
  [[nodiscard]] std::optional<EstimateEntry> own_entry() const;
  void expire_cache();

  net::NodeId self_;
  net::NatType type_;
  EstimatorConfig cfg_;

  // Hit counters for the in-progress round (c_u, c_v).
  std::uint32_t round_pub_hits_ = 0;
  std::uint32_t round_priv_hits_ = 0;
  // Per-round history (C_u, C_v): a ring of at most α rounds, reserved
  // at the first round and filled one round at a time. Once full,
  // history_next_ is the oldest round's position.
  std::vector<Hits> history_;
  std::size_t history_next_ = 0;
  // Windowed sums kept incrementally.
  std::uint64_t window_pub_ = 0;
  std::uint64_t window_priv_ = 0;
  // Rounds begun, mod 2^8: the clock the cache's birth stamps read.
  std::uint8_t round_ = 0;
  // Cached estimates from other nodes (M_i); never contains self. One
  // entry per position across three parallel columns, 7 B in all: its
  // origin, its one-byte hit counts and its birth round (round_ - age,
  // mod 2^8), so aging the cache is one increment of round_. Position
  // order is part of the output: share() draws and estimate() sums by it.
  std::vector<net::NodeId> origins_;
  std::vector<WireHits> hits_;
  std::vector<std::uint8_t> born_;
};

}  // namespace croupier::core
