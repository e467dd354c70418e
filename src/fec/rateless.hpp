// Rateless erasure codec over GF(256) for fragmented messages.
//
// A message split into k equal-size chunks (tail zero-padded) can ship
// any number of extra repair fragments; a receiver reconstructs the
// message from ANY k distinct fragments, source or repair — the k-of-n
// property (wh256/Wirehair-style, but with a systematic Cauchy
// construction instead of random rows so recovery is guaranteed, not
// just probable).
//
// Repair row r mixes the sources with Cauchy coefficients
//   coeff(r, i) = 1 / ((k + r) XOR i)   in GF(256),
// a pure function of (k, r, i): repair payloads can be generated on
// demand ("rateless") without consuming any RNG stream, and both sides
// derive the same matrix from the fragment indices already on the wire.
// Every square submatrix of a Cauchy matrix is invertible, so decoding
// succeeds at exactly k received rows and fails cleanly below k. The
// construction needs k + repairs <= 256 distinct field points
// (kMaxCodedFragments); the packet layer falls back to plain
// fragmentation beyond that.
//
// Both halves work on caller-owned or construction-time memory: the
// encoder writes a repair row into a row the caller provides, and the
// decoder keeps its k rows in one flat allocation made when it is
// built, eliminates over them in place once the k-th row arrives, and
// hands back a view of the solved source chunks.
#pragma once

#include <bitset>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace croupier::fec {

/// Cauchy construction limit: source + repair fragment indices must be
/// distinct points of GF(256).
constexpr std::size_t kMaxCodedFragments = 256;

/// Coefficient of source chunk `source_index` (< k) in repair row
/// `repair_index` (wire fragment index k + repair_index).
[[nodiscard]] std::uint8_t repair_coeff(std::size_t k,
                                        std::size_t repair_index,
                                        std::size_t source_index);

/// Writes repair payload `repair_index` over `message` split into k
/// chunks of chunk_len bytes (the tail chunk implicitly zero-padded)
/// into `row`, every one of its chunk_len bytes. `row` must not overlap
/// `message`. Requires k >= 1, k * chunk_len >= message.size() and
/// k + repair_index < kMaxCodedFragments.
void encode_repair(std::span<const std::byte> message, std::size_t k,
                   std::size_t chunk_len, std::size_t repair_index,
                   std::span<std::byte> row);

/// Accumulates received fragments of one coded message and solves for
/// the source chunks once k distinct rows arrived.
class Decoder {
 public:
  Decoder(std::size_t k, std::size_t chunk_len);

  /// Adds fragment `index` (< k: source chunk, >= k: repair row). Short
  /// payloads are zero-padded to chunk_len. Returns false for a
  /// duplicate index or when k rows are already held.
  bool add(std::size_t index, std::span<const std::byte> payload);

  /// True once k distinct fragments are held.
  [[nodiscard]] bool ready() const { return rows_ == k_; }
  [[nodiscard]] std::size_t rows() const { return rows_; }

  /// Gaussian elimination over the held rows, in place: the
  /// concatenated k source chunks (k * chunk_len bytes), a view into the
  /// decoder. Empty when fewer than k rows are held, or when the rows are
  /// singular, which the Cauchy construction rules out for its own
  /// fragments. Row operations keep the rank, so a repeated call finds
  /// the identity and returns the same view, or fails again.
  std::span<const std::byte> decode();

 private:
  [[nodiscard]] std::byte* data_row(std::size_t row) {
    return matrix_.data() + row * chunk_len_;
  }
  [[nodiscard]] std::byte* coeff_row(std::size_t row) {
    return matrix_.data() + k_ * chunk_len_ + row * k_;
  }

  std::size_t k_;
  std::size_t chunk_len_;
  std::size_t rows_ = 0;
  std::bitset<kMaxCodedFragments> held_;  // accepted fragment indices
  /// k data rows of chunk_len bytes, then k coefficient rows of k bytes,
  /// each held row at its arrival position until elimination sorts the
  /// data rows into source order.
  std::vector<std::byte> matrix_;
};

}  // namespace croupier::fec
