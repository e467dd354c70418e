#include "fec/rateless.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "fec/gf256.hpp"

namespace croupier::fec {

std::uint8_t repair_coeff(std::size_t k, std::size_t repair_index,
                          std::size_t source_index) {
  CROUPIER_ASSERT(source_index < k);
  CROUPIER_ASSERT(k + repair_index < kMaxCodedFragments);
  // x_r = k + repair_index and y_i = source_index never collide (x >= k,
  // y < k), so the XOR is non-zero and invertible.
  const auto x = static_cast<std::uint8_t>(k + repair_index);
  const auto y = static_cast<std::uint8_t>(source_index);
  return gf_inv(static_cast<std::uint8_t>(x ^ y));
}

void encode_repair(std::span<const std::byte> message, std::size_t k,
                   std::size_t chunk_len, std::size_t repair_index,
                   std::span<std::byte> row) {
  CROUPIER_ASSERT(k >= 1 && chunk_len >= 1);
  CROUPIER_ASSERT(k * chunk_len >= message.size());
  CROUPIER_ASSERT(row.size() == chunk_len);
  std::fill(row.begin(), row.end(), std::byte{0});
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t begin = i * chunk_len;
    if (begin >= message.size()) break;  // all-zero tail chunks contribute 0
    const std::size_t len = std::min(chunk_len, message.size() - begin);
    gf_mul_add(row.data(), message.data() + begin, len,
               repair_coeff(k, repair_index, i));
  }
}

Decoder::Decoder(std::size_t k, std::size_t chunk_len)
    : k_(k), chunk_len_(chunk_len) {
  CROUPIER_ASSERT(k >= 1 && chunk_len >= 1);
  CROUPIER_ASSERT(k <= kMaxCodedFragments);
  matrix_.assign(k * (chunk_len + k), std::byte{0});
}

bool Decoder::add(std::size_t index, std::span<const std::byte> payload) {
  CROUPIER_ASSERT(payload.size() <= chunk_len_);
  CROUPIER_ASSERT(index < kMaxCodedFragments);
  if (rows_ == k_ || held_.test(index)) return false;
  held_.set(index);
  // The row's slot is still all zero: the payload's padding and every
  // coefficient it does not set stay zero.
  std::byte* coeff = coeff_row(rows_);
  if (index < k_) {
    coeff[index] = std::byte{1};
  } else {
    for (std::size_t i = 0; i < k_; ++i) {
      coeff[i] = std::byte{repair_coeff(k_, index - k_, i)};
    }
  }
  if (!payload.empty()) {
    std::memcpy(data_row(rows_), payload.data(), payload.size());
  }
  ++rows_;
  return true;
}

std::span<const std::byte> Decoder::decode() {
  if (rows_ < k_) return {};
  for (std::size_t col = 0; col < k_; ++col) {
    // Partial "pivoting": any row with a non-zero entry works over a
    // field; take the first for determinism.
    std::size_t pivot = col;
    while (pivot < k_ && coeff_row(pivot)[col] == std::byte{0}) ++pivot;
    if (pivot == k_) return {};  // singular
    if (pivot != col) {
      std::swap_ranges(data_row(col), data_row(col) + chunk_len_,
                       data_row(pivot));
      std::swap_ranges(coeff_row(col), coeff_row(col) + k_,
                       coeff_row(pivot));
    }
    // The pivot row is zero left of `col`, so whole-row operations
    // change only the columns from `col` on.
    const std::uint8_t inv =
        gf_inv(std::to_integer<std::uint8_t>(coeff_row(col)[col]));
    gf_scale(data_row(col), chunk_len_, inv);
    gf_scale(coeff_row(col), k_, inv);
    for (std::size_t r = 0; r < k_; ++r) {
      if (r == col) continue;
      const auto f = std::to_integer<std::uint8_t>(coeff_row(r)[col]);
      if (f == 0) continue;
      gf_mul_add(data_row(r), data_row(col), chunk_len_, f);
      gf_mul_add(coeff_row(r), coeff_row(col), k_, f);
    }
  }
  return {matrix_.data(), k_ * chunk_len_};
}

}  // namespace croupier::fec
