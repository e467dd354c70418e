#include "fec/gf256.hpp"

#include <array>

#include "common/assert.hpp"

namespace croupier::fec {

namespace {

struct Tables {
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 512> exp{};  // doubled so a log sum skips a mod 255
};

constexpr Tables build_tables() {
  Tables t{};
  std::uint32_t x = 1;
  for (std::uint32_t i = 0; i < 255; ++i) {
    t.exp[i] = static_cast<std::uint8_t>(x);
    t.log[x] = static_cast<std::uint8_t>(i);
    // Multiply by the generator 0x03 = x + 1: x*3 = (x << 1) ^ x, reduced
    // by 0x11b when the degree-8 bit appears.
    x = (x << 1) ^ x;
    if (x & 0x100) x ^= 0x11b;
  }
  for (std::uint32_t i = 255; i < 512; ++i) {
    t.exp[i] = t.exp[i - 255];
  }
  return t;
}

constexpr Tables kTables = build_tables();

/// Row c holds c * b for every b, so a row kernel multiplies each byte
/// with one lookup into a single 256-byte row.
using ProductRow = std::array<std::uint8_t, 256>;

constexpr std::array<ProductRow, 256> build_products() {
  std::array<ProductRow, 256> p{};  // row 0 and column 0 stay zero
  // The 65,025 inner steps go through raw pointers, taken outside the
  // loop that runs them, so they make no function call: a compiler's
  // constant evaluator counts every statement of every call against its
  // step limit (clang's default is 2^20 steps).
  const std::uint8_t* log = kTables.log.data();
  const std::uint8_t* exp = kTables.exp.data();
  for (std::size_t a = 1; a < 256; ++a) {
    std::uint8_t* row = p[a].data();
    const std::size_t log_a = log[a];
    for (std::size_t b = 1; b < 256; ++b) {
      row[b] = exp[log_a + static_cast<std::size_t>(log[b])];
    }
  }
  return p;
}

/// 64 KiB, built by the compiler into read-only data: a run that never
/// codes a fragment never faults its pages in.
constexpr std::array<ProductRow, 256> kProducts = build_products();

}  // namespace

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  return kProducts[a][b];
}

std::uint8_t gf_inv(std::uint8_t a) {
  CROUPIER_ASSERT_MSG(a != 0, "GF(256) inverse of zero");
  return kTables.exp[255 - static_cast<std::size_t>(kTables.log[a])];
}

void gf_mul_add(std::byte* dst, const std::byte* src, std::size_t len,
                std::uint8_t coeff) {
  if (coeff == 1) {  // a plain XOR, which the compiler vectorizes
    for (std::size_t i = 0; i < len; ++i) dst[i] ^= src[i];
    return;
  }
  const ProductRow& row = kProducts[coeff];
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] ^= std::byte{row[std::to_integer<std::uint8_t>(src[i])]};
  }
}

void gf_scale(std::byte* dst, std::size_t len, std::uint8_t coeff) {
  if (coeff == 1) return;  // every source row's pivot in the decoder
  CROUPIER_ASSERT(coeff != 0);
  const ProductRow& row = kProducts[coeff];
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] = std::byte{row[std::to_integer<std::uint8_t>(dst[i])]};
  }
}

}  // namespace croupier::fec
