// GF(2^8) arithmetic for the rateless erasure codec (fec/rateless).
//
// The field is GF(256) with the AES reduction polynomial x^8 + x^4 +
// x^3 + x + 1 (0x11b). All tables are built at compile time: log/exp
// tables over the generator 0x03 give inversion, and a 256 x 256
// product table derived from them gives multiplication. gf_mul and the
// row kernels read one product per byte from it, so they never branch
// on a byte's value; only a row coefficient of 1 takes another path, a
// plain XOR or nothing. No floating point, nothing the determinism
// contract has to worry about. Addition in GF(2^8) is XOR, which is why
// "XOR parity" is the k=1 special case of the same codec.
#pragma once

#include <cstddef>
#include <cstdint>

namespace croupier::fec {

/// a + b (== a - b) in GF(256).
constexpr std::uint8_t gf_add(std::uint8_t a, std::uint8_t b) {
  return a ^ b;
}

/// a * b in GF(256).
[[nodiscard]] std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b);

/// Multiplicative inverse; a must be non-zero.
[[nodiscard]] std::uint8_t gf_inv(std::uint8_t a);

/// dst[i] ^= coeff * src[i] over `len` bytes — the row operation both the
/// encoder and the Gaussian-elimination decoder are built from.
void gf_mul_add(std::byte* dst, const std::byte* src, std::size_t len,
                std::uint8_t coeff);

/// dst[i] *= coeff over `len` bytes (row normalization).
void gf_scale(std::byte* dst, std::size_t len, std::uint8_t coeff);

}  // namespace croupier::fec
