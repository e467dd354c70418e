// Binary wire format: bounded writer/reader over byte buffers.
//
// Every protocol message in this repository encodes itself through Writer
// so that overhead measurements (paper fig. 7a) are byte-accurate rather
// than guessed. Integers are encoded big-endian (network byte order).
// Reader performs bounds checking and latches an error flag instead of
// throwing: malformed input yields zero values and `ok() == false`, which
// callers must check once after decoding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>  // C++20 (as is the defaulted operator== in net/address.hpp);
                 // the build pins cxx_std_20 in src/CMakeLists.txt — do not
                 // downgrade the standard.
#include <string_view>
#include <vector>

#include "common/assert.hpp"

namespace croupier::wire {

/// Most entries one list on the wire holds: its count is one byte.
inline constexpr std::size_t kMaxListEntries = 0xff;

class Writer {
 public:
  /// A writer that stores nothing and only counts the bytes written:
  /// sizing a message allocates nothing. data() and take() assert on it.
  [[nodiscard]] static Writer counting() {
    Writer w;
    w.counting_ = true;
    return w;
  }

  /// Reserves room for `n` bytes, so a caller that sized the message
  /// first encodes it, and can grow the buffer to `n`, without a
  /// reallocation.
  void reserve(std::size_t n) {
    if (!counting_) buf_.reserve(n);
  }

  void u8(std::uint8_t v) {
    if (counting_) {
      ++counted_;
    } else {
      buf_.push_back(static_cast<std::byte>(v));
    }
  }
  /// A list's one-byte entry count. Configurations bound every list to
  /// kMaxListEntries, so a longer one is a programmer error.
  void list_count(std::size_t n) {
    CROUPIER_ASSERT_MSG(n <= kMaxListEntries,
                        "a wire list holds at most 255 entries");
    u8(static_cast<std::uint8_t>(n));
  }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::byte> data);

  [[nodiscard]] std::size_t size() const {
    return counting_ ? counted_ : buf_.size();
  }
  [[nodiscard]] std::span<const std::byte> data() const {
    CROUPIER_ASSERT_MSG(!counting_, "a counting writer keeps no bytes");
    return buf_;
  }

  /// Consumes the writer, releasing the underlying buffer.
  std::vector<std::byte> take() && {
    CROUPIER_ASSERT_MSG(!counting_, "a counting writer keeps no bytes");
    return std::move(buf_);
  }

 private:
  std::vector<std::byte> buf_;
  std::size_t counted_ = 0;
  bool counting_ = false;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();

  /// Reads `n` raw bytes (a fragment payload, an opaque blob). Returns
  /// an empty span — and latches ok() == false — when fewer than `n`
  /// remain, mirroring the zero-value scalar reads.
  std::span<const std::byte> bytes(std::size_t n);

  /// Number of unread bytes.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  /// False once any read ran past the end of the buffer.
  [[nodiscard]] bool ok() const { return ok_; }

  /// True when the buffer was consumed exactly and without error.
  [[nodiscard]] bool exhausted() const { return ok_ && remaining() == 0; }

 private:
  bool take(std::size_t n);

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace croupier::wire
