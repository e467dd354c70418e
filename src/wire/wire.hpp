// Binary wire format: bounded writer/reader over byte buffers, and the
// field codecs every wire type's layout is written in.
//
// Every protocol message in this repository encodes itself through Writer
// so that overhead measurements (paper fig. 7a) are byte-accurate rather
// than guessed. Integers are encoded big-endian (network byte order).
// Reader performs bounds checking and latches an error flag instead of
// throwing: malformed input yields zero values and `ok() == false`, which
// callers must check once after decoding.
//
// A wire type writes its bytes down once, as a layout function
//
//   template <typename IO> void layout(IO& io, wire::Field<IO, T> v);
//
// in T's namespace (a hidden friend for messages) that calls layout(io,
// field) unqualified on each field in order. Run with a Writer it
// encodes; with a counting Writer it sizes; with a Reader it decodes into
// v. Argument-dependent lookup through `io` finds this file's codecs from
// any namespace. A reader layout fills a default-constructed value.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>  // C++20 (as is the defaulted operator== in net/address.hpp);
                 // the build pins cxx_std_20 in src/CMakeLists.txt — do not
                 // downgrade the standard.
#include <string_view>
#include <type_traits>
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
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
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
  /// A fixed-width integer, big-endian: counted in one step, or appended
  /// with one insert.
  template <typename T>
  void put(T v) {
    if (counting_) {
      counted_ += sizeof(T);
      return;
    }
    std::array<std::byte, sizeof(T)> be{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      be[i] = static_cast<std::byte>(v >> (8 * (sizeof(T) - 1 - i)));
    }
    buf_.insert(buf_.end(), be.begin(), be.end());
  }

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

/// What a layout takes: the value to write, or the one to read into.
template <typename IO, typename T>
using Field = std::conditional_t<std::is_same_v<IO, Reader>, T&, const T&>;

// Fixed-width integers.
inline void layout(Writer& w, std::uint8_t v) { w.u8(v); }
inline void layout(Writer& w, std::uint16_t v) { w.u16(v); }
inline void layout(Writer& w, std::uint32_t v) { w.u32(v); }
inline void layout(Writer& w, std::uint64_t v) { w.u64(v); }
inline void layout(Reader& r, std::uint8_t& v) { v = r.u8(); }
inline void layout(Reader& r, std::uint16_t& v) { v = r.u16(); }
inline void layout(Reader& r, std::uint32_t& v) { v = r.u32(); }
inline void layout(Reader& r, std::uint64_t& v) { v = r.u64(); }

/// An enum, as its underlying integer.
template <typename E>
  requires std::is_enum_v<E>
void layout(Writer& w, E e) {
  layout(w, static_cast<std::underlying_type_t<E>>(e));
}
template <typename E>
  requires std::is_enum_v<E>
void layout(Reader& r, E& e) {
  std::underlying_type_t<E> v{};
  layout(r, v);
  e = static_cast<E>(v);
}

/// A field whose value the protocol fixes: written as `v`, read and
/// dropped.
template <typename T>
void fixed(Writer& w, T v) {
  layout(w, v);
}
template <typename T>
void fixed(Reader& r, T /*v*/) {
  T skipped{};
  layout(r, skipped);
}

/// A list: its one-byte count, then each entry through `each(io, entry)`.
/// Configurations bound every list to kMaxListEntries, so a longer one
/// is a programmer error. A read stops at the first entry that fails.
template <typename T, typename Each>
void list(Writer& w, const std::vector<T>& v, Each each) {
  CROUPIER_ASSERT_MSG(v.size() <= kMaxListEntries,
                      "a wire list holds at most 255 entries");
  w.u8(static_cast<std::uint8_t>(v.size()));
  for (const T& entry : v) each(w, entry);
}
template <typename T, typename Each>
void list(Reader& r, std::vector<T>& v, Each each) {
  const std::size_t n = r.u8();
  v.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) each(r, v.emplace_back());
}

/// A list of entries that have a layout of their own.
template <typename T>
void layout(Writer& w, const std::vector<T>& v) {
  list(w, v, [](Writer& io, const T& entry) { layout(io, entry); });
}
template <typename T>
void layout(Reader& r, std::vector<T>& v) {
  list(r, v, [](Reader& io, T& entry) { layout(io, entry); });
}

/// The port every endpoint carries. Nodes gossip on one fixed port, so
/// the simulator writes this stand-in and drops it on read.
inline constexpr std::uint16_t kGossipPort = 0x2710;

/// An endpoint: a u32 address and the port, 6 bytes.
template <typename IO>
void endpoint(IO& io, Field<IO, std::uint32_t> address) {
  layout(io, address);
  fixed(io, kGossipPort);
}

/// An age in rounds, saturated into one byte.
inline void saturated_age(Writer& w, std::uint16_t age) {
  w.u8(static_cast<std::uint8_t>(std::min<std::uint16_t>(age, 0xff)));
}
inline void saturated_age(Reader& r, std::uint16_t& age) { age = r.u8(); }

}  // namespace croupier::wire
