#include "wire/wire.hpp"

namespace croupier::wire {

void Writer::bytes(std::span<const std::byte> data) {
  if (counting_) {
    counted_ += data.size();
    return;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

bool Reader::take(std::size_t n) {
  if (!ok_ || remaining() < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!take(1)) return 0;
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t Reader::u16() {
  // Width checked up front: a short buffer yields 0, never a partial read.
  if (!take(2)) return 0;
  const auto hi = static_cast<std::uint16_t>(data_[pos_]);
  const auto lo = static_cast<std::uint16_t>(data_[pos_ + 1]);
  pos_ += 2;
  return static_cast<std::uint16_t>((hi << 8) | lo);
}

std::uint32_t Reader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v = (v << 8) | static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)]);
  }
  pos_ += 4;
  return v;
}

std::span<const std::byte> Reader::bytes(std::size_t n) {
  if (!take(n)) return {};
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::uint64_t Reader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)]);
  }
  pos_ += 8;
  return v;
}

}  // namespace croupier::wire
