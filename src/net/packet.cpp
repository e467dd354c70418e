#include "net/packet.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace croupier::net {

Fragmenter::Fragmenter(const PacketConfig& cfg) : cfg_(cfg) {
  if (cfg_.mtu > 0) {
    CROUPIER_ASSERT_MSG(cfg_.mtu > kFragmentHeaderBytes,
                        "mtu must exceed the fragment header");
    CROUPIER_ASSERT(cfg_.mtu <= kMaxMtu);
  }
}

std::size_t Fragmenter::source_count(std::size_t message_bytes) const {
  CROUPIER_ASSERT(needs_fragmentation(message_bytes));
  const std::size_t chunk_cap = cfg_.mtu - kFragmentHeaderBytes;
  return (message_bytes + chunk_cap - 1) / chunk_cap;
}

std::size_t Fragmenter::repair_count(std::size_t k) const {
  if (!cfg_.fec_active()) return 0;
  if (k >= fec::kMaxCodedFragments) return 0;  // plain-fragmentation fallback
  std::size_t r = cfg_.fec_repair;
  if (cfg_.fec_rate > 0.0) {
    r += static_cast<std::size_t>(
        std::ceil(cfg_.fec_rate * static_cast<double>(k)));
  }
  return std::min(r, fec::kMaxCodedFragments - k);
}

std::size_t Fragmenter::buffer_size(std::size_t message_bytes) const {
  const std::size_t k = source_count(message_bytes);
  return (k + repair_count(k)) * ((message_bytes + k - 1) / k);
}

FragmentSet Fragmenter::split(std::vector<std::byte> encoded) const {
  const std::size_t total = encoded.size();
  CROUPIER_ASSERT(needs_fragmentation(total));
  const std::size_t k = source_count(total);
  const std::size_t r = repair_count(k);
  // Equal-size chunks (tail zero-padded) so repair rows line up;
  // chunk_len <= mtu - header holds because k is the ceiling split.
  const std::size_t chunk_len = (total + k - 1) / k;
  CROUPIER_ASSERT(chunk_len <= cfg_.mtu - kFragmentHeaderBytes);
  CROUPIER_ASSERT_MSG(k + r <= 0xffff, "message too large for u16 fragment "
                                       "count at this mtu");

  FragmentHeader frame;
  frame.count = static_cast<std::uint16_t>(k + r);
  frame.source = static_cast<std::uint16_t>(k);
  frame.total_len = static_cast<std::uint32_t>(total);
  // Zero-pads the tail chunk and makes room for the repair rows; a
  // buffer reserved at buffer_size() does not reallocate here.
  encoded.resize((k + r) * chunk_len);
  const std::span<const std::byte> message(encoded.data(), total);
  for (std::size_t j = 0; j < r; ++j) {
    fec::encode_repair(
        message, k, chunk_len, j,
        std::span<std::byte>(encoded).subspan((k + j) * chunk_len,
                                              chunk_len));
  }
  return FragmentSet(frame, chunk_len, std::move(encoded));
}

FragmentHeader FragmentSet::header(std::size_t index) const {
  FragmentHeader h = frame_;
  h.index = static_cast<std::uint16_t>(index);
  h.payload_len = static_cast<std::uint16_t>(payload(index).size());
  return h;
}

std::span<const std::byte> FragmentSet::payload(std::size_t index) const {
  CROUPIER_ASSERT(index < count());
  const std::size_t begin = index * chunk_len_;
  const std::size_t len =
      index < source() ? std::min(chunk_len_, std::size_t{frame_.total_len} -
                                                  begin)
                       : chunk_len_;
  return std::span<const std::byte>(buf_).subspan(begin, len);
}

FragmentAssembly::FragmentAssembly(const FragmentHeader& first)
    : geometry_(first),
      chunk_len_((first.total_len + first.source - 1) / first.source) {
  CROUPIER_ASSERT(first.source >= 1 && first.count >= first.source);
  CROUPIER_ASSERT(first.total_len >= 1);
  if (first.count > first.source) {
    // Coded message: repair fragments can substitute for any source, so
    // rows go through the GF(256) decoder (sender guarantees the Cauchy
    // bound for coded messages).
    decoder_.emplace(first.source, chunk_len_);
  } else {
    buffer_.assign(first.total_len, std::byte{0});
    have_.assign(first.count, false);
  }
}

bool FragmentAssembly::add(const FragmentHeader& h,
                           std::span<const std::byte> payload) {
  if (h.msg_id != geometry_.msg_id || h.count != geometry_.count ||
      h.source != geometry_.source || h.total_len != geometry_.total_len ||
      h.index >= h.count || payload.size() != h.payload_len ||
      payload.size() > chunk_len_) {
    return false;  // corrupt or mismatched frame: ignore
  }
  if (complete()) return false;
  if (decoder_.has_value()) {
    if (!decoder_->add(h.index, payload)) return false;  // duplicate
  } else {
    if (have_[h.index]) return false;
    have_[h.index] = true;
    // Plain fragmentation: chunk h.index lands at a fixed offset.
    const std::size_t begin = static_cast<std::size_t>(h.index) * chunk_len_;
    CROUPIER_ASSERT(begin + payload.size() <= buffer_.size());
    std::copy(payload.begin(), payload.end(),
              buffer_.begin() + static_cast<std::ptrdiff_t>(begin));
  }
  ++held_;
  if (!complete()) return false;
  if (decoder_.has_value()) {
    // The one elimination, at the k-th row; the padded tail chunk is
    // trimmed off the view.
    const auto padded = decoder_->decode();
    if (!padded.empty()) bytes_ = padded.first(geometry_.total_len);
  } else {
    bytes_ = buffer_;
  }
  return true;
}

}  // namespace croupier::net
