// Packet layer: MTU fragmentation framing and receiver-side reassembly.
//
// With `mtu=0` (the default) the layer is off and the Network treats a
// message as one indivisible datagram — the historic model, byte
// identical to every pre-packet run. With a positive MTU, a message
// whose wire size exceeds it is split into k = ceil(size / (mtu -
// header)) framed fragments, each riding its own datagram: its own loss
// die, its own jitter on the pair's base latency, its own byte charge.
// Optionally (PacketConfig::fec_*) the sender appends rateless repair
// fragments (fec/rateless) so the receiver can reconstruct from any k of
// the k + r sent.
//
// Fragment frame (kFragmentHeaderBytes = 20, big-endian, on top of each
// datagram payload):
//
//   u64 msg_id       globally unique per fragmented message
//   u16 index        0..count-1; >= source means repair fragment
//   u16 count        fragments sent for this message (k + repairs)
//   u16 source       k, the source-chunk count
//   u16 payload_len  bytes of chunk data following this header
//   u32 total_len    original message wire size
//
// The sender encodes a message once into the buffer of a FragmentSet,
// which holds the k source chunks and the r repair rows; each fragment
// is a frame and a span derived from that buffer. Reassembly
// (FragmentAssembly) completes on any k distinct fragments and hands
// back a view of the message's bytes; the Network garbage-collects its
// entries after a deterministic timeout so lossy links cannot grow
// receiver state without bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "fec/rateless.hpp"
#include "sim/time.hpp"
#include "wire/wire.hpp"

namespace croupier::net {

/// Fixed per-fragment frame overhead (see layout above).
constexpr std::size_t kFragmentHeaderBytes = 20;

/// Largest meaningful MTU: the UDP payload limit over IPv4.
constexpr std::size_t kMaxMtu = 65507;

struct PacketConfig {
  /// Max UDP payload bytes per datagram; 0 = packet layer off (whole
  /// messages ride single datagrams, the historic byte-identical model).
  std::size_t mtu = 0;
  /// Per-node token-bucket rate in bytes/second; 0 = uncapped.
  std::uint64_t bandwidth_bps = 0;
  /// Bucket depth in bytes; 0 = one second of tokens (== rate).
  std::uint64_t bandwidth_burst = 0;
  /// Fixed repair fragments appended per fragmented message.
  std::uint32_t fec_repair = 0;
  /// Proportional repair: ceil(fec_rate * k) extra repair fragments.
  double fec_rate = 0.0;
  /// Incomplete reassembly entries are dropped this long after their
  /// first fragment arrives.
  sim::Duration reassembly_timeout = sim::sec(3);

  [[nodiscard]] bool fec_active() const {
    return mtu > 0 && (fec_repair > 0 || fec_rate > 0.0);
  }
  [[nodiscard]] std::uint64_t burst_bytes() const {
    return bandwidth_burst > 0 ? bandwidth_burst : bandwidth_bps;
  }
};

struct FragmentHeader {
  std::uint64_t msg_id = 0;
  std::uint16_t index = 0;
  std::uint16_t count = 0;
  std::uint16_t source = 0;
  std::uint16_t payload_len = 0;
  std::uint32_t total_len = 0;

  /// The frame, field for field as the table at the top of this file
  /// lists it. Read from truncated input, the fields past the cut stay
  /// zero and r.ok() is false (the Reader latches; callers check once).
  template <typename IO>
  friend void layout(IO& io, wire::Field<IO, FragmentHeader> h) {
    layout(io, h.msg_id);
    layout(io, h.index);
    layout(io, h.count);
    layout(io, h.source);
    layout(io, h.payload_len);
    layout(io, h.total_len);
  }

  friend bool operator==(const FragmentHeader&,
                         const FragmentHeader&) = default;
};

/// One fragmented message as its sender lays it out: a single buffer
/// holding the k source chunks, the last one zero-padded to chunk_len,
/// followed by the r repair rows. Fragment i's frame and payload are
/// derived from the geometry and i, so nothing is copied per fragment.
class FragmentSet {
 public:
  /// Fragments in the set (k + r) and source chunks among them (k).
  [[nodiscard]] std::size_t count() const { return frame_.count; }
  [[nodiscard]] std::size_t source() const { return frame_.source; }

  /// Stamps the msg_id every fragment's frame carries.
  void set_msg_id(std::uint64_t msg_id) { frame_.msg_id = msg_id; }

  /// Fragment `index`'s frame.
  [[nodiscard]] FragmentHeader header(std::size_t index) const;

  /// Fragment `index`'s chunk data: a source chunk at its true length
  /// (the last one may be short) or a full repair row.
  [[nodiscard]] std::span<const std::byte> payload(std::size_t index) const;

  /// Bytes fragment `index` occupies on the wire (frame + chunk), before
  /// the UDP/IP headers the Network charges per datagram.
  [[nodiscard]] std::size_t wire_size(std::size_t index) const {
    return kFragmentHeaderBytes + payload(index).size();
  }

  /// The message's own wire bytes (total_len of them).
  [[nodiscard]] std::span<const std::byte> message() const {
    return {buf_.data(), frame_.total_len};
  }

 private:
  friend class Fragmenter;
  FragmentSet(const FragmentHeader& frame, std::size_t chunk_len,
              std::vector<std::byte> buf)
      : frame_(frame), chunk_len_(chunk_len), buf_(std::move(buf)) {}

  FragmentHeader frame_;  // msg_id and geometry; index and payload_len unset
  std::size_t chunk_len_;
  std::vector<std::byte> buf_;  // (k + r) * chunk_len bytes
};

/// Lays encoded messages out as fragment sets per a PacketConfig.
class Fragmenter {
 public:
  explicit Fragmenter(const PacketConfig& cfg);

  /// True when a message of this wire size must be split (mtu on and
  /// exceeded). Smaller messages ride one classic datagram, frame-free.
  [[nodiscard]] bool needs_fragmentation(std::size_t message_bytes) const {
    return cfg_.mtu > 0 && message_bytes > cfg_.mtu;
  }

  /// Source fragment count k = ceil(size / (mtu - header)).
  [[nodiscard]] std::size_t source_count(std::size_t message_bytes) const;

  /// Repair fragments for a k-chunk message: fec_repair + ceil(fec_rate
  /// * k), clamped so k + r fits the Cauchy construction (and 0 when k
  /// alone already exceeds it — plain fragmentation fallback).
  [[nodiscard]] std::size_t repair_count(std::size_t k) const;

  /// Size of the one buffer a message of this wire size is laid out in,
  /// (k + r) * chunk_len. Reserve it before encoding the message and
  /// split() needs no further allocation.
  [[nodiscard]] std::size_t buffer_size(std::size_t message_bytes) const;

  /// Lays `encoded`, one message's wire bytes, out in place: zero-pads
  /// the source chunks and appends the repair rows. The set's msg_id is
  /// 0 until stamped. Requires needs_fragmentation(encoded.size()).
  [[nodiscard]] FragmentSet split(std::vector<std::byte> encoded) const;

 private:
  PacketConfig cfg_;
};

/// Receiver-side accumulator for one fragmented message.
class FragmentAssembly {
 public:
  /// Geometry is taken from the first fragment seen (fragments of one
  /// msg_id always agree in-sim; mismatching ones are ignored).
  explicit FragmentAssembly(const FragmentHeader& first);
  // bytes() views the assembly's own storage.
  FragmentAssembly(const FragmentAssembly&) = delete;
  FragmentAssembly& operator=(const FragmentAssembly&) = delete;

  /// Feeds one fragment. Duplicates and geometry mismatches are
  /// ignored. Returns true when this fragment completed the message;
  /// a coded message is decoded then, once.
  bool add(const FragmentHeader& h, std::span<const std::byte> payload);

  [[nodiscard]] bool complete() const { return held_ == geometry_.source; }
  [[nodiscard]] std::size_t fragments_held() const { return held_; }

  /// The reassembled message (total_len bytes), a view into the
  /// assembly; empty while incomplete or when decoding failed.
  [[nodiscard]] std::span<const std::byte> bytes() const { return bytes_; }

 private:
  FragmentHeader geometry_;
  std::size_t chunk_len_;
  std::size_t held_ = 0;
  std::span<const std::byte> bytes_;
  /// Plain messages (count == source) copy chunks into place and track
  /// them in have_; coded ones (repair fragments present) go through the
  /// GF(256) decoder, which rejects duplicates itself.
  std::vector<std::byte> buffer_;
  std::vector<bool> have_;
  std::optional<fec::Decoder> decoder_;
};

}  // namespace croupier::net
