// Message abstraction for the simulated UDP network.
//
// Messages are immutable value objects delivered by pointer. Every
// concrete message implements a binary encoding (wire/) so the network
// can charge byte-accurate traffic to each node, including the figure-7a
// overhead comparison the paper reports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "common/assert.hpp"
#include "net/address.hpp"
#include "wire/wire.hpp"

namespace croupier::net {

class Message {
 public:
  virtual ~Message() = default;

  /// Protocol-scoped message tag (first byte on the wire).
  [[nodiscard]] virtual std::uint8_t type() const = 0;

  /// Human-readable message name for traces and test failures.
  [[nodiscard]] virtual const char* name() const = 0;

  /// Serializes the full message, including the type tag.
  virtual void encode(wire::Writer& w) const = 0;

  /// Encoded payload size in bytes (excludes UDP/IP headers; the network
  /// adds those when charging traffic). Counts without allocating.
  [[nodiscard]] std::size_t wire_size() const {
    auto w = wire::Writer::counting();
    encode(w);
    return w.size();
  }

#if defined(CROUPIER_CONFLICT_CHECK)
  /// Checked builds: the network calls this on every message it sends.
  /// A WireMessage decodes its own bytes and asserts that they encode
  /// back the same; a message with no decoder has nothing to check.
  virtual void check_round_trip() const {}
#endif
};

using MessagePtr = std::shared_ptr<const Message>;

/// Lays out a whole message, its type tag first: how a WireMessage
/// encodes and decodes itself, and how a message carries another inside
/// it. The reader drops the tag, which its caller dispatched on.
template <typename IO, typename M>
void nested(IO& io, M& m) {
  wire::fixed(io, std::remove_const_t<M>::kTag);
  layout(io, m);
}

/// A message whose bytes after its tag are one layout, a hidden friend
///
///   template <typename IO> friend void layout(IO&, wire::Field<IO, Self>)
///
/// (empty for tag-only messages). type(), encode() and decode() are
/// derived from it, so the three cannot disagree.
template <typename Self, std::uint8_t Tag>
class WireMessage : public Message {
 public:
  static constexpr std::uint8_t kTag = Tag;

  [[nodiscard]] std::uint8_t type() const final { return Tag; }

  void encode(wire::Writer& w) const final {
    nested(w, static_cast<const Self&>(*this));
  }

  /// Decodes a whole message, tag included. On truncated input the
  /// reader latches: fields past the cut read zero, and a list stops at
  /// its first failed entry.
  static Self decode(wire::Reader& r) {
    Self m;
    nested(r, m);
    return m;
  }

#if defined(CROUPIER_CONFLICT_CHECK)
  void check_round_trip() const final {
    wire::Writer w;
    encode(w);
    wire::Reader r(w.data());
    wire::Writer again;
    decode(r).encode(again);
    CROUPIER_ASSERT_MSG(r.exhausted() && std::ranges::equal(w.data(),
                                                            again.data()),
                        "a message's decode does not round-trip its encode");
  }
#endif
};

/// Receiver interface registered with the network per node.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void on_message(NodeId from, const Message& msg) = 0;
};

}  // namespace croupier::net
