// Message abstraction for the simulated UDP network.
//
// Messages are immutable value objects delivered by pointer. Every
// concrete message implements a binary encoding (wire/) so the network
// can charge byte-accurate traffic to each node, including the figure-7a
// overhead comparison the paper reports.
#pragma once

#include <cstdint>
#include <memory>

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
};

using MessagePtr = std::shared_ptr<const Message>;

/// Receiver interface registered with the network per node.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void on_message(NodeId from, const Message& msg) = 0;
};

}  // namespace croupier::net
