// ProtocolRegistry: string-keyed protocol construction.
//
// The public entry point for building a World's ProtocolFactory. Every
// PSS implementation is registered under a stable name ("croupier",
// "cyclon", "gozar", "nylon", "arrg") and can be instantiated from a
// textual spec with per-protocol `key=value` overrides on top of the
// paper-default configuration:
//
//   auto factory = run::ProtocolRegistry::instance()
//                      .make_from_spec("croupier:alpha=25,gamma=50");
//   run::World world(cfg, factory);
//
// This is what makes experiments *data*: a protocol choice is a string a
// bench flag, an ExperimentSpec field, or a config file can carry. Code
// that already holds a typed config wraps it with make_factory<P>(cfg).
// Errors (unknown protocol, unknown option, malformed or out-of-range
// value, a broken cross-option rule such as shuffle > view) throw
// std::invalid_argument with a message naming the offender and the
// accepted alternatives.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/arrg.hpp"
#include "baselines/cyclon.hpp"
#include "baselines/gozar.hpp"
#include "baselines/nylon.hpp"
#include "core/croupier.hpp"
#include "runtime/world.hpp"

namespace croupier::run {

/// Parsed `key=value` overrides for one protocol instantiation. Ordered
/// so error messages are deterministic.
using ProtocolOptions = std::map<std::string, std::string>;

/// Factory building one `P` per node from `cfg` (P::Config is the
/// protocol's config type; paper defaults when omitted), e.g.
/// `make_factory<core::Croupier>(cfg)`.
template <typename P>
ProtocolFactory make_factory(typename P::Config cfg = {}) {
  return [cfg](pss::PeerSampler::Context ctx) {
    return std::make_unique<P>(std::move(ctx), cfg);
  };
}

/// Typed config builders: paper defaults with `opts` applied. Exposed so
/// tests and advanced callers can inspect or further tweak a parsed
/// config before wrapping it in a factory. All throw std::invalid_argument
/// on unknown keys, malformed or out-of-range values, and broken
/// cross-option rules, so a config they return never trips a protocol
/// constructor's assert.
///
/// Options shared by every protocol: view, shuffle, fanout,
/// merge=swapper|healer.
[[nodiscard]] core::CroupierConfig make_croupier_config(
    const ProtocolOptions& opts);  // + alpha, gamma, share_limit,
                                   //   sizing=fixed|proportional, min_slots
[[nodiscard]] pss::PssConfig make_cyclon_config(const ProtocolOptions& opts);
[[nodiscard]] baselines::GozarConfig make_gozar_config(
    const ProtocolOptions& opts);  // + parents, keepalive, parent_timeout,
                                   //   redundancy
[[nodiscard]] baselines::NylonConfig make_nylon_config(
    const ProtocolOptions& opts);  // + rvp_links, keepalive, rvp_ttl,
                                   //   punch_hops, routing_table, routing_ttl
[[nodiscard]] baselines::ArrgConfig make_arrg_config(
    const ProtocolOptions& opts);  // + open_list

class ProtocolRegistry {
 public:
  /// The process-wide registry of the five built-in protocols.
  static const ProtocolRegistry& instance();

  /// Registered protocol names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] bool contains(const std::string& name) const;

  /// Factory for `name` with `opts` applied over the paper defaults.
  [[nodiscard]] ProtocolFactory make(const std::string& name,
                                     const ProtocolOptions& opts = {}) const;

  /// Factory from a full spec string: `name` or `name:k=v,k=v,...`, e.g.
  /// "croupier:alpha=25,gamma=50".
  [[nodiscard]] ProtocolFactory make_from_spec(const std::string& spec) const;

  /// Splits a spec string into (name, options). Validates syntax only —
  /// the name and keys are checked when the factory is built.
  static std::pair<std::string, ProtocolOptions> parse_spec(
      const std::string& spec);

 private:
  ProtocolRegistry();

  std::map<std::string, std::function<ProtocolFactory(const ProtocolOptions&)>>
      entries_;
};

}  // namespace croupier::run
