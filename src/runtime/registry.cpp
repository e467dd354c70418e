#include "runtime/registry.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

namespace croupier::run {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument(message);
}

/// Consumes recognized keys from a ProtocolOptions map and converts their
/// values; finish() rejects anything left over, so a typoed key is an
/// error instead of a silently ignored default, and names every key the
/// protocol asked for.
class OptionReader {
 public:
  OptionReader(std::string protocol, const ProtocolOptions& opts)
      : protocol_(std::move(protocol)), opts_(opts) {}

  /// Count option; a value outside [lo, hi] is a spec error. The bounds
  /// are what the protocol's constructor asserts or divides by.
  void size(const char* key, std::size_t& out, std::size_t lo = 0,
            std::size_t hi = std::numeric_limits<std::size_t>::max()) {
    const auto* v = take(key);
    if (v == nullptr) return;
    const std::uint64_t n = u64(key, *v);
    if (n < lo || n > hi) {
      std::string range = ">= " + std::to_string(lo);
      if (hi != std::numeric_limits<std::size_t>::max()) {
        range = "in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
      }
      fail("protocol '" + protocol_ + "': option '" + key + "' must be " +
           range + ", got " + *v);
    }
    out = static_cast<std::size_t>(n);
  }

  void u8(const char* key, std::uint8_t& out) {
    if (const auto* v = take(key)) {
      const std::uint64_t n = u64(key, *v);
      if (n > 0xff) bad_value(key, *v);
      out = static_cast<std::uint8_t>(n);
    }
  }

  /// Enumerated option: `choices` maps accepted spellings to values.
  template <typename E>
  void choice(const char* key, E& out,
              std::initializer_list<std::pair<const char*, E>> choices) {
    const auto* v = take(key);
    if (v == nullptr) return;
    for (const auto& [name, value] : choices) {
      if (*v == name) {
        out = value;
        return;
      }
    }
    std::ostringstream msg;
    msg << "protocol '" << protocol_ << "': option '" << key
        << "' must be one of {";
    const char* sep = "";
    for (const auto& [name, value] : choices) {
      msg << sep << name;
      sep = ", ";
    }
    msg << "}, got \"" << *v << "\"";
    fail(msg.str());
  }

  /// The options every protocol's base PssConfig accepts. The gossip
  /// round period is a World::Config knob (the runtime drives rounds),
  /// so it is deliberately not offered here. A shuffle's descriptors
  /// travel as one wire list, whose count is one byte.
  void base(pss::PssConfig& cfg) {
    size("view", cfg.view_size, 1, pss::kMaxViewSlots);
    size("shuffle", cfg.shuffle_size, 1, wire::kMaxListEntries);
    size("fanout", cfg.bootstrap_fanout);
    choice("merge", cfg.merge,
           {{"swapper", pss::MergePolicy::Swapper},
            {"healer", pss::MergePolicy::Healer}});
  }

  /// Cross-option rule: a spec error stating `rule` unless `holds`.
  void require(bool holds, const std::string& rule) const {
    if (!holds) fail("protocol '" + protocol_ + "': " + rule);
  }

  /// Croupier, Cyclon, Gozar and Nylon assert that a shuffle fits in the
  /// view; Arrg draws min(shuffle, view) and runs with any shuffle.
  void shuffle_within_view(const pss::PssConfig& cfg) const {
    require(cfg.shuffle_size <= cfg.view_size,
            "shuffle (" + std::to_string(cfg.shuffle_size) +
                ") must be <= view (" + std::to_string(cfg.view_size) + ")");
  }

  void finish() const {
    for (const auto& [key, value] : opts_) {
      if (!seen_.contains(key)) {
        std::string accepted;
        for (const char* k : asked_) {
          accepted += (accepted.empty() ? "" : ", ") + std::string(k);
        }
        fail("protocol '" + protocol_ + "': unknown option '" + key +
             "'; accepted options: " + accepted);
      }
    }
  }

 private:
  const std::string* take(const char* key) {
    asked_.push_back(key);
    const auto it = opts_.find(key);
    if (it == opts_.end()) return nullptr;
    seen_.insert(key);
    return &it->second;
  }

  std::uint64_t u64(const char* key, const std::string& text) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
        end != text.c_str() + text.size() || errno == ERANGE) {
      bad_value(key, text);
    }
    return v;
  }

  [[noreturn]] void bad_value(const char* key, const std::string& text) {
    fail("protocol '" + protocol_ + "': malformed value for option '" + key +
         "': \"" + text + "\"");
  }

  std::string protocol_;
  const ProtocolOptions& opts_;
  std::set<std::string> seen_;
  std::vector<const char*> asked_;  // every key read, in reading order
};

}  // namespace

core::CroupierConfig make_croupier_config(const ProtocolOptions& opts) {
  core::CroupierConfig cfg;
  OptionReader r("croupier", opts);
  r.base(cfg.base);
  r.size("alpha", cfg.estimator.local_history, 1);
  r.size("gamma", cfg.estimator.neighbour_history, 1,
         core::EstimatorConfig::kMaxNeighbourHistory);
  r.size("share_limit", cfg.estimator.share_limit, 1,
         core::EstimatorConfig::kMaxShareLimit);
  r.size("min_slots", cfg.min_view_slots, 1);
  r.choice("sizing", cfg.sizing,
           {{"fixed", core::ViewSizing::FixedPerView},
            {"proportional", core::ViewSizing::RatioProportional}});
  r.finish();
  r.shuffle_within_view(cfg.base);
  if (cfg.sizing == core::ViewSizing::RatioProportional) {
    r.require(cfg.base.view_size >= 2 * cfg.min_view_slots,
              "view (" + std::to_string(cfg.base.view_size) +
                  ") must be >= 2 * min_slots (" +
                  std::to_string(cfg.min_view_slots) +
                  ") with sizing=proportional");
  }
  return cfg;
}

pss::PssConfig make_cyclon_config(const ProtocolOptions& opts) {
  pss::PssConfig cfg;
  OptionReader r("cyclon", opts);
  r.base(cfg);
  r.finish();
  r.shuffle_within_view(cfg);
  return cfg;
}

baselines::GozarConfig make_gozar_config(const ProtocolOptions& opts) {
  baselines::GozarConfig cfg;
  OptionReader r("gozar", opts);
  r.base(cfg.base);
  // A private descriptor carries its parents as one wire list.
  r.size("parents", cfg.num_parents, 1, wire::kMaxListEntries);
  r.size("keepalive", cfg.keepalive_rounds, 1);
  r.size("parent_timeout", cfg.parent_timeout_rounds);
  r.size("redundancy", cfg.relay_redundancy);
  r.finish();
  r.shuffle_within_view(cfg.base);
  return cfg;
}

baselines::NylonConfig make_nylon_config(const ProtocolOptions& opts) {
  baselines::NylonConfig cfg;
  OptionReader r("nylon", opts);
  r.base(cfg.base);
  r.size("rvp_links", cfg.max_rvp_links, 1);
  r.size("keepalive", cfg.keepalive_rounds, 1);
  r.size("rvp_ttl", cfg.rvp_ttl_rounds);
  r.u8("punch_hops", cfg.max_punch_hops);
  r.size("routing_table", cfg.routing_table_size, 1);
  r.size("routing_ttl", cfg.routing_ttl_rounds);
  r.finish();
  r.shuffle_within_view(cfg.base);
  r.require(cfg.rvp_ttl_rounds >= cfg.keepalive_rounds,
            "rvp_ttl (" + std::to_string(cfg.rvp_ttl_rounds) +
                ") must be >= keepalive (" +
                std::to_string(cfg.keepalive_rounds) + ")");
  return cfg;
}

baselines::ArrgConfig make_arrg_config(const ProtocolOptions& opts) {
  baselines::ArrgConfig cfg;
  OptionReader r("arrg", opts);
  r.base(cfg.base);
  r.size("open_list", cfg.open_list_size, 1);
  r.finish();
  return cfg;
}

ProtocolRegistry::ProtocolRegistry() {
  entries_["croupier"] = [](const ProtocolOptions& o) {
    return make_factory<core::Croupier>(make_croupier_config(o));
  };
  entries_["cyclon"] = [](const ProtocolOptions& o) {
    return make_factory<baselines::Cyclon>(make_cyclon_config(o));
  };
  entries_["gozar"] = [](const ProtocolOptions& o) {
    return make_factory<baselines::Gozar>(make_gozar_config(o));
  };
  entries_["nylon"] = [](const ProtocolOptions& o) {
    return make_factory<baselines::Nylon>(make_nylon_config(o));
  };
  entries_["arrg"] = [](const ProtocolOptions& o) {
    return make_factory<baselines::Arrg>(make_arrg_config(o));
  };
}

const ProtocolRegistry& ProtocolRegistry::instance() {
  static const ProtocolRegistry registry;
  return registry;
}

std::vector<std::string> ProtocolRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

bool ProtocolRegistry::contains(const std::string& name) const {
  return entries_.contains(name);
}

ProtocolFactory ProtocolRegistry::make(const std::string& name,
                                       const ProtocolOptions& opts) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::ostringstream msg;
    msg << "unknown protocol \"" << name << "\"; known protocols:";
    for (const auto& [known, entry] : entries_) msg << ' ' << known;
    fail(msg.str());
  }
  return it->second(opts);
}

ProtocolFactory ProtocolRegistry::make_from_spec(
    const std::string& spec) const {
  const auto [name, opts] = parse_spec(spec);
  return make(name, opts);
}

std::pair<std::string, ProtocolOptions> ProtocolRegistry::parse_spec(
    const std::string& spec) {
  const auto colon = spec.find(':');
  std::string name = spec.substr(0, colon);
  if (name.empty()) {
    fail("protocol spec \"" + spec + "\": empty protocol name");
  }
  ProtocolOptions opts;
  if (colon == std::string::npos) return {std::move(name), std::move(opts)};

  // "k=v,k=v,..." after the colon; every element must carry an '='.
  std::string rest = spec.substr(colon + 1);
  std::size_t pos = 0;
  while (pos <= rest.size()) {
    const std::size_t comma = rest.find(',', pos);
    const std::string item =
        rest.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == 0 || eq == std::string::npos) {
      fail("protocol spec \"" + spec + "\": expected key=value, got \"" +
           item + "\"");
    }
    opts[item.substr(0, eq)] = item.substr(eq + 1);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return {std::move(name), std::move(opts)};
}

}  // namespace croupier::run
