#include "runtime/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/adversary.hpp"
#include "runtime/registry.hpp"

namespace croupier::run {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument(message);
}

sim::Duration from_ms(double ms) {
  return static_cast<sim::Duration>(std::llround(ms * 1000.0));
}

sim::Duration from_s(double s) {
  return static_cast<sim::Duration>(std::llround(s * 1e6));
}

/// Shortest decimal form that parses back to the exact same double, so
/// to_string() stays human-readable ("0.2", not "0.2000000000000000111")
/// while parse(to_string(s)) == s holds bit-for-bit.
std::string fmt_double(double v) {
  char buf[40];
  for (int precision : {6, 10, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

double parse_double(const std::string& key, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(v)) {
    fail("spec: malformed value for '" + key + "': \"" + text + "\"");
  }
  return v;
}

std::size_t parse_size(const std::string& key, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
      end != text.c_str() + text.size() || errno == ERANGE) {
    fail("spec: malformed value for '" + key + "': \"" + text + "\"");
  }
  return static_cast<std::size_t>(v);
}

/// Splits a composite value ("at:60,frac:0.3,corr:region") into
/// (subkey, subvalue) pairs; a token without ':' comes back with an
/// empty subkey (the scalar shorthand, e.g. "loss=0.1,after:90").
std::vector<std::pair<std::string, std::string>> split_subkeys(
    const std::string& key, const std::string& value) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t begin = 0;
  while (begin <= value.size()) {
    std::size_t end = value.find(',', begin);
    if (end == std::string::npos) end = value.size();
    const std::string token = value.substr(begin, end - begin);
    if (token.empty()) {
      fail("spec: empty element in '" + key + "' value \"" + value + "\"");
    }
    const std::size_t colon = token.find(':');
    if (colon == std::string::npos) {
      out.emplace_back("", token);
    } else if (colon == 0 || colon == token.size() - 1) {
      fail("spec: malformed '" + key + "' element \"" + token + "\"");
    } else {
      out.emplace_back(token.substr(0, colon), token.substr(colon + 1));
    }
    begin = end + 1;
  }
  return out;
}

/// Parses a `loss=` value: either the historic uniform scalar or the
/// structured per-class-pair form. Subkeys name (sender)-(receiver)
/// class pairs with `any` wildcards; `after:S` delays activation.
ExperimentSpec::LossSpec parse_loss(const std::string& value) {
  ExperimentSpec::LossSpec loss;
  const auto set = [&loss](bool pp, bool pv, bool vp, bool vv, double rate) {
    if (pp) loss.pub_pub = rate;
    if (pv) loss.pub_priv = rate;
    if (vp) loss.priv_pub = rate;
    if (vv) loss.priv_priv = rate;
  };
  for (const auto& [sub, text] : split_subkeys("loss", value)) {
    if (sub == "after") {
      loss.after_s = parse_double("loss after", text);
      continue;
    }
    const double rate = parse_double("loss " + (sub.empty() ? "rate" : sub),
                                     text);
    if (sub.empty() || sub == "any-any" || sub == "any") {
      set(true, true, true, true, rate);
    } else if (sub == "pub-pub") {
      set(true, false, false, false, rate);
    } else if (sub == "pub-priv") {
      set(false, true, false, false, rate);
    } else if (sub == "priv-pub") {
      set(false, false, true, false, rate);
    } else if (sub == "priv-priv") {
      set(false, false, false, true, rate);
    } else if (sub == "pub-any") {
      set(true, true, false, false, rate);
    } else if (sub == "priv-any") {
      set(false, false, true, true, rate);
    } else if (sub == "any-pub") {
      set(true, false, true, false, rate);
    } else if (sub == "any-priv") {
      set(false, true, false, true, rate);
    } else {
      fail("spec: loss pair must be one of pub-pub|pub-priv|priv-pub|"
           "priv-priv|pub-any|priv-any|any-pub|any-priv|any (or a bare "
           "uniform rate), got \"" + sub + "\"");
    }
  }
  return loss;
}

/// The canonical `loss=` value: the historic scalar when uniform (so
/// every pre-existing spec prints byte-identically), else the nonzero
/// pairs in fixed order plus `after`.
std::string print_loss(const ExperimentSpec::LossSpec& loss) {
  if (loss.is_uniform()) return fmt_double(loss.pub_pub);
  std::string out;
  const auto emit = [&out](const char* sub, double v) {
    if (v == 0.0) return;
    out.append(out.empty() ? "" : ",").append(sub).append(":").append(
        fmt_double(v));
  };
  emit("pub-pub", loss.pub_pub);
  emit("pub-priv", loss.pub_priv);
  emit("priv-pub", loss.priv_pub);
  emit("priv-priv", loss.priv_priv);
  emit("after", loss.after_s);
  return out;
}

// -------------------------------------------------------------- key table
// Each key, and each subkey of a composite key, is one row: its name,
// the ExperimentSpec member it sets, and its accepted range or enum
// spellings. parse, to_string, validate and has_key are all derived
// from it, so they cannot drift apart.

/// How a row prints in to_string().
enum class Form : std::uint8_t {
  Optional,  // `key=value` when the member differs from its default
  Always,    // `key=value` every time: the identifying quartet
  Whole,     // composite subkey; every subkey prints once any differs
  Sparse,    // composite subkey; only the non-default subkeys print
};

struct Key {
  const char* key;
  const char* sub = nullptr;  // nullptr: a plain key
  Form form = Form::Optional;
  bool bare = false;  // the subkey a bare composite value sets (fec=2)

  [[nodiscard]] std::string name() const {
    return sub == nullptr ? key : std::string(key) + ' ' + sub;
  }
};

/// A row's accepted values: the interval [lo, hi] (either end optionally
/// open) for numbers, or the spellings of an enum, indexed by value.
/// Time rows carry µs per unit and are also checked on the simulated
/// value: a nonzero time must not round to 0 µs.
struct Rule {
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
  double unit_us = 0.0;      // time rows: 1e6 (s) or 1e3 (ms)
  bool zero_is_off = false;  // 0 is accepted outside [lo, hi]
  std::span<const char* const> names = {};
};

// The time ceiling keeps every µs conversion (and sums of a few of
// them) far from int64 overflow.
constexpr double kMaxSeconds = 1e9;
constexpr Rule kFraction{.hi = 1.0};
constexpr Rule kProbability{.hi = 1.0, .hi_open = true};
constexpr Rule kSeconds{.hi = kMaxSeconds, .unit_us = 1e6};
constexpr Rule kMillis{.hi = kMaxSeconds * 1e3, .unit_us = 1e3};
constexpr Rule kPositiveSeconds{.hi = kMaxSeconds, .lo_open = true,
                                .unit_us = 1e6};
constexpr Rule kPositiveMillis{.hi = kMaxSeconds * 1e3, .lo_open = true,
                               .unit_us = 1e3};

// Enum spellings, in enumerator order.
constexpr const char* kJoinNames[] = {"poisson", "fixed", "instant"};
constexpr const char* kLatencyNames[] = {"constant", "king", "coordinate"};
constexpr const char* kRecordNames[] = {"none", "estimation", "graph",
                                        "graph-sampled", "randomness"};
constexpr const char* kCorrNames[] = {"uniform", "region", "public",
                                      "private"};
constexpr const char* kFlagNames[] = {"0", "1"};

/// Calls `row(key, member, rule)` for every row, in to_string() order.
/// A composite key's subkeys are consecutive rows.
template <typename Visit>
void for_each_row(Visit&& row) {
  using S = ExperimentSpec;
  constexpr Form kAlways = Form::Always;
  constexpr Form kWhole = Form::Whole;
  constexpr Form kSparse = Form::Sparse;
  row({"protocol", nullptr, kAlways}, &S::protocol, {});
  row({"nodes", nullptr, kAlways}, &S::nodes, {.lo = 1});
  row({"ratio", nullptr, kAlways}, &S::ratio, kFraction);
  row({"join"}, &S::join, {.names = kJoinNames});
  row({"join-public-ms"}, &S::join_public_ms, kMillis);
  row({"join-private-ms"}, &S::join_private_ms, kMillis);
  row({"step-publics"}, &S::step_publics, {});
  row({"step-privates"}, &S::step_privates, {});
  row({"step-at"}, &S::step_at_s, kSeconds);
  row({"step-every-ms"}, &S::step_every_ms, kMillis);
  row({"flash", "at", kWhole}, &S::flash_at_s, kSeconds);
  row({"flash", "publics", kWhole}, &S::flash_publics, {});
  row({"flash", "privates", kWhole}, &S::flash_privates, {});
  row({"flash", "over", kWhole}, &S::flash_over_s, kSeconds);
  row({"churn"}, &S::churn, kProbability);
  row({"churn-at"}, &S::churn_at_s, kSeconds);
  row({"catastrophe"}, &S::catastrophe, kFraction);
  row({"catastrophe-at"}, &S::catastrophe_at_s, kSeconds);
  row({"failure", "at", kWhole}, &S::failure_at_s, kSeconds);
  row({"failure", "frac", kWhole}, &S::failure_frac, kFraction);
  row({"failure", "corr", kWhole}, &S::failure_corr, {.names = kCorrNames});
  row({"eclipse", "target", kWhole, true}, &S::eclipse_target, {});
  row({"eclipse", "at", kWhole}, &S::eclipse_at_s, kSeconds);
  row({"eclipse", "period", kWhole}, &S::eclipse_period_s, kPositiveSeconds);
  row({"natflap", "frac", kWhole, true}, &S::natflap_frac, kFraction);
  row({"natflap", "at", kWhole}, &S::natflap_at_s, kSeconds);
  row({"natflap", "period", kWhole}, &S::natflap_period_s, kPositiveSeconds);
  row({"adversary", "hubs", kWhole, true}, &S::adversary_hubs, {});
  // Rates strictly below 1: a rate of 1 would silence a class pair and
  // trips the Network's assert mid-trial.
  row({"loss"}, &S::loss, kProbability);
  // A datagram must carry more than the fragment header and fit UDP.
  row({"mtu"}, &S::mtu,
      {.lo = net::kFragmentHeaderBytes + 1.0,
       .hi = static_cast<double>(net::kMaxMtu), .zero_is_off = true});
  row({"bandwidth", "rate", kSparse, true}, &S::bandwidth_bps, {});
  row({"bandwidth", "burst", kSparse}, &S::bandwidth_burst, {});
  row({"fec", "repair", kSparse, true}, &S::fec_repair, {.hi = 0xffff});
  row({"fec", "rate", kSparse}, &S::fec_rate, {});
  // World's precondition: a period scaled by 1 - skew stays positive.
  row({"skew"}, &S::skew, {.hi = 0.5, .hi_open = true});
  row({"private-round-scale"}, &S::private_round_scale, {.lo_open = true});
  row({"latency"}, &S::latency, {.names = kLatencyNames});
  // Not a time row: a latency rounding to 0 µs is a modelled case, not
  // a stall (every delivery lands at its send time).
  row({"latency-ms"}, &S::latency_ms,
      {.hi = kMaxSeconds * 1e3, .lo_open = true});
  row({"round-ms"}, &S::round_ms, kPositiveMillis);
  row({"natid"}, &S::natid, {.names = kFlagNames});
  row({"duration", nullptr, kAlways}, &S::duration_s, kPositiveSeconds);
  row({"record"}, &S::record, {.names = kRecordNames});
  row({"record-every"}, &S::record_every_s, kSeconds);
}

/// Enums and flags: values spelled by the row's names.
template <typename T>
constexpr bool kSpelled = std::is_enum_v<T> || std::is_same_v<T, bool>;

template <typename T>
std::string print_value(const T& v, const Rule& rule) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_same_v<T, ExperimentSpec::LossSpec>) {
    return print_loss(v);
  } else if constexpr (kSpelled<T>) {
    return rule.names[static_cast<std::size_t>(v)];
  } else if constexpr (std::is_floating_point_v<T>) {
    return fmt_double(v);
  } else {
    return std::to_string(v);
  }
}

template <typename T>
void parse_value(T& out, const std::string& name, const std::string& text,
                 const Rule& rule) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = text;
  } else if constexpr (std::is_same_v<T, ExperimentSpec::LossSpec>) {
    out = parse_loss(text);
  } else if constexpr (kSpelled<T>) {
    std::string all;
    for (std::size_t i = 0; i < rule.names.size(); ++i) {
      if (text == rule.names[i]) {
        out = static_cast<T>(i);
        return;
      }
      all.append(i == 0 ? "" : "|").append(rule.names[i]);
    }
    fail("spec: " + name + " must be " + all + ", got \"" + text + "\"");
  } else if constexpr (std::is_floating_point_v<T>) {
    out = parse_double(name, text);
  } else {
    const std::size_t v = parse_size(name, text);
    if (v > std::numeric_limits<T>::max()) {
      fail("spec: " + name + " out of range: " + text);
    }
    out = static_cast<T>(v);
  }
}

void check_number(const Key& key, double v, const Rule& rule) {
  const bool above = rule.lo_open ? v > rule.lo : v >= rule.lo;
  const bool below = rule.hi_open ? v < rule.hi : v <= rule.hi;
  const char* unit = rule.unit_us == 0.0 ? "" : rule.unit_us == 1e3 ? " ms"
                                                                  : " s";
  if (!(above && below) && !(rule.zero_is_off && v == 0.0)) {
    fail("spec: " + key.name() + " must be " +
         (rule.zero_is_off ? "0 or in " : "in ") +
         (rule.lo_open ? "(" : "[") + fmt_double(rule.lo) + ", " +
         (std::isinf(rule.hi) ? "inf" : fmt_double(rule.hi)) +
         (rule.hi_open ? ")" : "]") + unit);
  }
  // Checked on the simulated value (v >= 0 here, so llround(v * unit)
  // is 0 exactly when v * unit < 0.5): a zero-length interval aborts
  // its process or re-arms it at the same instant forever.
  if (rule.unit_us > 0.0 && v != 0.0 && v * rule.unit_us < 0.5) {
    fail("spec: " + key.name() + " rounds to 0 us (got " + fmt_double(v) +
         unit + "); a nonzero time must be at least 1 us");
  }
}

template <typename T>
void check_value(const Key& key, const T& v, const Rule& rule) {
  if constexpr (std::is_same_v<T, std::string>) {
    if (v.empty()) fail("spec: " + key.name() + " must be non-empty");
  } else if constexpr (std::is_same_v<T, ExperimentSpec::LossSpec>) {
    for (const double rate : {v.pub_pub, v.pub_priv, v.priv_pub,
                              v.priv_priv}) {
      check_number({"loss", "rate"}, rate, rule);
    }
    check_number({"loss", "after"}, v.after_s, kSeconds);
  } else if constexpr (!kSpelled<T>) {
    check_number(key, static_cast<double>(v), rule);
  }
}

const ExperimentSpec& defaults() {
  static const ExperimentSpec spec;
  return spec;
}

}  // namespace

net::LossConfig ExperimentSpec::LossSpec::to_config() const {
  net::LossConfig cfg;
  cfg.rate = {{{pub_pub, pub_priv}, {priv_pub, priv_priv}}};
  cfg.after = from_s(after_s);
  return cfg;
}

net::PacketConfig ExperimentSpec::packet_config() const {
  net::PacketConfig cfg;
  cfg.mtu = mtu;
  cfg.bandwidth_bps = bandwidth_bps;
  cfg.bandwidth_burst = bandwidth_burst;
  cfg.fec_repair = fec_repair;
  cfg.fec_rate = fec_rate;
  return cfg;
}

std::size_t ExperimentSpec::publics() const {
  return static_cast<std::size_t>(ratio * static_cast<double>(nodes) + 0.5);
}

sim::Duration ExperimentSpec::duration() const { return from_s(duration_s); }

bool ExperimentSpec::has_key(const std::string& key) {
  bool found = false;
  for_each_row([&](const Key& k, auto, const Rule&) {
    found = found || key == k.key;
  });
  return found;
}

void ExperimentSpec::validate() const {
  for_each_row([this](const Key& k, auto field, const Rule& rule) {
    check_value(k, this->*field, rule);
  });
  // Rules spanning several keys.
  const auto check = [](bool ok, const char* what) {
    if (!ok) fail(std::string("spec: ") + what);
  };
  check(join == JoinKind::Instant ||
            (join_public_ms > 0.0 && join_private_ms > 0.0),
        "join intervals must be positive");
  check(step_publics + step_privates == 0 || step_every_ms > 0.0,
        "step-every-ms must be positive");
  check(flash_publics + flash_privates == 0 || flash_over_s > 0.0,
        "flash over must be positive");
  // Adversarial scenario bounds, rejected here rather than mid-trial:
  // an eclipse target the join processes never spawn would silently
  // no-op forever, natflap on an all-public population has no NAT class
  // to flap, and a hub count >= nodes leaves no honest node to audit.
  check(eclipse_target <= nodes,
        "eclipse target must be a node id in [1, nodes] (0 = off; ids are "
        "assigned 1..nodes in join order)");
  check(natflap_frac == 0.0 || ratio < 1.0,
        "natflap requires a mixed population — with ratio=1 there is no "
        "NAT class to oscillate");
  check(adversary_hubs == 0 || adversary_hubs < nodes,
        "adversary hubs must be < nodes — at least one honest node must "
        "remain");
  if (adversary_hubs > 0) (void)dialect_for_protocol(protocol);
  check(bandwidth_burst == 0 || bandwidth_bps > 0,
        "bandwidth burst requires a positive rate — a zero-rate bucket "
        "would never drain");
  check((fec_repair == 0 && fec_rate == 0.0) || mtu > 0,
        "fec requires a positive mtu — repair fragments only exist for "
        "fragmented messages");
  // World's shortest possible round: a zero-length period would re-arm
  // the round event at the same instant forever.
  check(static_cast<double>(from_ms(round_ms)) * (1.0 - skew) *
                std::min(1.0, private_round_scale) >= 1.0,
        "shortest round, round-ms x (1 - skew) x min(1, "
        "private-round-scale), must be at least 1 us");
  // Fail on an unknown protocol name, option key, or malformed option
  // value at validation time, not mid-trial: specs are often validated
  // once and then fanned out over a pool, where a late throw would
  // surface as a TrialPool::wait() rethrow instead of a clean error.
  (void)ProtocolRegistry::instance().make_from_spec(protocol);
}

std::string ExperimentSpec::to_string() const {
  std::string out;
  // A composite key is printed after its last subkey row, from what its
  // rows collected.
  std::string_view group;
  std::string body;         // the printed `sub:value` elements
  std::string bare;         // the bare subkey's value, if it differs
  std::size_t changed = 0;  // subkeys differing from their defaults
  bool sparse = false;
  const auto flush = [&] {
    if (changed > 0) {
      const bool alone = sparse && changed == 1 && !bare.empty();
      out.append(" ").append(group).append("=").append(alone ? bare : body);
    }
    group = {};
    body.clear();
    bare.clear();
    changed = 0;
  };
  for_each_row([&](const Key& k, auto field, const Rule& rule) {
    const auto& v = this->*field;
    const bool differs = !(v == defaults().*field);
    if (group != k.key) flush();
    if (k.sub == nullptr) {
      if (differs || k.form == Form::Always) {
        out.append(" ").append(k.key).append("=").append(
            print_value(v, rule));
      }
      return;
    }
    group = k.key;
    sparse = k.form == Form::Sparse;
    changed += differs ? 1 : 0;
    if (differs && k.bare) bare = print_value(v, rule);
    if (differs || !sparse) {
      body.append(body.empty() ? "" : ",").append(k.sub).append(":").append(
          print_value(v, rule));
    }
  });
  flush();
  return out.substr(1);  // the leading space
}

ExperimentSpec ExperimentSpec::parse(const std::string& text) {
  ExperimentSpec spec;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == 0 || eq == std::string::npos) {
      fail("spec: expected key=value, got \"" + token + "\"");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (!has_key(key)) fail("spec: unknown key '" + key + "'");

    // A plain key takes its value; a composite key first resets every
    // subkey (repeating the key replaces it wholesale), then sets the
    // ones given.
    std::string subkeys;
    for_each_row([&](const Key& k, auto field, const Rule& rule) {
      if (key != k.key) return;
      if (k.sub == nullptr) {
        parse_value(spec.*field, key, value, rule);
      } else {
        spec.*field = defaults().*field;
        subkeys.append(subkeys.empty() ? "" : "|").append(k.sub);
      }
    });
    if (subkeys.empty()) continue;
    for (const auto& [sub, text] : split_subkeys(key, value)) {
      bool found = false;
      for_each_row([&](const Key& k, auto field, const Rule& rule) {
        if (key != k.key || !(sub.empty() ? k.bare : sub == k.sub)) return;
        parse_value(spec.*field, k.name(), text, rule);
        found = true;
      });
      if (!found) {
        fail("spec: " + key + " subkey must be " + subkeys + ", got \"" +
             sub + "\"");
      }
    }
    if (key == "bandwidth" && spec.bandwidth_bps == 0) {
      fail("spec: bandwidth rate must be positive (omit the key for an "
           "uncapped link)");
    }
  }
  spec.validate();
  return spec;
}

Experiment::Experiment(const ExperimentSpec& spec, std::uint64_t seed,
                       std::size_t world_jobs)
    : spec_(spec) {
  spec_.validate();

  World::Config cfg;
  cfg.seed = seed;
  cfg.loss = spec_.loss.to_config();
  cfg.packet = spec_.packet_config();
  cfg.round_period = from_ms(spec_.round_ms);
  cfg.clock_skew = spec_.skew;
  cfg.private_round_scale = spec_.private_round_scale;
  cfg.latency = spec_.latency;
  cfg.constant_latency = from_ms(spec_.latency_ms);
  cfg.use_natid_protocol = spec_.natid;
  // Deliberately a constructor argument, not a spec field: a spec plus a
  // seed identifies the experiment's *results*, and the engine guarantees
  // results are byte-identical for every world_jobs value.
  cfg.world_jobs = world_jobs;
  ProtocolFactory factory =
      ProtocolRegistry::instance().make_from_spec(spec_.protocol);
  if (spec_.adversary_hubs > 0) {
    factory = make_hub_adversary_factory(std::move(factory),
                                         spec_.adversary_hubs,
                                         dialect_for_protocol(spec_.protocol));
  }
  world_ = std::make_unique<World>(cfg, std::move(factory));

  // The scenario pipeline. Scheduling order mirrors what the benches
  // always did by hand — joins, then churn, then catastrophe, then
  // recorders — so a spec-built world replays a hand-built one event for
  // event; the new families (flash crowd, correlated failure) slot in
  // after their nearest historic sibling and exist only in specs with no
  // hand-built twin.
  const auto arm = [this](std::unique_ptr<ScenarioProcess> process,
                          sim::SimTime at) {
    process->start(at);
    scenario_.push_back(std::move(process));
  };

  // With the NAT-ID protocol on, the initial publics are operator seeds,
  // whatever the join kind: the identification protocol needs existing
  // public responders before any node can classify itself.
  const std::size_t pubs = spec_.publics();
  const std::size_t privs = spec_.privates();
  switch (spec_.join) {
    case ExperimentSpec::JoinKind::Poisson:
    case ExperimentSpec::JoinKind::Fixed: {
      const auto join = spec_.join == ExperimentSpec::JoinKind::Poisson
                            ? &JoinProcess::poisson
                            : &JoinProcess::fixed;
      if (pubs > 0) {
        arm(join(*world_, pubs, net::NatConfig::open(),
                 from_ms(spec_.join_public_ms), spec_.natid),
            0);
      }
      if (privs > 0) {
        arm(join(*world_, privs, net::NatConfig::natted(),
                 from_ms(spec_.join_private_ms), false),
            0);
      }
      break;
    }
    case ExperimentSpec::JoinKind::Instant:
      for (std::size_t i = 0; i < pubs; ++i) {
        if (spec_.natid) {
          world_->spawn_seeded(net::NatConfig::open());
        } else {
          world_->spawn(net::NatConfig::open());
        }
      }
      for (std::size_t i = 0; i < privs; ++i) {
        world_->spawn(net::NatConfig::natted());
      }
      break;
  }

  if (spec_.step_publics > 0) {
    arm(JoinProcess::fixed(*world_, spec_.step_publics,
                           net::NatConfig::open(),
                           from_ms(spec_.step_every_ms)),
        from_s(spec_.step_at_s));
  }
  if (spec_.step_privates > 0) {
    arm(JoinProcess::fixed(*world_, spec_.step_privates,
                           net::NatConfig::natted(),
                           from_ms(spec_.step_every_ms)),
        from_s(spec_.step_at_s));
  }

  if (spec_.flash_publics + spec_.flash_privates > 0) {
    arm(std::make_unique<FlashCrowdProcess>(*world_, spec_.flash_publics,
                                            spec_.flash_privates,
                                            from_s(spec_.flash_over_s)),
        from_s(spec_.flash_at_s));
  }

  if (spec_.churn > 0.0) {
    arm(std::make_unique<ChurnProcess>(*world_, spec_.churn,
                                       net::NatConfig::open(),
                                       net::NatConfig::natted()),
        from_s(spec_.churn_at_s));
  }

  if (spec_.catastrophe > 0.0) {
    arm(std::make_unique<CatastropheProcess>(*world_, spec_.catastrophe),
        from_s(spec_.catastrophe_at_s));
  }

  if (spec_.failure_frac > 0.0) {
    arm(std::make_unique<CorrelatedFailureProcess>(*world_,
                                                   spec_.failure_frac,
                                                   spec_.failure_corr),
        from_s(spec_.failure_at_s));
  }

  if (spec_.eclipse_target != 0) {
    arm(std::make_unique<EclipseProcess>(
            *world_, static_cast<net::NodeId>(spec_.eclipse_target),
            from_s(spec_.eclipse_period_s)),
        from_s(spec_.eclipse_at_s));
  }

  if (spec_.natflap_frac > 0.0) {
    arm(std::make_unique<NatFlapProcess>(*world_, spec_.natflap_frac,
                                         from_s(spec_.natflap_period_s)),
        from_s(spec_.natflap_at_s));
  }

  // A recorder samples every record_every_s, or at its kind's default
  // interval when that is unset, from one interval in.
  const auto record = [this]<typename Recorder>(
                          std::unique_ptr<Recorder>& recorder) {
    typename Recorder::Options opt;
    if (spec_.record_every_s > 0.0) opt.interval = from_s(spec_.record_every_s);
    recorder = std::make_unique<Recorder>(*world_, opt);
    recorder->start(opt.interval);
  };
  switch (spec_.record) {
    case ExperimentSpec::RecordKind::None:
      break;
    case ExperimentSpec::RecordKind::Estimation:
      record(estimation_);
      break;
    case ExperimentSpec::RecordKind::Graph:
      record(graph_stats_);
      break;
    case ExperimentSpec::RecordKind::GraphSampled:
      record(graph_sampled_);
      break;
    case ExperimentSpec::RecordKind::Randomness:
      record(randomness_);
      break;
  }
}

ScenarioProcess::Stats Experiment::scenario_stats() const {
  ScenarioProcess::Stats total;
  for (const auto& process : scenario_) {
    const auto s = process->stats();
    total.spawned += s.spawned;
    total.killed += s.killed;
    total.replaced += s.replaced;
    total.reclassified += s.reclassified;
  }
  return total;
}

}  // namespace croupier::run
