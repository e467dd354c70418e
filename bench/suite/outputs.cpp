#include "outputs.hpp"

#include <cstdio>
#include <cstring>

namespace croupier::suite {

namespace {

class Fnv1a {
 public:
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void real(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    word(bits);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::string digest_of(const RunOutputs& out) {
  Fnv1a h;
  if (out.estimation != nullptr) {
    for (const auto& p : *out.estimation) {
      h.real(p.t_seconds);
      h.real(p.sample.avg_error);
      h.real(p.sample.max_error);
      h.real(p.sample.truth);
      h.word(p.sample.node_count);
    }
  }
  if (out.graph_sampled != nullptr) {
    for (const auto& p : *out.graph_sampled) {
      h.real(p.t_seconds);
      h.real(p.avg_path_length);
      h.real(p.unreachable_fraction);
      h.real(p.clustering_coefficient);
      h.real(p.mean_out_degree);
      h.real(p.in_degree_cv);
      h.real(p.largest_component_fraction);
      h.word(p.population);
      h.word(p.component_nodes);
      h.word(p.edge_samples);
      h.word(p.path_pairs);
      h.word(p.bfs_truncated);
    }
  }
  if (out.randomness != nullptr) {
    for (const auto& p : *out.randomness) {
      h.real(p.t_seconds);
      h.real(p.chi2);
      h.real(p.chi2_z);
      h.real(p.repeat_observed);
      h.real(p.repeat_expected);
      h.real(p.repeat_ratio);
      h.real(p.public_fraction);
      h.real(p.public_expected);
      h.real(p.bias_ratio);
      h.word(p.nodes);
      h.word(p.edges_observed);
    }
  }
  h.word(out.events);
  const auto& d = out.drops;
  for (const std::uint64_t v :
       {d.loss, d.nat_filtered, d.dead_receiver, d.delivered, d.loss_bytes,
        d.nat_filtered_bytes, d.dead_receiver_bytes, d.delivered_bytes,
        d.fragments_sent, d.fragments_lost, d.fragments_reassembled,
        d.fragments_expired}) {
    h.word(v);
  }
  const auto& s = out.scenario;
  for (const std::uint64_t v :
       {s.spawned, s.killed, s.replaced, s.reclassified}) {
    h.word(v);
  }
  return h.hex();
}

std::map<std::string, double> checks_of(const RunOutputs& out) {
  std::map<std::string, double> checks;
  if (out.estimation != nullptr) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& p : *out.estimation) {
      if (p.t_seconds > out.duration_s - 50.0) {
        sum += p.sample.avg_error;
        ++n;
      }
    }
    checks["steady_avg_err"] = n == 0 ? 1.0 : sum / static_cast<double>(n);
  }
  if (out.graph_sampled != nullptr) {
    checks["final_largest_component"] =
        out.graph_sampled->empty()
            ? 0.0
            : out.graph_sampled->back().largest_component_fraction;
  }
  if (out.randomness != nullptr) {
    checks["audit_ticks"] = static_cast<double>(out.randomness->size());
  }
  checks["replaced"] = static_cast<double>(out.scenario.replaced);
  return checks;
}

}  // namespace croupier::suite
