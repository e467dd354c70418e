// One value of each wire message type in src/, for the suites that must
// cover every type: sizing, decoding and the pinned bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "baselines/arrg.hpp"
#include "baselines/cyclon.hpp"
#include "baselines/gozar.hpp"
#include "baselines/nylon.hpp"
#include "core/croupier.hpp"
#include "natid/natid.hpp"

namespace croupier::testing {

inline std::vector<pss::NodeDescriptor> base_descs(std::size_t n) {
  std::vector<pss::NodeDescriptor> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({static_cast<net::NodeId>(3 * i + 1),
                   i % 2 == 0 ? net::NatType::Public : net::NatType::Private,
                   static_cast<std::uint16_t>(i * 97)});
  }
  return out;
}

inline std::vector<baselines::GozarDescriptor> gozar_descs(std::size_t n) {
  std::vector<baselines::GozarDescriptor> out;
  for (std::size_t i = 0; i < n; ++i) {
    baselines::GozarDescriptor d{static_cast<net::NodeId>(i + 5),
                                 net::NatType::Private,
                                 static_cast<std::uint16_t>(i), {}};
    for (std::size_t p = 0; p < i % 4; ++p) {
      d.parents.push_back(static_cast<net::NodeId>(100 + p));
    }
    out.push_back(d);
  }
  return out;
}

inline std::vector<baselines::NylonDescriptor> nylon_descs(std::size_t n) {
  std::vector<baselines::NylonDescriptor> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({static_cast<net::NodeId>(i + 9), net::NatType::Private,
                   static_cast<std::uint16_t>(300 * i), 4});
  }
  return out;
}

// Every origin after the first passes 0xffff; counts stay in the byte
// range that entries hold.
inline std::vector<core::EstimateEntry> estimates(std::size_t n) {
  std::vector<core::EstimateEntry> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({static_cast<net::NodeId>(0xfff0 + 0x1000 * i),
                   static_cast<std::uint8_t>(i * 3 % 256),
                   static_cast<std::uint8_t>(255 - i), 7});
  }
  return out;
}

/// Calls `f` on one value of each of the 22 message types in src/, as
/// its own type, with every list `n` entries long (estimate lists 255
/// when n >= 20).
template <typename F>
void for_each_message(std::size_t n, F&& f) {
  const std::size_t n_est = n >= 20 ? 255 : n;

  core::CroupierShuffleReq creq;
  creq.sender = base_descs(1).front();
  creq.pub = base_descs(n);
  creq.pri = base_descs(n);
  creq.estimates = estimates(n_est);
  f(creq);
  core::CroupierShuffleRes cres;
  cres.pub = base_descs(n);
  cres.pri = base_descs(n);
  cres.estimates = estimates(n_est);
  f(cres);

  baselines::CyclonShuffleReq cyreq;
  cyreq.sender = base_descs(1).front();
  cyreq.entries = base_descs(n);
  f(cyreq);
  baselines::CyclonShuffleRes cyres;
  cyres.entries = base_descs(n);
  f(cyres);

  baselines::ArrgShuffleReq areq;
  areq.sender = base_descs(1).front();
  areq.entries = base_descs(n);
  f(areq);
  baselines::ArrgShuffleRes ares;
  ares.entries = base_descs(n);
  f(ares);

  baselines::GozarShuffleReq greq;
  greq.sender = gozar_descs(4).back();
  greq.nonce = 0xbeef;
  greq.entries = gozar_descs(n);
  f(greq);
  baselines::GozarShuffleRes gres;
  gres.responder = 77;
  gres.entries = gozar_descs(n);
  f(gres);
  baselines::GozarRelayedReq grelreq;
  grelreq.final_target = 12;
  grelreq.inner = greq;
  f(grelreq);
  baselines::GozarRelayedRes grelres;
  grelres.final_target = 13;
  grelres.inner = gres;
  f(grelres);
  f(baselines::GozarPing{});
  f(baselines::GozarPong{});

  baselines::NylonShuffleReq nreq;
  nreq.sender = nylon_descs(1).front();
  nreq.entries = nylon_descs(n);
  f(nreq);
  baselines::NylonShuffleRes nres;
  nres.entries = nylon_descs(n);
  f(nres);
  baselines::NylonPunchReq punch;
  punch.initiator = 3;
  punch.initiator_type = net::NatType::Private;
  punch.target = 0xfffffffe;
  punch.hops = static_cast<std::uint8_t>(n);
  f(punch);
  baselines::NylonConnect connect;
  connect.initiator = 8;
  f(connect);
  f(baselines::NylonPunchOpen{});
  f(baselines::NylonProbe{});
  f(baselines::NylonKeepalive{});

  natid::MatchingIpTest matching;
  for (std::size_t i = 0; i < n; ++i) {
    matching.probed.push_back(static_cast<net::NodeId>(i + 40));
  }
  f(matching);
  natid::ForwardTest fwd;
  fwd.client = 6;
  fwd.observed_ip = net::IpAddr{0x52000006u};
  f(fwd);
  natid::ForwardResp resp;
  resp.observed_ip = net::IpAddr{0x0a000001u};
  f(resp);
}

}  // namespace croupier::testing
