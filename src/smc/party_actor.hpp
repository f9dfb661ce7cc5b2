// EActors deployment of the secure-sum service (paper Fig. 9a).
//
// Each party is an independent eactor in its own enclave; hops travel over
// encrypted channels. One node carries a round's token all the way round:
// party 0 fills the request node it popped with its masked secret, each
// party adds its secret where the channel opened it and passes the same
// node on, and party 0 unmasks it and hands it to the result mbox. On a
// worker of its own (the paper's deployment) a party never leaves its
// enclave in steady state — the protocol costs zero transitions. The ring
// pipelines what the single-threaded SDK variant runs in series: party 0
// draws the next round's mask while the token travels, and in the
// dynamic-secret variant each party recomputes its secret while the token
// circulates elsewhere.
//
// Channel topology: party i sends on channel "smc.ring.<i>" and receives on
// "smc.ring.<i-1 mod K>". Party 0 additionally serves a request mbox and
// publishes finished sums to a result mbox (both owned by the caller).
//
// The same parties run the distributed ring §5.2 contrasts co-location
// with (install_net_ring): each hop's channel is carried over loopback TCP
// by the untrusted net actors (net/channel_link.hpp), and a party cannot
// tell the difference. A link that breaks is re-dialled, and its last
// frame is written again on the new connection, where the replay guard
// drops it if it had arrived; no party keeps a retransmit timer or a
// round id, so dynamic secrets work over TCP too.
#pragma once

#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/actor.hpp"
#include "core/channel.hpp"
#include "core/runtime.hpp"
#include "smc/secure_sum.hpp"

namespace ea::net {
struct NetSubsystem;
}  // namespace ea::net

namespace ea::smc {

class PartyActor : public core::Actor {
 public:
  // `index` in [0, config.parties). For index 0 the request/result mboxes
  // must be provided; each request node becomes its round's token and,
  // once it has come round the ring, the result party 0 hands to
  // `results`.
  PartyActor(std::string name, int index, SmcConfig config,
             concurrent::Mbox* requests = nullptr,
             concurrent::Mbox* results = nullptr);

  void construct(core::Runtime& rt) override;
  bool body() override;

  std::uint64_t state_bytes() const override {
    return 4096 + config_.dim * sizeof(Element) * 2;
  }

  const Vec& secret() const noexcept { return secret_; }

 private:
  void start_round(concurrent::NodeLease token);
  void finish_round(concurrent::NodeLease token);

  SmcConfig config_;
  int index_;
  Vec secret_;
  MaskAhead mask_;  // party 0 only
  bool round_in_flight_ = false;

  core::ChannelEnd* out_ = nullptr;
  core::ChannelEnd* in_ = nullptr;
  concurrent::Mbox* requests_;
  concurrent::Mbox* results_;
};

// The driver's request/result mboxes, parked in an actor that no worker
// runs so they live as long as the runtime. Both ring installers use it.
struct DriverMboxes : core::Actor {
  using core::Actor::Actor;
  concurrent::Mbox requests;
  concurrent::Mbox results;
  bool body() override { return false; }
};

// Convenience: builds the full EActors secure-sum deployment — K parties,
// each in its own enclave ("smc.e<i>") and worker group ("smc.w<i>", role
// "smc.party") — and returns the request/result mboxes. The caller pushes
// one (empty) node per invocation into `requests` and pops serialized sums
// from `results`.
struct SmcDeployment {
  concurrent::Mbox* requests = nullptr;
  concurrent::Mbox* results = nullptr;
};

SmcDeployment install_secure_sum(core::Runtime& rt, const SmcConfig& config);

// The same ring with every hop carried over loopback TCP: parties
// "smc.net.p<i>" in enclaves "smc.net.e<i>" and groups "smc.net.w<i>"
// (role "smc.net.party"), and one net::ChannelLink per hop. Call after
// install_networking(), before rt.start().
SmcDeployment install_net_ring(core::Runtime& rt, const SmcConfig& config,
                               const net::NetSubsystem& net);

}  // namespace ea::smc
