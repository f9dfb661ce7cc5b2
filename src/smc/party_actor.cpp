#include "smc/party_actor.hpp"

#include "net/channel_link.hpp"
#include "util/logging.hpp"

namespace ea::smc {

PartyActor::PartyActor(std::string name, int index, SmcConfig config,
                       concurrent::Mbox* requests, concurrent::Mbox* results)
    : core::Actor(std::move(name)),
      config_(config),
      index_(index),
      requests_(requests),
      results_(results) {}

void PartyActor::construct(core::Runtime& rt) {
  (void)rt;
  secret_ = initial_secret(index_, config_.dim);
  if (index_ == 0) mask_ = MaskAhead(config_.dim);

  const int k = config_.parties;
  out_ = connect("smc.ring." + std::to_string(index_));
  in_ = connect("smc.ring." + std::to_string((index_ + k - 1) % k));
}

void PartyActor::start_round(concurrent::NodeLease token) {
  const std::size_t bytes = config_.dim * sizeof(Element);
  if (bytes > token->capacity) {
    EA_WARN("smc", "party 0: request node cannot hold the token, dropped");
    return;
  }
  // Every invocation masks with a fresh mask, mostly drawn while the
  // previous round's token travelled (body()).
  serialize_into(token->payload(), secret_);
  add_to_bytes(token->payload(), mask_.take());
  token->size = static_cast<std::uint32_t>(bytes);
  if (out_->send_node(std::move(token))) {
    round_in_flight_ = true;
  } else {
    EA_WARN("smc", "party 0: token does not fit a sealed node, dropped");
  }
}

void PartyActor::finish_round(concurrent::NodeLease token) {
  sub_from_bytes(token->payload(), mask_.current());
  round_in_flight_ = false;
  if (results_ != nullptr) results_->push(token.release());
  if (config_.dynamic) update_secret(secret_);
}

bool PartyActor::body() {
  bool progress = false;
  const std::size_t bytes = config_.dim * sizeof(Element);

  if (index_ == 0) {
    // The returning token first, so a queued request starts the next
    // round in the same quantum.
    if (round_in_flight_) {
      if (concurrent::NodeLease token = in_->recv()) {
        if (token->size == bytes) finish_round(std::move(token));
        progress = true;
      }
    }
    // Serve at most one in-flight invocation; further requests stay queued.
    if (!round_in_flight_ && requests_ != nullptr) {
      if (concurrent::Node* req = requests_->pop()) {
        start_round(concurrent::NodeLease(req));
        progress = true;
      }
    }
    // A quantum with nothing else to do draws a chunk of the next mask:
    // the trusted-RNG cost overlaps the token's trip round the ring.
    return progress || mask_.draw_some();
  }

  // Intermediate party: add the secret to the token and pass the same node
  // on. A node that is not one vector is dropped.
  if (concurrent::NodeLease token = in_->recv()) {
    if (token->size == bytes) {
      add_to_bytes(token->payload(), secret_);
      if (!out_->send_node(std::move(token))) {
        EA_WARN("smc", "party %d: token does not fit a sealed node, dropped",
                index_);
      }
      if (config_.dynamic) {
        // Recompute the secret while the token travels on — the pipelining
        // the single-threaded SDK deployment cannot exploit.
        update_secret(secret_);
      }
    }
    progress = true;
  }
  return progress;
}

namespace {

// Parties "<prefix>p<i>", each in enclave "<prefix>e<i>" and worker group
// "<prefix>w<i>" (role "<prefix>party").
SmcDeployment add_parties(core::Runtime& rt, const SmcConfig& config,
                          const std::string& prefix) {
  auto holder = std::make_unique<DriverMboxes>(prefix + "driver-mboxes");
  DriverMboxes* mboxes = holder.get();
  rt.add_actor(std::move(holder));

  for (int i = 0; i < config.parties; ++i) {
    std::string name = prefix + "p" + std::to_string(i);
    std::unique_ptr<PartyActor> party;
    if (i == 0) {
      party = std::make_unique<PartyActor>(name, i, config, &mboxes->requests,
                                           &mboxes->results);
    } else {
      party = std::make_unique<PartyActor>(name, i, config);
    }
    rt.add_actor(std::move(party), prefix + "e" + std::to_string(i));
    rt.add_group({prefix + "w" + std::to_string(i), prefix + "party", {name}});
  }
  return SmcDeployment{&mboxes->requests, &mboxes->results};
}

}  // namespace

SmcDeployment install_secure_sum(core::Runtime& rt, const SmcConfig& config) {
  return add_parties(rt, config, "smc.");
}

SmcDeployment install_net_ring(core::Runtime& rt, const SmcConfig& config,
                               const net::NetSubsystem& net) {
  SmcDeployment dep = add_parties(rt, config, "smc.net.");
  std::vector<core::Channel*> hops;
  for (int i = 0; i < config.parties; ++i) {
    hops.push_back(&rt.channel("smc.ring." + std::to_string(i)));
  }
  net::carry_channels(rt, hops, net);
  return dep;
}

}  // namespace ea::smc
