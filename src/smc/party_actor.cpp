#include "smc/party_actor.hpp"

#include "util/logging.hpp"

namespace ea::smc {

PartyActor::PartyActor(std::string name, int index, SmcConfig config,
                       concurrent::Mbox* requests, concurrent::Mbox* results,
                       concurrent::Pool* result_pool)
    : core::Actor(std::move(name)),
      config_(config),
      index_(index),
      requests_(requests),
      results_(results),
      result_pool_(result_pool) {}

void PartyActor::construct(core::Runtime& rt) {
  secret_ = initial_secret(index_, config_.dim);
  if (index_ == 0) rnd_.resize(config_.dim);
  if (result_pool_ == nullptr) result_pool_ = &rt.public_pool();

  const int k = config_.parties;
  out_ = connect("smc.ring." + std::to_string(index_));
  in_ = connect("smc.ring." + std::to_string((index_ + k - 1) % k));
}

void PartyActor::start_round() {
  concurrent::NodeLease token(result_pool_->get());
  const std::size_t bytes = config_.dim * sizeof(Element);
  if (!token || bytes > token->capacity) {
    EA_WARN("smc", "party 0: no node for the token, dropping request");
    return;
  }
  // Refill the masking vector from the trusted RNG on *every* request —
  // the protocol requires fresh randomness per invocation and this is the
  // sgx_read_rand cost the paper highlights.
  refill_random_trusted(rnd_);
  serialize_into(token->payload(), secret_);
  add_to_bytes(token->payload(), rnd_);
  token->size = static_cast<std::uint32_t>(bytes);
  if (out_->send_node(std::move(token))) {
    round_in_flight_ = true;
  } else {
    EA_WARN("smc", "party 0: token does not fit a sealed node, dropped");
  }
}

void PartyActor::finish_round(concurrent::NodeLease token) {
  sub_from_bytes(token->payload(), rnd_);
  round_in_flight_ = false;
  if (results_ != nullptr) results_->push(token.release());
  if (config_.dynamic) update_secret(secret_);
}

bool PartyActor::body() {
  bool progress = false;
  const std::size_t bytes = config_.dim * sizeof(Element);

  if (index_ == 0) {
    // Serve at most one in-flight invocation; further requests stay queued.
    if (!round_in_flight_ && requests_ != nullptr) {
      if (concurrent::Node* req = requests_->pop()) {
        concurrent::NodeLease lease(req);
        start_round();
        progress = true;
      }
    }
    if (round_in_flight_) {
      if (concurrent::NodeLease token = in_->recv()) {
        if (token->size == bytes) finish_round(std::move(token));
        progress = true;
      }
    }
    return progress;
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

SmcDeployment install_secure_sum(core::Runtime& rt, const SmcConfig& config) {
  auto holder = std::make_unique<DriverMboxes>("smc.driver-mboxes");
  DriverMboxes* mboxes = holder.get();
  rt.add_actor(std::move(holder));

  for (int i = 0; i < config.parties; ++i) {
    std::string name = "smc.p" + std::to_string(i);
    std::unique_ptr<PartyActor> party;
    if (i == 0) {
      party = std::make_unique<PartyActor>(name, i, config, &mboxes->requests,
                                           &mboxes->results);
    } else {
      party = std::make_unique<PartyActor>(name, i, config);
    }
    rt.add_actor(std::move(party), "smc.e" + std::to_string(i));
    rt.add_group({"smc.w" + std::to_string(i), "smc.party", {name}});
  }
  return SmcDeployment{&mboxes->requests, &mboxes->results};
}

}  // namespace ea::smc
