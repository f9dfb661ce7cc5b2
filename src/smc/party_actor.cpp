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
  // Refill the masking vector from the trusted RNG on *every* request —
  // the protocol requires fresh randomness per invocation and this is the
  // sgx_read_rand cost the paper highlights.
  refill_random_trusted(rnd_);
  Vec m = secret_;
  add_in_place(m, rnd_);
  if (out_->send(serialize(m))) {
    round_in_flight_ = true;
  } else {
    EA_WARN("smc", "party 0: pool exhausted, dropping request");
  }
}

void PartyActor::finish_round(const Vec& incoming) {
  Vec sum = incoming;
  sub_in_place(sum, rnd_);
  round_in_flight_ = false;
  if (results_ != nullptr) {
    concurrent::Node* node = result_pool_->get();
    if (node != nullptr) {
      util::Bytes bytes = serialize(sum);
      if (bytes.size() <= node->capacity) {
        node->fill(bytes);
        results_->push(node);
      } else {
        concurrent::NodeLease(node).reset();
        EA_WARN("smc", "result larger than node capacity, dropped");
      }
    }
  }
  if (config_.dynamic) update_secret(secret_);
}

bool PartyActor::body() {
  bool progress = false;

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
      if (concurrent::NodeLease msg = in_->recv()) {
        finish_round(deserialize(msg->data()));
        progress = true;
      }
    }
    return progress;
  }

  // Intermediate party: add the secret and forward.
  if (concurrent::NodeLease msg = in_->recv()) {
    Vec m = deserialize(msg->data());
    msg.reset();  // return the node before potentially blocking on send
    add_in_place(m, secret_);
    // send() can fail on pool exhaustion; dropping would lose the round, so
    // spin on the (enclave-safe, syscall-free) send until a node frees up.
    util::Bytes bytes = serialize(m);
    while (!out_->send(bytes)) {
    }
    if (config_.dynamic) {
      // Recompute the secret while the token travels on — the pipelining
      // the single-threaded SDK deployment cannot exploit.
      update_secret(secret_);
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
