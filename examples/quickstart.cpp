// Quickstart: the EActors programming model in one file.
//
// Two eactors, PING and PONG, each deployed into its own (simulated) SGX
// enclave and driven by its own worker. They exchange messages over a
// channel; because the endpoints live in *different* enclaves, the channel
// transparently encrypts every message with a session key established via
// local attestation — the actor code never mentions encryption.
//
// Build & run:  ./build/examples/quickstart
#include <atomic>
#include <cstdio>
#include <thread>

#include "core/runtime.hpp"
#include "sgxsim/transition.hpp"

using namespace ea;

namespace {

// An eactor implements two hooks: construct() (connect channels, set up
// private state) and body() (one non-blocking scheduling quantum).
class Ping : public core::Actor {
 public:
  Ping(std::string name, int rounds)
      : core::Actor(std::move(name)), rounds_(rounds) {}

  void construct(core::Runtime&) override {
    out_ = connect("ping->pong");
    in_ = connect("pong->ping");
  }

  bool body() override {
    if (first_) {
      first_ = false;
      out_->send("ping 0");
      return true;
    }
    if (auto msg = in_->recv()) {
      int received = ++received_;
      if (received < rounds_) {
        out_->send("ping " + std::to_string(received));
      }
      return true;
    }
    return false;
  }

  int received() const { return received_.load(); }

 private:
  core::ChannelEnd* out_ = nullptr;
  core::ChannelEnd* in_ = nullptr;
  bool first_ = true;
  int rounds_;
  std::atomic<int> received_{0};
};

class Pong : public core::Actor {
 public:
  using core::Actor::Actor;

  void construct(core::Runtime&) override {
    in_ = connect("ping->pong");
    out_ = connect("pong->ping");
  }

  bool body() override {
    if (auto msg = in_->recv()) {
      out_->send("pong (" + std::string(msg->view()) + ")");
      return true;
    }
    return false;
  }

 private:
  core::ChannelEnd* in_ = nullptr;
  core::ChannelEnd* out_ = nullptr;
};

}  // namespace

int main() {
  constexpr int kRounds = 10000;
  core::Runtime rt;

  // Deployment is data, not code: the same actors run untrusted if the
  // enclave argument is dropped (see examples/config_deployment.cpp).
  auto ping = std::make_unique<Ping>("ping", kRounds);
  Ping* ping_ptr = ping.get();
  rt.add_actor(std::move(ping), "enclave-ping");
  rt.add_actor(std::make_unique<Pong>("pong"), "enclave-pong");
  rt.add_worker("worker-1", {0}, {"ping"});
  rt.add_worker("worker-2", {1}, {"pong"});

  sgxsim::reset_transition_stats();
  rt.start();
  const bool encrypted = rt.channel("ping->pong").encrypted();
  std::printf("channel encrypted: %s\n", encrypted ? "yes" : "no");

  while (ping_ptr->received() < kRounds) {
    std::this_thread::yield();
  }
  rt.stop();

  auto stats = sgxsim::transition_stats();
  std::printf("exchanged %d round trips\n", ping_ptr->received());
  std::printf("enclave transitions for the whole run: %llu ecalls, %llu "
              "ocalls (the workers entered their enclaves once and never "
              "left — this is the EActors fast path)\n",
              static_cast<unsigned long long>(stats.ecalls),
              static_cast<unsigned long long>(stats.ocalls));
  // Two constructs plus one entry per worker, and no exit on the way.
  const bool ok = encrypted && ping_ptr->received() == kRounds &&
                  stats.ecalls == 4 && stats.ocalls == 0;
  return ok ? 0 : 1;
}
