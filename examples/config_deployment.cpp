// Flexible deployment (paper §3.2): the SAME actor code runs trusted or
// untrusted, co-located or separated, purely as a matter of configuration.
// This example parses three deployment descriptions — one placing the
// pipeline stages in two enclaves, one running everything untrusted, one
// sharing an enclave under work stealing — and executes each, reporting
// the transition counts and channel modes that result. It exits 1 unless
// every deployment sums the pipeline's numbers correctly.
//
// Build & run:  ./build/examples/config_deployment
#include <atomic>
#include <cstdio>
#include <thread>

#include "deploy/config.hpp"
#include "sgxsim/transition.hpp"

using namespace ea;

namespace {

// A two-stage pipeline: SOURCE emits numbers, SINK accumulates them.
class Source : public core::Actor {
 public:
  using core::Actor::Actor;
  void construct(core::Runtime&) override { out_ = connect("pipe"); }
  bool body() override {
    if (sent_ >= 1000) return false;
    if (out_->send(std::to_string(sent_))) ++sent_;
    return true;
  }

 private:
  core::ChannelEnd* out_ = nullptr;
  int sent_ = 0;
};

class Sink : public core::Actor {
 public:
  using core::Actor::Actor;
  void construct(core::Runtime&) override { in_ = connect("pipe"); }
  bool body() override {
    if (auto msg = in_->recv()) {
      sum_ += std::stol(std::string(msg->view()));
      ++count_;
      return true;
    }
    return false;
  }
  long sum() const { return sum_.load(); }
  int count() const { return count_.load(); }

 private:
  core::ChannelEnd* in_ = nullptr;
  std::atomic<long> sum_{0};
  std::atomic<int> count_{0};
};

constexpr const char* kTrustedConfig = R"(
# Two enclaves, one actor each: the channel crosses an enclave boundary
# and is therefore transparently encrypted.
pool nodes=256 payload=128
enclave stage1
enclave stage2
actor source type=source enclave=stage1
actor sink   type=sink   enclave=stage2
worker w1 cpus=0 actors=source
worker w2 cpus=1 actors=sink
)";

constexpr const char* kUntrustedConfig = R"(
# Identical actor code, no enclaves: plaintext channel, zero transitions.
pool nodes=256 payload=128
actor source type=source
actor sink   type=sink
worker w1 cpus=0 actors=source,sink
)";

constexpr const char* kStealConfig = R"(
# Same trusted pipeline, but scheduled by work stealing: each worker owns
# a run queue and may lend ready actors to an idle peer that has entered
# the same enclave (DESIGN.md section 14). Both workers enter "stage",
# so either may end up running source or sink.
sched steal
pool nodes=256 payload=128
enclave stage
actor source type=source enclave=stage
actor sink   type=sink   enclave=stage
worker w1 cpus=0 actors=source,sink
worker w2 cpus=1 actors=source,sink
)";

constexpr long kExpectedSum = 999 * 1000 / 2;

// Runs one deployment; true when the sink summed every number once.
bool run(const char* label, const char* config_text) {
  deploy::ActorRegistry registry;
  Sink* sink_ptr = nullptr;
  registry.register_type("source", [](const std::string& name) {
    return std::make_unique<Source>(name);
  });
  registry.register_type("sink", [&](const std::string& name) {
    auto sink = std::make_unique<Sink>(name);
    sink_ptr = sink.get();
    return sink;
  });

  auto config = deploy::DeploymentConfig::parse(config_text);
  auto rt = deploy::build_runtime(config, registry);
  sgxsim::reset_transition_stats();
  rt->start();
  while (sink_ptr->count() < 1000) {
    std::this_thread::yield();
  }
  rt->stop();

  auto stats = sgxsim::transition_stats();
  std::printf("%-10s channel encrypted: %-3s  sum=%ld  ecalls=%llu\n", label,
              rt->channel("pipe").encrypted() ? "yes" : "no",
              sink_ptr->sum(),
              static_cast<unsigned long long>(stats.ecalls));
  return sink_ptr->sum() == kExpectedSum;
}

}  // namespace

int main() {
  std::printf("same actors, three deployment configs:\n");
  bool ok = run("trusted:", kTrustedConfig);
  ok = run("untrusted:", kUntrustedConfig) && ok;
  ok = run("stealing:", kStealConfig) && ok;
  std::printf("(sum should be %ld in all cases)\n", kExpectedSum);
  return ok ? 0 : 1;
}
