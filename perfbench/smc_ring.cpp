// smc_ring: the secure sum (paper Fig. 9a / 12c) as smc::install_secure_sum
// deploys it — 3 parties, each in its own enclave on its own pinned worker
// (static scheduler), vectors of dim 1000 (4 KB). One caller keeps one
// request outstanding. Each request pays one 4 KB trusted-RNG refill, three
// 4 KB AEAD seals and three opens, and three worker hand-offs; no socket or
// POS code runs.
//
// The traced run deploys the same topology with a benchmark-side
// PartyActor subclass that records a span around every progressing body()
// quantum. A request's quanta are p0 (start) → p1 → p2 → p0 (finish); the
// part of the request the quanta do not cover is hand-off wait.
#include <memory>

#include "concurrent/mbox.hpp"
#include "sgxsim/enclave.hpp"
#include "smc/party_actor.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ea::concurrent::Mbox;
using ea::concurrent::Node;
using ea::concurrent::NodeLease;

constexpr int kParties = 3;
constexpr std::size_t kDim = 1000;
constexpr int kGeneratorCpu = 3;  // install_secure_sum pins party i to cpu i
constexpr std::size_t kMaxSpans = 1 << 18;
constexpr std::uint64_t kSliceNs = 100'000'000;  // ~180 requests

class TracedParty : public ea::smc::PartyActor {
 public:
  using PartyActor::PartyActor;

  bool body() override {
    const std::uint64_t begin = now_ns();
    const bool progress = PartyActor::body();
    if (progress && spans.size() < kMaxSpans) spans.push_back({begin, now_ns()});
    return progress;
  }

  std::vector<Span> spans;  // written by the party's worker only
};

struct DriverMboxes : ea::core::Actor {
  using ea::core::Actor::Actor;
  Mbox requests;
  Mbox results;
  bool body() override { return false; }
};

struct Ring {
  std::unique_ptr<ea::core::Runtime> rt;
  Mbox* requests = nullptr;
  Mbox* results = nullptr;
  std::vector<TracedParty*> traced;  // traced runs only
  ea::smc::Vec expected;
};

ea::smc::SmcConfig smc_config() {
  ea::smc::SmcConfig c;
  c.parties = kParties;
  c.dim = kDim;
  return c;
}

// Same topology as smc::install_secure_sum, with spans on every party.
ea::smc::SmcDeployment install_traced(ea::core::Runtime& rt,
                                      std::vector<TracedParty*>& parties) {
  auto holder = std::make_unique<DriverMboxes>("smc.driver-mboxes");
  DriverMboxes* mboxes = holder.get();
  rt.add_actor(std::move(holder));
  for (int i = 0; i < kParties; ++i) {
    const std::string name = "smc.p" + std::to_string(i);
    auto party =
        i == 0 ? std::make_unique<TracedParty>(name, i, smc_config(),
                                               &mboxes->requests,
                                               &mboxes->results)
               : std::make_unique<TracedParty>(name, i, smc_config());
    party->spans.reserve(kMaxSpans);
    parties.push_back(party.get());
    rt.add_actor(std::move(party), "smc.e" + std::to_string(i));
    rt.add_worker("smc.w" + std::to_string(i), {i}, {name});
  }
  return {&mboxes->requests, &mboxes->results};
}

Ring make_ring(bool trace) {
  ea::core::RuntimeOptions options;
  options.pool_nodes = 128;
  options.node_payload_bytes = kDim * sizeof(ea::smc::Element) + 64;
  Ring ring;
  ring.rt = std::make_unique<ea::core::Runtime>(options);
  ea::smc::SmcDeployment d =
      trace ? install_traced(*ring.rt, ring.traced)
            : ea::smc::install_secure_sum(*ring.rt, smc_config());
  ring.requests = d.requests;
  ring.results = d.results;
  ring.rt->start();
  // Secrets are fixed once construct() ran (the ring is not dynamic).
  ring.expected.assign(kDim, 0);
  for (int i = 0; i < kParties; ++i) {
    auto* party = dynamic_cast<ea::smc::PartyActor*>(
        ring.rt->find_actor("smc.p" + std::to_string(i)));
    ea::smc::add_in_place(ring.expected, party->secret());
  }
  return ring;
}

void destroy_ring(Ring& ring) {
  ring.rt->stop();
  ring.rt.reset();
  ea::sgxsim::EnclaveManager::instance().reset_for_testing();
}

// One closed-loop request: push, wait for the sum until the deadline,
// check it. Returns the request span, or nullopt when no reply came.
std::optional<Span> request(Ring& ring, const RunConfig& config,
                            Outcome& outcome) {
  Node* req = ring.rt->public_pool().get();
  if (req == nullptr) {
    outcome.fail();
    return std::nullopt;
  }
  const std::uint64_t begin = now_ns();
  const std::uint64_t deadline =
      begin + static_cast<std::uint64_t>(config.reply_deadline.count()) *
                  1000000ull;
  ring.requests->push(req);
  while (ring.results->empty()) {
    if (now_ns() > deadline) {
      outcome.fail();
      return std::nullopt;
    }
  }
  NodeLease result(ring.results->pop());
  const Span span{begin, now_ns()};
  outcome.check(sum_matches(result->data(), ring.expected));
  return span;
}

// One set-up, from construction to the first checked sum, timed into
// res.setup_s. Returns the first request's span, or nullopt with the
// failure recorded; `ring` holds the deployment either way.
std::optional<Span> timed_setup(Ring& ring, const RunConfig& config,
                                WorkloadResult& res) {
  const std::uint64_t t0 = now_ns();
  ring = make_ring(config.trace);
  Outcome first;
  std::optional<Span> span = request(ring, config, first);
  res.setup_s.push_back(seconds_since(t0));
  if (span && first.failed == 0) return span;
  res.outcome.merge(first);
  res.notes.push_back("smc_ring: first request of a setup failed");
  return std::nullopt;
}

}  // namespace

bool sum_matches(std::span<const std::uint8_t> result,
                 const ea::smc::Vec& expected) {
  return result.size() == expected.size() * sizeof(ea::smc::Element) &&
         ea::smc::deserialize(result) == expected;
}

WorkloadResult run_smc_ring(const RunConfig& config) {
  WorkloadResult res;
  pin_to_cpu(kGeneratorCpu);
  res.pin_map = "smc.w0=cpu0 smc.w1=cpu1 smc.w2=cpu2 generator=cpu3";

  const int rounds = config.rounds;
  const double share = config.seconds / rounds;
  const std::uint64_t min_samples = min_samples_for(0.99);
  Ring ring;
  std::vector<Span> requests;  // every request of the last deployment
  std::vector<Sample> samples;
  std::vector<Span> windows;
  // Counters of the last round (the only one when traced).
  Counters before, after;
  std::uint64_t gen_switches = 0;
  std::size_t pool_free_min = 0;
  bool lost = false;
  for (int round = 0; round < rounds && !lost; ++round) {
    // Set-ups: all but the last are torn down again.
    for (int s = 0; s < kSetupBatch; ++s) {
      if (round != 0 || s != 0) destroy_ring(ring);
      std::optional<Span> span = timed_setup(ring, config, res);
      if (!span) {
        destroy_ring(ring);
        return res;
      }
      requests.assign(1, *span);
    }
    const bool last = round + 1 == rounds;
    before = sample_counters(*ring.rt);
    const std::uint64_t gen_switches0 = thread_voluntary_switches();
    pool_free_min = ring.rt->public_pool().size();
    const std::uint64_t start = now_ns();
    double elapsed = 0;
    // The last round runs on until the whole-run p99 can be reported.
    while (elapsed < share ||
           (last && samples.size() < min_samples &&
            res.seconds + elapsed < 3 * config.seconds)) {
      std::optional<Span> span = request(ring, config, res.outcome);
      if (!span) {  // a lost reply leaves the ring unusable
        lost = true;
        break;
      }
      requests.push_back(*span);
      samples.push_back({span->end_ns, span->ns()});
      if (config.trace) {
        pool_free_min = std::min(pool_free_min, ring.rt->public_pool().size());
      }
      elapsed = seconds_since(start);
    }
    windows.push_back({start, now_ns()});
    res.seconds += static_cast<double>(windows.back().ns()) * 1e-9;
    gen_switches = thread_voluntary_switches() - gen_switches0;
    after = sample_counters(*ring.rt);
  }
  ring.rt->stop();

  // The secrets are fixed once construct() ran, the same in every round.
  Digest digest;
  for (ea::smc::Element e : ring.expected) digest.add_u64(e);
  res.input_digest = digest.hex();

  res.ops = res.outcome.attempted - res.outcome.failed;
  const std::size_t first_timed = 1;  // requests[0] was the set-up's
  res.quiet = quiet_samples(samples, windows, kSliceNs);
  res.latency = summarize_samples(samples);
  res.named = {
      {"smc.req_per_s", res.quiet.ops_per_s, "1/s", res.ops},
      {"smc.latency_p50_us", res.quiet.p50_us, "us", res.latency.count},
      {"smc.latency_p99_us (whole run)", res.latency.p99_us, "us",
       res.latency.count},
  };

  if (config.trace) {
    auto& layer = res.layer;
    add_counter_layers(before, after, res.ops, gen_switches, layer);
    layer["concurrent.pool.free_min"] = static_cast<double>(pool_free_min);
    std::uint64_t copies = 0;
    std::uint64_t auth = 0;
    std::uint64_t frames = 0;
    for (const auto& [name, ch] : ring.rt->channels()) {
      if (name.rfind("smc.ring.", 0) != 0) continue;
      copies += ch->payload_copies();
      auth += ch->auth_failures();
      frames += ch->frame_errors();
    }
    // Channel counters cover every request of this deployment, the untimed
    // first one included.
    const double all_requests = static_cast<double>(requests.size());
    layer["core.channel.payload_copies_per_op"] =
        static_cast<double>(copies) / all_requests;
    layer["core.channel.auth_failures"] = static_cast<double>(auth);
    layer["core.channel.frame_errors"] = static_cast<double>(frames);

    // Request k's quanta: p0 spans 2k and 2k+1, p1 and p2 span k.
    const auto& p0 = ring.traced[0]->spans;
    const auto& p1 = ring.traced[1]->spans;
    const auto& p2 = ring.traced[2]->spans;
    double busy = 0;
    double wait = 0;
    std::size_t analysed = 0;
    for (std::size_t k = first_timed; k < requests.size(); ++k) {
      if (2 * k + 1 >= p0.size() || k >= p1.size() || k >= p2.size()) break;
      const Span req = requests[k];
      const std::uint64_t self =
          self_time_ns(req, {p0[2 * k], p1[k], p2[k], p0[2 * k + 1]});
      wait += static_cast<double>(self);
      busy += static_cast<double>(req.ns() - self);
      ++analysed;
    }
    const double n = analysed == 0 ? 1.0 : static_cast<double>(analysed);
    layer["smc.party_busy_us"] = busy / n * 1e-3;
    layer["smc.handoff_wait_us"] = wait / n * 1e-3;
    layer["smc.request_mean_us"] = res.latency.mean_us;
    res.notes.push_back("smc_ring trace: " + std::to_string(analysed) +
                        " requests split into party quanta and hand-off wait");
  }
  destroy_ring(ring);
  return res;
}

}  // namespace perfbench
