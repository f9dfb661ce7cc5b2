// Microbenchmarks (google-benchmark) for the framework primitives: node
// pools, mboxes, channels (plain vs encrypted), the crypto substrate and
// the simulated SGX transition costs. These quantify the constants behind
// the figure-level benchmarks.
#include <benchmark/benchmark.h>

#include "concurrent/arena.hpp"
#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/runtime.hpp"
#include "crypto/aead.hpp"
#include "crypto/sha256.hpp"
#include "pos/pos.hpp"
#include "sgxsim/cost_model.hpp"
#include "sgxsim/enclave.hpp"
#include "sgxsim/transition.hpp"
#include "sgxsim/trusted_rng.hpp"
#include "util/bytes.hpp"
#include "xmpp/stanza.hpp"

namespace {

using namespace ea;

void BM_PoolGetPut(benchmark::State& state) {
  concurrent::NodeArena arena(64, 256);
  concurrent::Pool pool;
  pool.adopt(arena);
  for (auto _ : state) {
    concurrent::Node* n = pool.get();
    benchmark::DoNotOptimize(n);
    pool.put(n);
  }
}
BENCHMARK(BM_PoolGetPut);

void BM_MboxPushPop(benchmark::State& state) {
  concurrent::NodeArena arena(64, 256);
  concurrent::Pool pool;
  pool.adopt(arena);
  concurrent::Mbox mbox;
  concurrent::Node* n = pool.get();
  for (auto _ : state) {
    mbox.push(n);
    benchmark::DoNotOptimize(mbox.pop());
  }
  pool.put(n);
}
BENCHMARK(BM_MboxPushPop);

void BM_ChannelSendRecvPlain(benchmark::State& state) {
  core::Runtime rt;
  core::Channel& ch = rt.channel("bm-plain");
  core::ChannelEnd* a = ch.connect(sgxsim::kUntrusted);
  core::ChannelEnd* b = ch.connect(sgxsim::kUntrusted);
  std::string payload = util::random_printable(1, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    a->send(payload);
    auto msg = b->recv();
    benchmark::DoNotOptimize(msg.get());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChannelSendRecvPlain)->Arg(16)->Arg(256)->Arg(1024);

void BM_ChannelSendRecvEncrypted(benchmark::State& state) {
  core::Runtime rt;
  sgxsim::Enclave& e1 = rt.enclave("bm-enc-1");
  sgxsim::Enclave& e2 = rt.enclave("bm-enc-2");
  core::Channel& ch = rt.channel("bm-enc");
  core::ChannelEnd* a = ch.connect(e1.id());
  core::ChannelEnd* b = ch.connect(e2.id());
  std::string payload = util::random_printable(2, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    a->send(payload);
    auto msg = b->recv();
    benchmark::DoNotOptimize(msg.get());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChannelSendRecvEncrypted)->Arg(16)->Arg(256)->Arg(1024);

void BM_Sha256(benchmark::State& state) {
  util::Bytes data =
      util::to_bytes(util::random_printable(3, static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void BM_AeadSealOpen(benchmark::State& state) {
  crypto::AeadKey key{};
  key[0] = 1;
  util::Bytes msg =
      util::to_bytes(util::random_printable(4, static_cast<std::size_t>(state.range(0))));
  std::uint64_t counter = 0;
  for (auto _ : state) {
    util::Bytes framed = crypto::seal_with_counter(key, counter++, {}, msg);
    benchmark::DoNotOptimize(crypto::open_framed(key, {}, framed));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AeadSealOpen)->Arg(64)->Arg(4096)->Arg(65536);

void BM_EcallRoundTrip(benchmark::State& state) {
  sgxsim::ScopedCostModel scoped;
  sgxsim::cost_model().ecall_cycles = static_cast<std::uint64_t>(state.range(0));
  sgxsim::Enclave& e = sgxsim::EnclaveManager::instance().create("bm-ecall");
  for (auto _ : state) {
    sgxsim::ecall(e, [] {});
  }
}
BENCHMARK(BM_EcallRoundTrip)->Arg(0)->Arg(8000);

// "k<n>", appended: "k" + std::to_string(n) trips a false GCC 12 -Wrestrict
// overlap at -O3 inside operator+(const char*, std::string&&).
std::string pos_key(std::uint64_t n) {
  std::string key = "k";
  key += std::to_string(n);
  return key;
}

void BM_PosSet(benchmark::State& state) {
  pos::PosOptions options;
  options.entry_count = 65536;
  options.entry_payload = 64;
  pos::Pos store(options);
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.set(util::to_bytes(pos_key(i % 64)), util::to_bytes("value"));
    if (++i % 4096 == 0) {
      state.PauseTiming();
      store.clean_step();
      store.clean_step();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_PosSet);

void BM_PosGet(benchmark::State& state) {
  pos::PosOptions options;
  options.entry_count = 1024;
  options.entry_payload = 64;
  pos::Pos store(options);
  for (int i = 0; i < 64; ++i) {
    store.set(util::to_bytes(pos_key(i)), util::to_bytes("v"));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.get(util::to_bytes(pos_key(i++ % 64))));
  }
}
BENCHMARK(BM_PosGet);

void BM_StanzaParse(benchmark::State& state) {
  std::string wire = xmpp::make_chat_message(
      "alice", "bob", util::random_printable(5, 150));
  for (auto _ : state) {
    xmpp::StanzaStream stream;
    stream.feed(wire);
    benchmark::DoNotOptimize(stream.next());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_StanzaParse);

void BM_TrustedRng(benchmark::State& state) {
  sgxsim::ScopedCostModel scoped;
  sgxsim::cost_model().rng_cycles_per_byte =
      static_cast<std::uint64_t>(state.range(0));
  std::uint8_t buf[256];
  for (auto _ : state) {
    sgxsim::trusted_read_rand(buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_TrustedRng)->Arg(0)->Arg(60);

void BM_HleLockUncontended(benchmark::State& state) {
  concurrent::HleSpinLock lock;
  for (auto _ : state) {
    concurrent::HleGuard guard(lock);
    benchmark::DoNotOptimize(&lock);
  }
}
BENCHMARK(BM_HleLockUncontended);

}  // namespace

BENCHMARK_MAIN();
