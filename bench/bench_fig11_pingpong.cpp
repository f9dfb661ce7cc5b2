// Figure 11: inter-enclave ping-pong — execution time (a) and data
// throughput (b) versus message size, for three systems:
//   Native  — SGX-SDK style: marshalled ECalls between two enclaves, the
//             bridge copying the message across the boundary each hop;
//   EA      — EActors with a plain (unencrypted) cross-enclave mbox pair;
//   EA-ENC  — EActors with transparent channel encryption.
//
// Paper shape: EA >> Native at all sizes; Native peaks near 32 KiB (L1
// copy effect); EA-ENC pays ~10x vs EA but stays ~3x above Native.
#include <cstring>
#include <thread>

#include "bench/common.hpp"
#include "concurrent/arena.hpp"
#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/runtime.hpp"
#include "sgxsim/cost_model.hpp"
#include "sgxsim/transition.hpp"
#include "util/bytes.hpp"

namespace {

using namespace ea;

struct Result {
  double seconds;      // for the paper's 1M-pair workload, extrapolated
  double throughput;   // MiB/s
};

constexpr std::uint64_t kPaperPairs = 1000000;

// --- Native: one thread bounces a marshalled buffer between two enclaves --

Result run_native(std::size_t size, std::uint64_t pairs) {
  auto& mgr = sgxsim::EnclaveManager::instance();
  sgxsim::Enclave& ping = mgr.create("fig11.native.ping");
  sgxsim::Enclave& pong = mgr.create("fig11.native.pong");

  std::string payload = util::random_printable(size, size);
  util::Bytes in = util::to_bytes(payload);
  util::Bytes out(size);

  auto handler = +[](void*, std::span<const std::uint8_t> input,
                     std::span<std::uint8_t> output) -> std::size_t {
    // The component touches the message and replies with one of its own.
    std::size_t n = std::min(input.size(), output.size());
    if (n > 0) std::memcpy(output.data(), input.data(), n);
    return n;
  };

  bench::Timer timer;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    // PING -> PONG carries the message in; the reply is marshalled out.
    sgxsim::ecall_marshalled(pong, in, out, handler, nullptr);
    sgxsim::ecall_marshalled(ping, out, in, handler, nullptr);
  }
  double secs = timer.seconds();
  double bytes = static_cast<double>(pairs) * 2 * static_cast<double>(size);
  return Result{secs * static_cast<double>(kPaperPairs) / static_cast<double>(pairs),
                bytes / secs / (1024.0 * 1024.0)};
}

// --- EActors: two workers, two enclaves, mbox pair --------------------------

Result run_eactors(std::size_t size, std::uint64_t pairs, bool encrypted) {
  core::RuntimeOptions options;
  options.pool_nodes = 64;
  options.node_payload_bytes = size + 64;  // room for the AEAD frame
  core::Runtime rt(options);

  struct Ping : core::Actor {
    Ping(std::string name, std::uint64_t target, std::size_t msg_size)
        : core::Actor(std::move(name)), target_(target) {
      payload_ = util::random_printable(msg_size, msg_size);
    }
    void construct(core::Runtime&) override {
      out_ = connect("p2q");
      in_ = connect("q2p");
    }
    bool body() override {
      if (first_) {
        first_ = false;
        out_->send(payload_);
        return true;
      }
      if (auto msg = in_->recv()) {
        ++done_;
        if (done_ < target_) {
          // Fill the message with payload data each round, as the paper's
          // workload does.
          out_->send(payload_);
        }
        return true;
      }
      return false;
    }
    std::string payload_;
    core::ChannelEnd* out_ = nullptr;
    core::ChannelEnd* in_ = nullptr;
    bool first_ = true;
    std::uint64_t target_;
    std::atomic<std::uint64_t> done_{0};
  };

  struct Pong : core::Actor {
    explicit Pong(std::string name, std::size_t msg_size)
        : core::Actor(std::move(name)) {
      payload_ = util::random_printable(msg_size + 1, msg_size);
    }
    void construct(core::Runtime&) override {
      in_ = connect("p2q");
      out_ = connect("q2p");
    }
    bool body() override {
      if (auto msg = in_->recv()) {
        out_->send(payload_);
        return true;
      }
      return false;
    }
    std::string payload_;
    core::ChannelEnd* in_ = nullptr;
    core::ChannelEnd* out_ = nullptr;
  };

  core::ChannelOptions ch_options;
  ch_options.force_plain = !encrypted;
  rt.channel("p2q", ch_options);
  rt.channel("q2p", ch_options);

  auto ping = std::make_unique<Ping>("ping", pairs, size);
  Ping* ping_ptr = ping.get();
  rt.add_actor(std::move(ping), "fig11.ea.ping");
  rt.add_actor(std::make_unique<Pong>("pong", size), "fig11.ea.pong");
  rt.add_worker("w1", {0}, {"ping"});
  rt.add_worker("w2", {1}, {"pong"});

  bench::Timer timer;
  rt.start();
  while (ping_ptr->done_.load(std::memory_order_relaxed) < pairs) {
    std::this_thread::yield();
  }
  double secs = timer.seconds();
  rt.stop();

  double bytes = static_cast<double>(pairs) * 2 * static_cast<double>(size);
  return Result{secs * static_cast<double>(kPaperPairs) / static_cast<double>(pairs),
                bytes / secs / (1024.0 * 1024.0)};
}

}  // namespace

int main() {
  bench::csv_header();
  const std::size_t sizes[] = {16, 64 * 1024, 128 * 1024, 256 * 1024,
                               512 * 1024};

  double ea_tp16 = 0, native_tp16 = 0, enc_tp = 0, ea_tp_big = 0,
         native_tp_big = 0;
  for (std::size_t size : sizes) {
    // Fewer pairs for bigger messages so the run stays bounded.
    std::uint64_t pairs =
        bench::scaled(size <= 16 ? 20000 : (size <= 131072 ? 400 : 150));

    Result native = run_native(size, pairs);
    bench::row("fig11a", "Native", static_cast<double>(size), native.seconds, "s");
    bench::row("fig11b", "Native", static_cast<double>(size),
               native.throughput, "MiB/s");

    Result ea = run_eactors(size, pairs, /*encrypted=*/false);
    bench::row("fig11a", "EA", static_cast<double>(size), ea.seconds, "s");
    bench::row("fig11b", "EA", static_cast<double>(size), ea.throughput, "MiB/s");

    Result ea_enc = run_eactors(size, pairs, /*encrypted=*/true);
    bench::row("fig11a", "EA-ENC", static_cast<double>(size), ea_enc.seconds, "s");
    bench::row("fig11b", "EA-ENC", static_cast<double>(size),
               ea_enc.throughput, "MiB/s");

    if (size == 16) {
      ea_tp16 = ea.throughput;
      native_tp16 = native.throughput;
    }
    if (size == 512 * 1024) {
      enc_tp = ea_enc.throughput;
      ea_tp_big = ea.throughput;
      native_tp_big = native.throughput;
      bench::note("512KiB: EA %.0f MiB/s, EA-ENC %.0f, Native %.0f MiB/s -> "
                  "EA-ENC/Native = %.1fx (paper: ~3x with AES-NI)",
                  ea.throughput, ea_enc.throughput, native.throughput,
                  ea_enc.throughput / native.throughput);
    }
  }
  bench::note("paper claim: EA outperforms Native at all sizes "
              "(16B ratio here: %.1fx); encryption costs ~10x vs plain EA "
              "(512KiB ratio here: %.1fx) and EA-ENC stays ~3x above Native "
              "(512KiB ratio here: %.1fx)",
              ea_tp16 / native_tp16, ea_tp_big / enc_tp,
              enc_tp / native_tp_big);
  return 0;
}
