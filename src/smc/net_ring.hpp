// Secure-sum ring over real TCP with self-healing links (DESIGN.md §12).
//
// smc/party_actor.hpp runs the ring over in-process channels. This
// deployment is the distributed setting §5.2 contrasts co-location with
// (bench_ablation_colocated's TCP series): K party eactors, each in its own
// enclave and worker group, linked by loopback TCP carried through the
// untrusted system actors (net/actors.hpp) — and the links *heal*:
//
//   * outbound links are owned by the RECONNECTOR (net/reconnector.hpp);
//     a reset is redialed with backoff and the party learns the new
//     socket from its status mbox;
//   * inbound links re-arrive through the party's ACCEPTER subscription —
//     the listener stays registered forever;
//   * every hop is sealed by the rule of every hop between enclaves
//     (core/hop_seal.hpp): each link has a key of its own, and its
//     counters keep counting across reconnects, so a retransmitted token
//     is sealed under a fresh nonce and the receiver drops replayed,
//     reflected and spliced frames;
//   * lost tokens are survived by retransmission: party 0 re-sends its
//     masked vector — under the round's one mask — while a round is
//     unresolved, and intermediate parties cache their last forwarded token
//     per round id, so duplicates are re-forwarded idempotently instead of
//     being re-summed.
//
// Retransmission requires idempotent hops, so this deployment supports
// static secrets only (SmcConfig::dynamic is rejected).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/actor.hpp"
#include "core/hop_seal.hpp"
#include "net/actors.hpp"
#include "net/reconnector.hpp"
#include "smc/secure_sum.hpp"

namespace ea::smc {

class NetRingParty : public core::Actor {
 public:
  // `in` seals the link from party index-1 (this party is its side 1),
  // `out` the link to party index+1 (side 0).
  NetRingParty(std::string name, int index, SmcConfig config,
               core::HopSeal in, core::HopSeal out,
               concurrent::Mbox* requests = nullptr,
               concurrent::Mbox* results = nullptr);

  // Wiring performed by install_net_ring() before rt.start().
  concurrent::Mbox& accepts() noexcept { return accepts_; }
  concurrent::Mbox& out_status() noexcept { return out_status_; }
  concurrent::Mbox& out_events() noexcept { return out_events_; }
  void wire(std::uint64_t conn_id, const net::NetSubsystem& net,
            concurrent::Mbox* reconnector_control) {
    conn_id_ = conn_id;
    net_ = net;
    recon_control_ = reconnector_control;
  }

  void construct(core::Runtime& rt) override;
  bool body() override;
  void on_restart() override;
  void on_quarantine() override;
  bool has_pending_work() const override {
    return !in_data_.empty() || !accepts_.empty() ||
           (requests_ != nullptr && !requests_->empty());
  }
  ~NetRingParty() override;

  std::uint64_t state_bytes() const override {
    return 8192 + config_.dim * sizeof(Element) * 4;
  }

  const Vec& secret() const noexcept { return secret_; }

  // --- counters for tests -------------------------------------------------
  std::uint64_t auth_failures() const noexcept { return auth_failures_; }
  std::uint64_t retransmits() const noexcept { return retransmits_; }
  std::uint64_t resets_seen() const noexcept { return resets_seen_; }
  std::uint64_t rounds_completed() const noexcept { return rounds_completed_; }
  std::uint64_t masks_taken() const noexcept { return masks_taken_; }

 private:
  bool pump_net();
  bool parse_frames();
  // `token` is an opened hop: [u64 round id][vector].
  void handle_token(std::span<const std::uint8_t> token);
  void start_round();
  bool send_cached();
  void drain_owned_mboxes() noexcept;

  SmcConfig config_;
  int index_;
  core::HopSeal in_;
  core::HopSeal out_;
  concurrent::Mbox* requests_;
  concurrent::Mbox* results_;

  net::NetSubsystem net_;
  concurrent::Mbox* recon_control_ = nullptr;
  std::uint64_t conn_id_ = 0;
  concurrent::Pool* pool_ = nullptr;

  // Mboxes owned by this party, fed by the system actors.
  concurrent::Mbox accepts_;     // ACCEPTER: inbound connections
  concurrent::Mbox in_data_;     // READER: inbound ring bytes
  concurrent::Mbox out_status_;  // RECONNECTOR: ConnStatus notes
  concurrent::Mbox out_events_;  // READER on the outbound socket (resets)

  // Link state.
  net::SocketId in_socket_ = -1;
  net::SocketId out_socket_ = -1;
  util::Bytes rx_buf_;  // frame reassembly

  // Protocol state.
  Vec secret_;
  MaskAhead mask_;                // party 0 only
  std::uint64_t round_id_ = 0;    // party 0: current round; others: last seen
  bool round_in_flight_ = false;  // party 0 only
  util::Bytes out_cache_;         // plaintext of the last token sent
  bool send_pending_ = false;     // cached token waiting for link/node

  // Invocation-counted retransmit pacing (party 0): no clocks inside the
  // enclave — idle body() polls are the timer.
  std::uint64_t idle_polls_ = 0;
  std::uint64_t retransmit_after_ = 512;

  std::uint64_t auth_failures_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t resets_seen_ = 0;
  std::uint64_t rounds_completed_ = 0;
  std::uint64_t masks_taken_ = 0;
};

// The deployment handle: push one (empty) node per invocation into
// `requests`, pop serialized sums from `results`.
struct NetRingDeployment {
  concurrent::Mbox* requests = nullptr;
  concurrent::Mbox* results = nullptr;
  std::vector<NetRingParty*> parties;
};

// Builds the TCP secure-sum ring on top of an installed networking
// subsystem and reconnector: K listeners, K reconnector-owned outbound
// links, K enclaved parties ("smc.net.e<i>") each in worker group
// "smc.net.w<i>" (role "smc.net.party").
// Requires config.dynamic == false (see header comment). Call after
// install_networking()/install_reconnector(), before rt.start().
NetRingDeployment install_net_ring(core::Runtime& rt, const SmcConfig& config,
                                   const net::NetSubsystem& net,
                                   net::ReconnectorActor& reconnector);

}  // namespace ea::smc
