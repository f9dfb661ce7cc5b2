#include "smc/net_ring.hpp"

#include <cstring>
#include <stdexcept>

#include "core/runtime.hpp"
#include "smc/party_actor.hpp"
#include "util/logging.hpp"

namespace ea::smc {
namespace {

// Wire frame: [u32 len][sealed frame], len covering the sealed frame
// (core/hop_seal.hpp), whose plaintext is [u64 round id][vector].
constexpr std::uint32_t kMinFrameLen = core::HopSeal::kOverhead + 8;
constexpr std::uint32_t kMaxFrameLen = 1u << 16;

void drain_mbox_to_pools(concurrent::Mbox& mbox) noexcept {
  concurrent::Node* burst[net::kRequestBurst];
  std::size_t got;
  while ((got = mbox.pop_burst(burst, net::kRequestBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      concurrent::NodeLease(burst[b]).reset();
    }
  }
}

}  // namespace

NetRingParty::NetRingParty(std::string name, int index, SmcConfig config,
                           core::HopSeal in, core::HopSeal out,
                           concurrent::Mbox* requests,
                           concurrent::Mbox* results)
    : core::Actor(std::move(name)),
      config_(config),
      index_(index),
      in_(in),
      out_(out),
      requests_(requests),
      results_(results) {}

NetRingParty::~NetRingParty() { drain_owned_mboxes(); }

void NetRingParty::construct(core::Runtime& rt) {
  secret_ = initial_secret(index_, config_.dim);
  if (index_ == 0) mask_ = MaskAhead(config_.dim);
  pool_ = &rt.public_pool();
  // Reserve the reassembly buffer up front so steady-state appends do not
  // allocate on the message path.
  rx_buf_.reserve(2 * kMaxFrameLen);
  out_cache_.reserve(8 + config_.dim * sizeof(Element));
}

void NetRingParty::on_restart() {
  // A failure may have interrupted a partial rx append: the buffer can no
  // longer be trusted to sit on a frame boundary, so drop it. If that loses
  // stream sync, the parser poisons the link and the upstream peer redials
  // a fresh connection — the retransmit machinery re-feeds the lost token.
  // The round in flight and its mask are kept: its sum unmasks as usual.
  rx_buf_.clear();
  if (!out_cache_.empty()) send_pending_ = true;
}

void NetRingParty::on_quarantine() { drain_owned_mboxes(); }

void NetRingParty::drain_owned_mboxes() noexcept {
  drain_mbox_to_pools(accepts_);
  drain_mbox_to_pools(in_data_);
  drain_mbox_to_pools(out_status_);
  drain_mbox_to_pools(out_events_);
}

bool NetRingParty::pump_net() {
  bool progress = false;
  concurrent::Node* burst[net::kRequestBurst];
  std::size_t got;

  // Inbound connections from the ACCEPTER: subscribe each to the READER
  // (reusing the notification node as the request). The latest connection
  // wins; the superseded socket is handed to the CLOSER.
  while ((got = accepts_.pop_burst(burst, net::kRequestBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      concurrent::Node* node = burst[b];
      auto id = static_cast<net::SocketId>(node->tag);
      if (in_socket_ >= 0) {
        if (concurrent::Node* close_req = pool_->get()) {
          close_req->tag = static_cast<std::uint64_t>(in_socket_);
          close_req->size = 0;
          net_.closer->input().push(close_req);
        } else {
          EA_WARN("smc", "%s: pool exhausted, superseded socket leaked until "
                  "teardown", name().c_str());
        }
        rx_buf_.clear();
      }
      in_socket_ = id;
      net::ReadSubscribe sub;
      sub.socket = id;
      sub.data = &in_data_;
      sub.pool = nullptr;  // READER default pool
      net::write_struct(*node, sub);
      net_.reader->requests().push(node);
    }
    progress = true;
  }

  // Inbound ring bytes (zero-size node = reset).
  while ((got = in_data_.pop_burst(burst, net::kReadBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      concurrent::NodeLease lease(burst[b]);
      if (static_cast<net::SocketId>(burst[b]->tag) != in_socket_) continue;
      if (burst[b]->size == 0) {
        ++resets_seen_;
        rx_buf_.clear();
        // Close our end as well: on a half-close (or an injected spurious
        // EOF) the fd can still be alive, and the upstream peer only learns
        // the link died when its READER sees our close — which is what
        // makes its reconnector redial.
        if (in_socket_ >= 0) {
          if (concurrent::Node* close_req = pool_->get()) {
            close_req->tag = static_cast<std::uint64_t>(in_socket_);
            close_req->size = 0;
            net_.closer->input().push(close_req);
          }
        }
        in_socket_ = -1;
        continue;
      }
      const std::uint8_t* p = burst[b]->payload();
      rx_buf_.insert(rx_buf_.end(), p, p + burst[b]->size);
    }
    progress = true;
  }

  // Outbound link transitions from the reconnector.
  while ((got = out_status_.pop_burst(burst, net::kRequestBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      concurrent::NodeLease lease(burst[b]);
      net::ConnStatus status;
      if (!net::read_struct(*burst[b], status)) continue;
      if (status.up != 0) {
        out_socket_ = status.socket;
        // The downstream peer may have missed the last token: re-forward it
        // on the fresh link (duplicates are deduped by round id).
        if (!out_cache_.empty()) send_pending_ = true;
      } else {
        out_socket_ = -1;
      }
    }
    progress = true;
  }

  // READER events on the outbound socket: the protocol is one-directional,
  // so anything here is a reset (zero-size) or noise. A reset is forwarded
  // to the reconnector as a down note (reusing the node).
  while ((got = out_events_.pop_burst(burst, net::kReadBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      concurrent::Node* node = burst[b];
      if (node->size == 0 &&
          static_cast<net::SocketId>(node->tag) == out_socket_) {
        ++resets_seen_;
        out_socket_ = -1;
        node->tag = conn_id_;
        recon_control_->push(node);
      } else {
        concurrent::NodeLease(node).reset();
      }
    }
    progress = true;
  }
  return progress;
}

bool NetRingParty::parse_frames() {
  bool progress = false;
  std::size_t consumed = 0;
  while (rx_buf_.size() - consumed >= 4) {
    std::uint8_t* frame = rx_buf_.data() + consumed;
    const std::uint32_t len = util::load_le32(frame);
    if (len < kMinFrameLen || len > kMaxFrameLen) {
      // Stream desync or garbage: poison the link. Closing our inbound end
      // resets the upstream peer's outbound socket; its reconnector redials
      // and its cached token is re-sent on the fresh connection.
      EA_WARN("smc", "%s: bad frame length %u, poisoning inbound link",
              name().c_str(), len);
      if (in_socket_ >= 0) {
        if (concurrent::Node* close_req = pool_->get()) {
          close_req->tag = static_cast<std::uint64_t>(in_socket_);
          close_req->size = 0;
          net_.closer->input().push(close_req);
        }
        in_socket_ = -1;
      }
      rx_buf_.clear();
      return progress;
    }
    if (rx_buf_.size() - consumed < 4 + len) break;  // incomplete frame
    consumed += 4 + len;
    std::size_t plain_len = 0;
    if (!in_.open(/*side=*/1, std::span<std::uint8_t>(frame + 4, len),
                  plain_len)) {
      ++auth_failures_;
      EA_WARN("smc", "%s: hop failed authentication or the replay guard",
              name().c_str());
      continue;
    }
    handle_token(std::span<const std::uint8_t>(
        frame + 4 + core::HopSeal::kHeader, plain_len));
    progress = true;
  }
  if (consumed != 0) {
    rx_buf_.erase(rx_buf_.begin(),
                  rx_buf_.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  return progress;
}

void NetRingParty::handle_token(std::span<const std::uint8_t> token) {
  if (token.size() != 8 + config_.dim * sizeof(Element)) return;
  const std::uint64_t round_id = util::load_le64(token.data());
  if (index_ == 0) {
    // Ring completion. Only the current unresolved round counts; stale
    // duplicates from retransmissions are dropped.
    if (!round_in_flight_ || round_id != round_id_) return;
    round_in_flight_ = false;
    ++rounds_completed_;
    if (results_ != nullptr) {
      concurrent::Node* node = pool_->get();
      if (node != nullptr && token.size() - 8 <= node->capacity) {
        node->fill(token.subspan(8));
        sub_from_bytes(node->payload(), mask_.current());
        results_->push(node);
      } else {
        concurrent::NodeLease(node).reset();
        EA_WARN("smc", "%s: result dropped (pool/capacity)", name().c_str());
      }
    }
    return;
  }
  // Intermediate party. A duplicate of the round we already forwarded is a
  // retransmission: re-send the *cached* token (idempotent — adding the
  // secret twice would corrupt the sum). A new round id is summed and
  // cached.
  if (round_id == round_id_ && !out_cache_.empty()) {
    ++retransmits_;
    send_pending_ = true;
    return;
  }
  round_id_ = round_id;
  out_cache_.assign(token.begin(), token.end());
  add_to_bytes(out_cache_.data() + 8, secret_);
  send_pending_ = true;
}

void NetRingParty::start_round() {
  ++round_id_;
  ++masks_taken_;
  out_cache_.resize(8 + config_.dim * sizeof(Element));
  util::store_le64(out_cache_.data(), round_id_);
  serialize_into(out_cache_.data() + 8, secret_);
  add_to_bytes(out_cache_.data() + 8, mask_.take());
  round_in_flight_ = true;
  idle_polls_ = 0;
  retransmit_after_ = 512;
  send_pending_ = true;
}

bool NetRingParty::send_cached() {
  if (out_cache_.empty()) {
    send_pending_ = false;
    return false;
  }
  if (out_socket_ < 0) {
    send_pending_ = true;  // resent when the reconnector reports up
    return false;
  }
  concurrent::Node* node = pool_->get();
  if (node == nullptr) {
    send_pending_ = true;  // pool pressure: retry next body
    return false;
  }
  const std::size_t len = core::HopSeal::kOverhead + out_cache_.size();
  if (4 + len > node->capacity) {
    concurrent::NodeLease(node).reset();
    EA_WARN("smc", "%s: frame exceeds node capacity, dropped", name().c_str());
    send_pending_ = false;
    return false;
  }
  std::uint8_t* out = node->payload();
  util::store_le32(out, static_cast<std::uint32_t>(len));
  std::memcpy(out + 4 + core::HopSeal::kHeader, out_cache_.data(),
              out_cache_.size());
  out_.seal(/*side=*/0, std::span<std::uint8_t>(out + 4, len));
  node->size = static_cast<std::uint32_t>(4 + len);
  node->tag = static_cast<std::uint64_t>(out_socket_);
  net_.writer->input().push(node);
  send_pending_ = false;
  return true;
}

bool NetRingParty::body() {
  bool progress = pump_net();
  progress |= parse_frames();

  if (index_ == 0) {
    if (!round_in_flight_ && requests_ != nullptr) {
      if (concurrent::Node* req = requests_->pop()) {
        concurrent::NodeLease lease(req);
        start_round();
        progress = true;
      }
    }
    if (round_in_flight_) {
      // Invocation-counted retransmit timer: a quiet ring with an
      // unresolved round eventually re-sends the masked token (sealed
      // fresh, same round id — every hop dedups).
      if (progress || send_pending_) {
        idle_polls_ = 0;
      } else if (++idle_polls_ >= retransmit_after_) {
        idle_polls_ = 0;
        retransmit_after_ =
            retransmit_after_ < 65536 ? retransmit_after_ * 2 : 65536;
        ++retransmits_;
        send_pending_ = true;
      }
    }
  }

  if (send_pending_) progress |= send_cached();
  // A quantum with nothing else to do draws a chunk of the next mask while
  // the token travels.
  if (index_ == 0 && !progress) progress = mask_.draw_some();
  return progress;
}

NetRingDeployment install_net_ring(core::Runtime& rt, const SmcConfig& config,
                                   const net::NetSubsystem& net,
                                   net::ReconnectorActor& reconnector) {
  if (config.dynamic) {
    throw std::invalid_argument(
        "net ring requires static secrets: retransmitted hops must be "
        "idempotent");
  }
  const int k = config.parties;

  // One sealed link per hop, link i carrying party i -> i+1, each with a
  // key of its own: the two links of a 2-party ring join the same enclave
  // pair.
  std::vector<sgxsim::Enclave*> enclaves(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    enclaves[static_cast<std::size_t>(i)] =
        &rt.enclave("smc.net.e" + std::to_string(i));
  }
  std::vector<core::HopSeal> links;
  for (int i = 0; i < k; ++i) {
    std::optional<core::HopSeal> link = core::HopSeal::link(
        *enclaves[static_cast<std::size_t>(i)],
        *enclaves[static_cast<std::size_t>((i + 1) % k)]);
    if (!link.has_value()) throw std::runtime_error("attestation failed");
    links.push_back(*link);
  }

  auto holder = std::make_unique<DriverMboxes>("smc.net.driver-mboxes");
  DriverMboxes* mboxes = holder.get();
  rt.add_actor(std::move(holder));

  NetRingDeployment dep;
  dep.requests = &mboxes->requests;
  dep.results = &mboxes->results;
  for (int i = 0; i < k; ++i) {
    std::string name = "smc.net.p" + std::to_string(i);
    auto party = std::make_unique<NetRingParty>(
        name, i, config, links[static_cast<std::size_t>((i + k - 1) % k)],
        links[static_cast<std::size_t>(i)],
        i == 0 ? &mboxes->requests : nullptr,
        i == 0 ? &mboxes->results : nullptr);
    dep.parties.push_back(party.get());
    rt.add_actor(std::move(party), "smc.net.e" + std::to_string(i));
    rt.add_group({"smc.net.w" + std::to_string(i), "smc.net.party", {name}});
  }

  // K listeners, registered with the ACCEPTER up front; the subscription
  // lives forever, so inbound links heal by simply being re-accepted.
  std::vector<std::uint16_t> ports(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    net::Socket listener = net::Socket::listen_on(0);
    if (!listener.valid()) throw std::runtime_error("net ring listen failed");
    ports[static_cast<std::size_t>(i)] = listener.local_port();
    net::SocketId lid = net.table->add(std::move(listener));
    concurrent::Node* node = rt.public_pool().get();
    if (node == nullptr) throw std::runtime_error("pool exhausted at wiring");
    net::AcceptSubscribe sub;
    sub.listener = lid;
    sub.reply = &dep.parties[static_cast<std::size_t>(i)]->accepts();
    net::write_struct(*node, sub);
    net.accepter->requests().push(node);
  }

  // K outbound links, owned by the reconnector: party i dials party i+1.
  for (int i = 0; i < k; ++i) {
    net::ConnSpec spec;
    std::memcpy(spec.host, "127.0.0.1", sizeof("127.0.0.1"));
    spec.port = ports[static_cast<std::size_t>((i + 1) % k)];
    NetRingParty* party = dep.parties[static_cast<std::size_t>(i)];
    spec.data = &party->out_events();
    spec.status = &party->out_status();
    spec.backoff = core::BackoffPolicy{500, 50'000, 2, 20};
    spec.max_attempts = 0;  // ring links retry forever
    std::uint64_t conn = reconnector.add_connection(spec);
    party->wire(conn, net, &reconnector.control());
  }
  return dep;
}

}  // namespace ea::smc
