#include "xmpp/server.hpp"

#include <algorithm>
#include <functional>

#include "core/channel.hpp"
#include "util/logging.hpp"
#include "xmpp/e2e.hpp"

namespace ea::xmpp {

// --- shared state ----------------------------------------------------------

void Directory::put(const std::string& jid, Route route) {
  Shard& s = shard(jid);
  concurrent::HleGuard guard(s.lock);
  s.users[jid] = route;
}

std::optional<Route> Directory::get(const std::string& jid) const {
  Shard& s = shard(jid);
  concurrent::HleGuard guard(s.lock);
  auto it = s.users.find(jid);
  if (it == s.users.end()) return std::nullopt;
  return it->second;
}

bool Directory::remove(const std::string& jid, net::SocketId socket) {
  Shard& s = shard(jid);
  concurrent::HleGuard guard(s.lock);
  auto it = s.users.find(jid);
  if (it == s.users.end() || it->second.socket != socket) return false;
  s.users.erase(it);
  return true;
}

std::size_t Directory::size() const {
  // One shard at a time (sequential, never nested — same-rank locks): the
  // total is a statistical snapshot, exact only when quiescent.
  std::size_t total = 0;
  for (const Shard& s : shards_) {
    concurrent::HleGuard guard(s.lock);
    total += s.users.size();
  }
  return total;
}

void RoomTable::join(const std::string& room, const std::string& jid) {
  Shard& s = shard(room);
  concurrent::HleGuard guard(s.lock);
  auto& members = s.rooms[room];
  for (const std::string& m : members) {
    if (m == jid) return;
  }
  members.push_back(jid);
}

void RoomTable::leave_all(const std::string& jid) {
  // Rooms hash across every shard, so the departure sweep visits each
  // shard in turn — strictly sequential same-rank acquisition.
  for (Shard& s : shards_) {
    concurrent::HleGuard guard(s.lock);
    for (auto& [room, members] : s.rooms) {
      std::erase(members, jid);
    }
  }
}

std::vector<std::string> RoomTable::members(const std::string& room) const {
  Shard& s = shard(room);
  concurrent::HleGuard guard(s.lock);
  auto it = s.rooms.find(room);
  return it == s.rooms.end() ? std::vector<std::string>{} : it->second;
}

int XmppShared::room_owner(const std::string& room) const {
  return static_cast<int>(std::hash<std::string>{}(room) %
                          static_cast<std::size_t>(instances));
}

// --- CONNECTOR --------------------------------------------------------------

bool ConnectorActor::body() {
  bool progress = false;
  while (concurrent::Node* node = shared_->online.pop()) {
    concurrent::NodeLease lease(node);
    auto socket = static_cast<net::SocketId>(node->tag);
    int instance = next_instance_++ % shared_->instances;

    concurrent::Node* req = shared_->pool->get();
    if (req == nullptr) {
      // No request node: put the connection back and retry next round.
      shared_->online.push(lease.release());
      break;
    }
    net::ReadSubscribe sub;
    sub.socket = socket;
    sub.data = shared_->inboxes[static_cast<std::size_t>(instance)];
    sub.pool = nullptr;
    net::write_struct(*req, sub);
    shared_->reader_reqs[static_cast<std::size_t>(instance)]->push(req);
    progress = true;
    EA_DEBUG("xmpp", "connector: socket %lld -> instance %d",
             static_cast<long long>(socket), instance);
  }
  return progress;
}

// --- XMPP instance -----------------------------------------------------------

void XmppActor::construct(core::Runtime& rt) {
  (void)rt;
  rooms_.assign(static_cast<std::size_t>(shared_->instances), nullptr);
  for (int peer = 0; peer < shared_->instances; ++peer) {
    if (peer == index_) continue;
    rooms_[static_cast<std::size_t>(peer)] =
        connect("xmpp.room." + std::to_string(std::min(index_, peer)) + "." +
                std::to_string(std::max(index_, peer)));
  }
}

bool XmppActor::body() {
  bool progress = false;
  // Burst-drain the inbox: the READER delivers data nodes in push_chain
  // batches, so pop_burst picks whole bursts up under one lock acquisition.
  // The drain stops at the migration barrier (DESIGN.md §17): a READER that
  // keeps the inbox non-empty must not hold the park open; what is left
  // stays queued for the resumed actor.
  concurrent::Node* burst[net::kReadBurst * 2];
  std::size_t got;
  while (lifecycle() != core::ActorState::kMigrating &&
         (got = inbox_.pop_burst(burst, net::kReadBurst * 2)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      concurrent::Node* node = burst[b];
      concurrent::NodeLease lease(node);
      progress = true;
      auto socket = static_cast<net::SocketId>(node->tag);
      if (node->size == 0 || !handle_data(socket, node->view())) {
        drop_client(socket, lease.release());
      }
    }
  }
  // Then the room transfers. pending() is lock-free; recv() takes the mbox
  // lock even when there is nothing to pop.
  for (core::ChannelEnd* peer : rooms_) {
    if (peer == nullptr || !peer->pending()) continue;
    while (concurrent::NodeLease lease = peer->recv()) {
      progress = true;
      handle_transfer(lease->view());
    }
  }
  return progress;
}

bool XmppActor::handle_data(net::SocketId socket, std::string_view bytes) {
  ClientState& client = clients_[socket];
  client.stream.feed(bytes);
  while (auto event = client.stream.next()) {
    switch (event->type) {
      case StanzaStream::EventType::kStreamOpen:
        send_raw(index_, socket, make_stream_open("ea-xmpp"));
        break;
      case StanzaStream::EventType::kStreamClose:
        return false;
      case StanzaStream::EventType::kStanza:
        handle_stanza(socket, client, event->node);
        break;
    }
  }
  if (client.stream.failed()) {
    EA_WARN("xmpp", "instance %d: malformed stream on socket %lld", index_,
            static_cast<long long>(socket));
    return false;
  }
  return true;
}

void XmppActor::handle_stanza(net::SocketId socket, ClientState& client,
                              const XmlNode& stanza) {
  if (stanza.name == "auth") {
    const std::string* jid = stanza.attr("jid");
    // One jid per stream: teardown removes only the stream's jid, so a
    // second auth would leave the first jid routed to a dead socket.
    if (client.authed || jid == nullptr || jid->empty()) {
      send_raw(index_, socket, make_error("bad-auth"));
      return;
    }
    client.jid = *jid;
    client.authed = true;
    shared_->directory.put(*jid, Route{socket, index_});
    send_raw(index_, socket, make_auth_success());
    return;
  }
  if (!client.authed) {
    send_raw(index_, socket, make_error("not-authorized"));
    return;
  }

  if (stanza.name == "presence") {
    const std::string* room = stanza.attr("to");
    if (room != nullptr && !room->empty()) {
      shared_->rooms.join(*room, client.jid);
      send_raw(index_, socket,
               make_presence_join(*room, client.jid));
    }
    return;
  }

  if (stanza.name == "message") {
    const std::string* to = stanza.attr("to");
    const std::string* type = stanza.attr("type");
    const XmlNode* body = stanza.child("body");
    if (to == nullptr || body == nullptr) return;

    if (type != nullptr && *type == "groupchat") {
      int owner = shared_->room_owner(*to);
      if (owner == index_) {
        process_groupchat(client.jid, *to, body->text);
      } else {
        forward_groupchat(owner, stanza, client.jid);
      }
      return;
    }

    // One-to-One: route the (still end-to-end-encrypted) body verbatim.
    std::string wire = make_chat_message(client.jid, *to, body->text);
    auto route = shared_->directory.get(*to);
    if (!route.has_value()) {
      send_raw(index_, socket, make_error("recipient-unavailable"));
      return;
    }
    if (send_raw(route->instance, route->socket, wire)) ++routed_;
  }
}

void XmppActor::forward_groupchat(int owner, const XmlNode& stanza,
                                  const std::string& from_jid) {
  // Forward the stanza to the instance owning the room ("each group chat
  // is confined to a dedicated XMPP eactor") over the pair's room channel.
  XmlNode forwarded = stanza;
  forwarded.set_attr("from", from_jid);
  const auto peer = static_cast<std::size_t>(owner);
  if (peer >= rooms_.size() || !rooms_[peer]->send(forwarded.serialize())) {
    EA_WARN("xmpp", "dropping forwarded groupchat (no node or too large)");
  }
}

void XmppActor::handle_transfer(std::string_view wire) {
  std::size_t pos = 0;
  auto stanza = parse_element(wire, pos);
  if (!stanza.has_value()) return;
  const std::string* from = stanza->attr("from");
  const std::string* to = stanza->attr("to");
  const XmlNode* body = stanza->child("body");
  if (from == nullptr || to == nullptr || body == nullptr) return;
  process_groupchat(*from, *to, body->text);
}

void XmppActor::process_groupchat(const std::string& from,
                                  const std::string& room,
                                  const std::string& body) {
  // "The server decrypts the messages of each user and re-encrypts for all
  // members of the group" — this is the enclave-resident work of the room's
  // XMPP eactor.
  std::optional<std::string> plain =
      open_body(user_key(from, kCtxGroupUp), body);
  if (!plain.has_value()) {
    EA_WARN("xmpp", "groupchat from %s: body failed authentication",
            from.c_str());
    return;
  }
  for (const std::string& member : shared_->rooms.members(room)) {
    auto route = shared_->directory.get(member);
    if (!route.has_value()) continue;
    std::string sealed =
        seal_body(user_key(member, kCtxGroup), fresh_nonce(), *plain);
    std::string wire =
        make_groupchat_message(room + "/" + from, member, sealed);
    if (send_raw(route->instance, route->socket, wire)) ++routed_;
  }
}

void XmppActor::drop_client(net::SocketId socket, concurrent::Node* note) {
  auto it = clients_.find(socket);
  if (it != clients_.end()) {
    // Only the jid's current login goes offline: when the same jid has
    // logged in again, its route names the new socket and this teardown
    // must not take that login out of the directory or its rooms.
    const std::string& jid = it->second.jid;
    if (!jid.empty() && shared_->directory.remove(jid, socket)) {
      shared_->rooms.leave_all(jid);
    }
    clients_.erase(it);
  }
  note->size = 0;
  note->tag = static_cast<std::uint64_t>(socket);
  shared_->closer_input->push(note);
}

bool XmppActor::send_raw(int instance, net::SocketId socket,
                         std::string_view bytes) {
  concurrent::Node* node = shared_->pool->get();
  if (node == nullptr) {
    EA_WARN("xmpp", "instance %d: send pool exhausted", index_);
    return false;
  }
  if (bytes.size() > node->capacity) {
    concurrent::NodeLease(node).reset();
    EA_WARN("xmpp", "instance %d: message exceeds node capacity", index_);
    return false;
  }
  node->fill(bytes);
  node->tag = static_cast<std::uint64_t>(socket);
  shared_->writer_inputs[static_cast<std::size_t>(instance)]->push(node);
  return true;
}

// --- live migration (DESIGN.md §17) -----------------------------------------
//
// Bundle layout (little-endian):
//   routed(8) ‖ client_count(4) ‖ per client:
//   socket(8) ‖ jid_len(4)‖jid ‖ authed(1) ‖ in_stream(1) ‖
//   buffer_len(4)‖buffer

util::Bytes XmppActor::export_state() {
  // The header is stored in place: at -O3, GCC 12 reports a false
  // -Wstringop-overflow for a range insert into an empty vector.
  util::Bytes out(12);
  util::store_le64(out.data(), routed_);
  util::store_le32(out.data() + 8,
                   static_cast<std::uint32_t>(clients_.size()));
  auto put_u32 = [&out](std::uint32_t v) {
    std::uint8_t le[4];
    util::store_le32(le, v);
    out.insert(out.end(), le, le + 4);
  };
  auto put_u64 = [&out](std::uint64_t v) {
    std::uint8_t le[8];
    util::store_le64(le, v);
    out.insert(out.end(), le, le + 8);
  };
  auto put_str = [&](const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
  };
  for (const auto& [socket, client] : clients_) {
    put_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(socket)));
    put_str(client.jid);
    out.push_back(client.authed ? 1 : 0);
    out.push_back(client.stream.in_stream() ? 1 : 0);
    put_str(client.stream.buffer());
  }
  return out;
}

bool XmppActor::import_state(std::span<const std::uint8_t> state) {
  std::size_t at = 0;
  auto get_u32 = [&](std::uint32_t& v) {
    if (state.size() - at < 4) return false;
    v = util::load_le32(state.data() + at);
    at += 4;
    return true;
  };
  auto get_u64 = [&](std::uint64_t& v) {
    if (state.size() - at < 8) return false;
    v = util::load_le64(state.data() + at);
    at += 8;
    return true;
  };
  auto get_str = [&](std::string& s) {
    std::uint32_t len = 0;
    if (!get_u32(len) || state.size() - at < len) return false;
    s.assign(reinterpret_cast<const char*>(state.data() + at), len);
    at += len;
    return true;
  };
  std::uint64_t routed = 0;
  std::uint32_t count = 0;
  if (!get_u64(routed) || !get_u32(count)) return false;
  std::map<net::SocketId, ClientState> clients;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t socket_raw = 0;
    std::string jid;
    std::string buffer;
    if (!get_u64(socket_raw) || !get_str(jid)) return false;
    if (state.size() - at < 2) return false;
    const bool authed = state[at++] != 0;
    const bool in_stream = state[at++] != 0;
    if (!get_str(buffer)) return false;
    auto socket =
        static_cast<net::SocketId>(static_cast<std::int64_t>(socket_raw));
    ClientState& client = clients[socket];
    client.jid = std::move(jid);
    client.authed = authed;
    client.stream.restore(std::move(buffer), in_stream);
  }
  if (at != state.size()) return false;
  routed_ = routed;
  clients_ = std::move(clients);
  return true;
}

// --- installation ------------------------------------------------------------

XmppService install_xmpp_service(core::Runtime& rt,
                                 const XmppServiceConfig& config) {
  XmppService service;
  auto shared = std::make_shared<XmppShared>();
  auto table = std::make_shared<net::SocketTable>();
  shared->pool = &rt.public_pool();
  shared->instances = config.instances;
  service.shared = shared;

  // Bind the listener now so the port is known synchronously.
  net::Socket listener = net::Socket::listen_on(config.port);
  if (!listener.valid()) {
    throw std::runtime_error("xmpp: cannot bind listener");
  }
  service.port = listener.local_port();
  net::SocketId listener_id = table->add(std::move(listener));

  // Global network actors: ACCEPTER (feeding the Online list) and CLOSER.
  auto accepter = std::make_unique<net::AccepterActor>("xmpp.accepter", table,
                                                       rt.public_pool());
  auto closer = std::make_unique<net::CloserActor>("xmpp.closer", table);
  shared->closer_input = &closer->input();
  {
    concurrent::Node* sub_node = rt.public_pool().get();
    net::AcceptSubscribe sub;
    sub.listener = listener_id;
    sub.reply = &shared->online;
    net::write_struct(*sub_node, sub);
    accepter->requests().push(sub_node);
  }
  rt.add_actor(std::move(accepter));
  rt.add_actor(std::move(closer));
  rt.add_group({"xmpp.net0", "xmpp.net0", {"xmpp.accepter", "xmpp.closer"}});

  // The CONNECTOR, enclaved when the service is trusted.
  auto connector = std::make_unique<ConnectorActor>("xmpp.connector", shared);
  service.connector = connector.get();
  rt.add_actor(std::move(connector),
               config.trusted ? "xmpp.connector.enclave" : "");
  rt.add_group({"xmpp.conn", "xmpp.conn", {"xmpp.connector"}});

  // Instances with their dedicated READER/WRITER pairs.
  const int enclave_count =
      config.enclaves > 0 ? config.enclaves : config.instances;
  shared->inboxes.resize(static_cast<std::size_t>(config.instances));
  shared->reader_reqs.resize(static_cast<std::size_t>(config.instances));
  shared->writer_inputs.resize(static_cast<std::size_t>(config.instances));
  for (int i = 0; i < config.instances; ++i) {
    std::string suffix = std::to_string(i);
    auto xmpp = std::make_unique<XmppActor>("xmpp.i" + suffix, i, shared);
    auto reader = std::make_unique<net::ReaderActor>("xmpp.reader" + suffix,
                                                     table, rt.public_pool());
    auto writer =
        std::make_unique<net::WriterActor>("xmpp.writer" + suffix, table);

    shared->inboxes[static_cast<std::size_t>(i)] = &xmpp->inbox();
    shared->reader_reqs[static_cast<std::size_t>(i)] = &reader->requests();
    shared->writer_inputs[static_cast<std::size_t>(i)] = &writer->input();
    service.instances.push_back(xmpp.get());

    // Each enclave holds a contiguous block of instances, so a worker that
    // runs them in order enters each enclave once per round.
    std::string enclave_name;
    if (config.trusted) {
      enclave_name =
          "xmpp.e" + std::to_string(i * enclave_count / config.instances);
    }
    rt.add_actor(std::move(xmpp), enclave_name);

    rt.add_actor(std::move(reader));
    rt.add_actor(std::move(writer));

    rt.add_group({"xmpp.app" + suffix, "xmpp.app", {"xmpp.i" + suffix}});
    rt.add_group({"xmpp.net" + std::to_string(i + 1), "xmpp.net",
                  {"xmpp.reader" + suffix, "xmpp.writer" + suffix}});
  }
  return service;
}

}  // namespace ea::xmpp
