#include "net/channel_link.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/runtime.hpp"
#include "util/bytes.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"

namespace ea::net {

namespace {

constexpr std::size_t kLenBytes = 4;

// Redials of the dialled socket, and the wait for an open's reply.
constexpr core::BackoffPolicy kRedial{500, 50'000, 2, 20};
constexpr auto kOpenDeadline = std::chrono::milliseconds(200);

void release(concurrent::Node*& node) noexcept {
  concurrent::NodeLease(node).reset();
  node = nullptr;
}

void drain(concurrent::Mbox& mbox) noexcept {
  while (concurrent::Node* node = mbox.pop()) {
    concurrent::NodeLease(node).reset();
  }
}

}  // namespace

ChannelLink::ChannelLink(std::string name, core::Channel& channel,
                         NetSubsystem net, concurrent::Pool& pool,
                         std::uint16_t port)
    : core::Actor(std::move(name)),
      channel_(channel),
      net_(std::move(net)),
      pool_(pool),
      port_(port),
      backoff_(kRedial, port) {
  set_priority(core::ActorPriority::kHigh);
  channel_.carry(0, arrivals_[0]);
  channel_.carry(1, arrivals_[1]);
}

void ChannelLink::on_quarantine() {
  while (concurrent::Node* note = accepts_.pop()) {
    net_.table->close(static_cast<SocketId>(note->tag));
    concurrent::NodeLease(note).reset();
  }
  while (concurrent::Node* node = replies_.pop()) {
    OpenReply reply;
    if (read_struct(*node, reply) && reply.id >= 0) {
      net_.table->close(reply.id);
    }
    concurrent::NodeLease(node).reset();
  }
  if (opening_) {  // its reply, if it came, was just dropped
    opening_ = false;
    back_off();
  }
  for (int d = 0; d < 2; ++d) {
    drain(arrivals_[d]);
    drain(wires_[d].chunks);
    clear_frame(wires_[d]);
  }
}

// Reads only the mboxes' lock-free counters: the supervisor calls it from
// its own thread.
bool ChannelLink::has_pending_work() const {
  return !accepts_.empty() || !replies_.empty() ||
         !wires_[0].chunks.empty() || !wires_[1].chunks.empty() ||
         !channel_.departures(0).empty() || !channel_.departures(1).empty();
}

void ChannelLink::clear_frame(Wire& wire) noexcept {
  release(wire.frame);
  wire.len_got = 0;
}

// The next open waits for the backoff's next delay.
void ChannelLink::back_off() {
  retry_at_ =
      Clock::now() + std::chrono::microseconds(backoff_.next_delay_us());
}

// Called while the dialled socket is down: writes off an open past its
// deadline, or sends the next once its backoff is over.
bool ChannelLink::dial() {
  const Clock::time_point now = Clock::now();
  if (opening_) {
    if (now < deadline_) return false;
    EA_WARN("net", "%s: open timed out", name().c_str());
    opening_ = false;
    back_off();
    return true;
  }
  if (now < retry_at_) return false;
  concurrent::Node* node = pool_.get();
  if (node == nullptr) return false;  // pool dry: the next body retries
  OpenRequest req;
  req.kind = OpenRequest::kConnect;
  req.port = port_;
  std::memcpy(req.host, "127.0.0.1", sizeof("127.0.0.1"));
  req.cookie = ++dials_;
  req.reply = &replies_;
  write_struct(*node, req);
  net_.opener->requests().push(node);
  opening_ = true;
  deadline_ = now + kOpenDeadline;
  return true;
}

// An OpenReply. The open in flight's becomes the dialled socket, and its
// node the socket's READER subscription; a late reply's socket is closed.
void ChannelLink::answer(concurrent::Node* node) {
  OpenReply reply;
  if (!read_struct(*node, reply) || !opening_ || reply.cookie != dials_) {
    if (reply.id >= 0) net_.table->close(reply.id);
    concurrent::NodeLease(node).reset();
    return;
  }
  opening_ = false;
  // Injected refusal: the peer accepted, but the open counts as failed.
  if (reply.id >= 0 && EA_FAIL_TRIGGERED("net.reconnect.refuse")) {
    net_.table->close(reply.id);
    reply.id = -1;
  }
  if (reply.id < 0) {
    back_off();
    concurrent::NodeLease(node).reset();
    return;
  }
  backoff_.reset();
  attach(0, reply.id, node);
}

// A new socket for wire `w`: a fresh stream to rebuild frames from, the
// last frame written for the wire's direction goes out on it again, and
// `note` becomes the socket's READER subscription. The link subscribes
// both of its sockets itself, so no byte or EOF of a socket reaches it
// before it knows the socket.
void ChannelLink::attach(int w, SocketId socket, concurrent::Node* note) {
  clear_frame(wires_[w]);
  wires_[w].socket = socket;
  wires_[w].written = false;
  ReadSubscribe sub;
  sub.socket = socket;
  sub.data = &wires_[w].chunks;
  write_struct(*note, sub);
  net_.reader->requests().push(note);
}

// Feeds one READER chunk into wire `w`'s frame reassembly; each whole frame
// goes to the arrivals of the direction the wire reads. A chunk that is
// exactly one frame, the common case, goes as itself. Takes the chunk
// unless it returns false: a frame that cannot be rebuilt.
bool ChannelLink::feed(int w, concurrent::Node* chunk) {
  Wire& wire = wires_[w];
  std::uint8_t* p = chunk->payload();
  if (wire.frame == nullptr && wire.len_got == 0 && chunk->size > kLenBytes &&
      util::load_le32(p) == chunk->size - kLenBytes) {
    chunk->size -= kLenBytes;
    std::memmove(p, p + kLenBytes, chunk->size);
    arrivals_[1 - w].push(chunk);
    return true;
  }
  concurrent::NodeLease lease(chunk);
  std::span<const std::uint8_t> in = chunk->data();
  while (!in.empty()) {
    if (wire.frame == nullptr) {
      const std::size_t n = std::min(in.size(), kLenBytes - wire.len_got);
      std::memcpy(wire.len_bytes + wire.len_got, in.data(), n);
      wire.len_got += n;
      in = in.subspan(n);
      if (wire.len_got < kLenBytes) return true;
      wire.len_got = 0;
      wire.frame_len = util::load_le32(wire.len_bytes);
      wire.frame = pool_.get();
      if (wire.frame == nullptr || wire.frame_len == 0 ||
          wire.frame_len > wire.frame->capacity) {
        EA_WARN("net", "%s: cannot rebuild a %u-byte frame, closing",
                name().c_str(), wire.frame_len);
        lease.release();
        return false;
      }
      wire.frame->size = 0;
    }
    const std::size_t n =
        std::min<std::size_t>(in.size(), wire.frame_len - wire.frame->size);
    std::memcpy(wire.frame->payload() + wire.frame->size, in.data(), n);
    wire.frame->size += static_cast<std::uint32_t>(n);
    in = in.subspan(n);
    if (wire.frame->size == wire.frame_len) {
      arrivals_[1 - w].push(wire.frame);
      wire.frame = nullptr;
    }
  }
  return true;
}

// Wire `w`'s socket is dead, unusable or superseded: `note` becomes its
// close request. A dialled socket is redialled after the backoff.
void ChannelLink::drop(int w, concurrent::Node* note) {
  Wire& wire = wires_[w];
  clear_frame(wire);
  note->size = 0;
  note->tag = static_cast<std::uint64_t>(wire.socket);
  net_.closer->input().push(note);
  wire.socket = -1;
  if (w == 0) back_off();
}

// Puts [u32 len] in front of the frame in `node` and hands it to the
// WRITER, keeping a copy as the wire's last frame. A frame that leaves no
// room for the prefix is dropped.
void ChannelLink::write(Wire& wire, concurrent::Node* node) {
  const std::uint32_t len = node->size;
  if (kLenBytes + len > node->capacity) {
    EA_WARN("net", "%s: a %u-byte frame does not fit the wire, dropped",
            name().c_str(), len);
    concurrent::NodeLease(node).reset();
    wire.last.clear();
    return;
  }
  wire.last.assign(node->payload(), node->payload() + len);
  std::memmove(node->payload() + kLenBytes, node->payload(), len);
  util::store_le32(node->payload(), len);
  node->size = static_cast<std::uint32_t>(kLenBytes + len);
  node->tag = static_cast<std::uint64_t>(wire.socket);
  net_.writer->input().push(node);
}

// Writes wire `w`'s last frame again if it has not gone out on this socket,
// then the direction's departures, each in its own node.
bool ChannelLink::send(int w) {
  Wire& wire = wires_[w];
  if (wire.socket < 0) return false;
  bool progress = false;
  if (!wire.last.empty() && !wire.written) {
    concurrent::Node* out = pool_.get();
    if (out == nullptr) return false;  // pool dry: the next body retries
    out->fill(wire.last);
    write(wire, out);
    progress = true;
  }
  wire.written = true;
  while (concurrent::Node* next = channel_.departures(w).pop()) {
    write(wire, next);
    progress = true;
  }
  return progress;
}

bool ChannelLink::body() {
  bool progress = false;
  concurrent::Node* burst[kReadBurst];
  std::size_t got;

  // Accepted sockets: the newest supersedes.
  while ((got = accepts_.pop_burst(burst, kReadBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      if (wires_[1].socket >= 0) {
        if (concurrent::Node* close = pool_.get()) {
          drop(1, close);
        } else {
          EA_WARN("net", "%s: pool exhausted, superseded socket leaked "
                  "until teardown", name().c_str());
        }
      }
      attach(1, static_cast<SocketId>(burst[b]->tag), burst[b]);
    }
    progress = true;
  }

  // The dialled socket, from the reply to the link's open.
  while ((got = replies_.pop_burst(burst, kReadBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) answer(burst[b]);
    progress = true;
  }

  // Inbound bytes; a zero-size chunk is the socket's EOF.
  for (int w = 0; w < 2; ++w) {
    while ((got = wires_[w].chunks.pop_burst(burst, kReadBurst)) != 0) {
      for (std::size_t b = 0; b < got; ++b) {
        concurrent::Node* chunk = burst[b];
        if (static_cast<SocketId>(chunk->tag) != wires_[w].socket) {
          concurrent::NodeLease(chunk).reset();  // a superseded socket's
        } else if (chunk->size == 0 || !feed(w, chunk)) {
          drop(w, chunk);
        }
      }
      progress = true;
    }
  }

  if (wires_[0].socket < 0) progress |= dial();
  progress |= send(0);
  progress |= send(1);
  return progress;
}

void carry_channels(core::Runtime& rt,
                    const std::vector<core::Channel*>& channels,
                    const NetSubsystem& net) {
  std::vector<std::string> names;
  for (core::Channel* channel : channels) {
    // The listener's subscription lives forever: the link's redials are
    // simply accepted again.
    Socket listener = Socket::listen_on(0);
    if (!listener.valid()) throw std::runtime_error("link listen failed");
    names.push_back("net.link." + channel->name());
    auto link = std::make_unique<ChannelLink>(
        names.back(), *channel, net, rt.public_pool(), listener.local_port());
    ChannelLink& ref = *link;
    rt.add_actor(std::move(link));

    concurrent::Node* node = rt.public_pool().get();
    if (node == nullptr) throw std::runtime_error("pool exhausted at wiring");
    AcceptSubscribe sub;
    sub.listener = net.table->add(std::move(listener));
    sub.reply = &ref.accepts();
    write_struct(*node, sub);
    net.accepter->requests().push(node);
  }

  // The links join the WRITER's worker group just before it, so a frame
  // the READER delivers reaches its channel, and a departure reaches the
  // WRITER, in the same round of that worker.
  for (core::WorkerGroup& group : rt.groups()) {
    auto writer = std::find(group.actors.begin(), group.actors.end(),
                            net.writer->name());
    if (writer != group.actors.end()) {
      group.actors.insert(writer, names.begin(), names.end());
      return;
    }
  }
  throw std::logic_error("carry_channels: the WRITER is in no worker group");
}

}  // namespace ea::net
