// Secure instant messaging (paper §5.1): starts the EActors XMPP service
// with two enclaved protocol instances, connects three clients over real
// loopback TCP, and demonstrates
//   * end-to-end-encrypted One-to-One chat (the server routes ciphertext),
//   * group chat, where the room's enclave decrypts the sender's message
//     and re-encrypts it for every member.
//
// Build & run:  ./build/examples/secure_chat
#include <cstdio>
#include <string>

#include "core/runtime.hpp"
#include "xmpp/client.hpp"
#include "xmpp/server.hpp"

using namespace ea;

int main() {
  core::RuntimeOptions options;
  options.pool_nodes = 2048;
  core::Runtime rt(options);

  xmpp::XmppServiceConfig config;
  config.instances = 2;  // two XMPP eactors, each in its own enclave
  xmpp::XmppService service = xmpp::install_xmpp_service(rt, config);
  rt.start();
  std::printf("XMPP service listening on 127.0.0.1:%u with %d enclaved "
              "instances\n",
              service.port, config.instances);

  xmpp::Client alice, bob, carol;
  if (!alice.connect(service.port, "alice") ||
      !bob.connect(service.port, "bob") ||
      !carol.connect(service.port, "carol")) {
    std::fprintf(stderr, "client connect failed\n");
    return 1;
  }
  std::printf("alice, bob and carol connected and authenticated\n");

  // --- One-to-One: end-to-end encrypted; the server never sees plaintext.
  const std::string o2o = "hi bob — only you can read this";
  alice.send_chat("bob", o2o);
  bool ok = false;
  if (auto msg = bob.recv(5000)) {
    std::printf("[o2o] bob received from %s: \"%s\" (decrypt ok: %s)\n",
                msg->from.c_str(), msg->body.c_str(),
                msg->decrypt_ok ? "yes" : "no");
    ok = msg->decrypt_ok && msg->body == o2o;
  }

  // --- Group chat: the room's enclave re-encrypts per member.
  alice.join_room("research");
  bob.join_room("research");
  carol.join_room("research");
  std::printf("all three joined room 'research'\n");

  const std::string o2m = "meeting at noon";
  bob.send_groupchat("research", o2m);
  for (xmpp::Client* c : {&alice, &bob, &carol}) {
    auto msg = c->recv(5000);
    if (msg) {
      std::printf("[o2m] %s received from %s: \"%s\"\n", c->jid().c_str(),
                  msg->from.c_str(), msg->body.c_str());
    }
    ok = ok && msg && msg->decrypt_ok && msg->body == o2m;
  }

  rt.stop();
  std::printf("done\n");
  return ok ? 0 : 1;
}
