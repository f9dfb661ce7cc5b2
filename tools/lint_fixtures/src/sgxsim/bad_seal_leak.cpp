// Fixture: a migration-style helper that unseals a rollback bundle into
// util::Bytes locals and returns without wiping them. The plaintext — an
// actor's exported private state — stays resident in untrusted host memory
// after the function exits, readable long after the enclave that produced
// it is gone. The `seal-plaintext-zeroize` rule must fire on the unseal
// call; the wiped variants below (direct and through a cleanup lambda)
// must stay clean. The same holds for a transfer frame sealed in place
// (seal_framed_into/open_framed_in_place): a util::Bytes frame that is
// never wiped fires, and an in-place seal of memory the function owns no
// util::Bytes for (the channel's pool nodes) stays clean.

namespace util {
struct Bytes {
  unsigned char* data();
  unsigned long size() const;
};
void secure_zero(Bytes& buffer);
}  // namespace util

namespace fixture {

util::Bytes seal(const util::Bytes& plain);
util::Bytes unseal(const util::Bytes& blob);
bool import_state(const util::Bytes& state);
struct Key {};
void seal_framed_into(const Key& key, unsigned long counter, util::Bytes& frame);
bool open_framed_in_place(const Key& key, util::Bytes& frame);
util::Bytes export_state();

bool leaky_restore(const util::Bytes& blob) {
  util::Bytes plain = unseal(blob);  // EXPECT: seal-plaintext-zeroize
  return import_state(plain);  // plaintext state left behind on return
}

bool wiped_restore(const util::Bytes& blob) {
  util::Bytes plain = unseal(blob);
  const bool ok = import_state(plain);
  util::secure_zero(plain);
  return ok;
}

bool lambda_wiped_restore(const util::Bytes& blob) {
  util::Bytes plain = unseal(blob);
  auto wipe = [&plain] { util::secure_zero(plain); };
  const bool ok = import_state(plain);
  wipe();
  return ok;
}

bool leaky_transfer(const Key& key) {
  util::Bytes frame = export_state();
  seal_framed_into(key, 1, frame);  // EXPECT: seal-plaintext-zeroize
  return open_framed_in_place(key, frame) && import_state(frame);
}

bool wiped_transfer(const Key& key) {
  util::Bytes frame = export_state();
  seal_framed_into(key, 1, frame);
  const bool ok = open_framed_in_place(key, frame) && import_state(frame);
  util::secure_zero(frame);
  return ok;
}

void seal_node(const Key& key, util::Bytes& node_payload) {
  seal_framed_into(key, 2, node_payload);
}

}  // namespace fixture
