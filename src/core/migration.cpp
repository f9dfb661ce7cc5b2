#include "core/migration.hpp"

#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "core/channel.hpp"
#include "core/runtime.hpp"
#include "core/worker.hpp"
#include "crypto/aead.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "sgxsim/attested_exchange.hpp"
#include "sgxsim/monotonic_counter.hpp"
#include "sgxsim/transition.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"

namespace ea::core {
namespace {

// Monotonic-counter namespace for migration tickets: one logical counter
// per actor (slot = FNV-1a of the name), shared by every enclave identity —
// departure increments it, resume consumes it (ROTE-style shared counter).
const crypto::Sha256Digest& migration_namespace() {
  static const crypto::Sha256Digest ns = crypto::sha256("ea-migration-ticket");
  return ns;
}

std::uint32_t ticket_slot(const std::string& actor_name) {
  std::uint32_t h = 2166136261u;  // FNV-1a
  for (char c : actor_name) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h;
}

std::uint64_t fresh_nonce() {
  std::uint8_t buf[8];
  crypto::secure_random(buf);
  return util::load_le64(buf);
}

std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// AAD pinning the transfer frames to this protocol (a migration bundle can
// never be confused with channel traffic under the same key).
constexpr char kTransferAad[] = "ea-migrate-bundle";

std::span<const std::uint8_t> aad_span() {
  return {reinterpret_cast<const std::uint8_t*>(kTransferAad),
          sizeof(kTransferAad) - 1};
}

constexpr char kBundleMagic[8] = {'E', 'A', 'M', 'I', 'G', 'R', '0', '1'};

// The bundle serialised once, in the layout crypto::seal_framed_into seals
// in place: nonce(12) ‖ magic(8) ‖ ticket(8) ‖ source(4) ‖ target(4) ‖
// state_len(4) ‖ state ‖ tag(16), little-endian. The source seals it and
// the target opens it in the same buffer, and the import reads the state
// straight out of the opened frame. It holds plaintext state before the
// seal and after the open, so, like Bundle, it wipes itself on every exit.
class TransferFrame {
 public:
  static constexpr std::size_t kHeader = 8 + 8 + 4 + 4 + 4;

  TransferFrame(std::uint64_t ticket, sgxsim::EnclaveId source,
                sgxsim::EnclaveId target, std::span<const std::uint8_t> state)
      : ticket_(ticket), source_(source), target_(target) {
    // Reserve, then append: the state is copied once and never zero-filled.
    bytes_.reserve(crypto::kAeadOverhead + kHeader + state.size());
    bytes_.resize(crypto::kAeadNonceSize + kHeader);
    std::uint8_t* h = bytes_.data() + crypto::kAeadNonceSize;
    std::memcpy(h, kBundleMagic, 8);
    util::store_le64(h + 8, ticket);
    util::store_le32(h + 16, source);
    util::store_le32(h + 20, target);
    util::store_le32(h + 24, static_cast<std::uint32_t>(state.size()));
    bytes_.insert(bytes_.end(), state.begin(), state.end());
    bytes_.resize(bytes_.size() + crypto::kAeadTagSize);
  }
  TransferFrame(const TransferFrame&) = delete;
  TransferFrame& operator=(const TransferFrame&) = delete;
  ~TransferFrame() { util::secure_zero(bytes_); }

  std::span<std::uint8_t> bytes() noexcept { return bytes_; }

  // A view of the state in a frame that open_framed_in_place left
  // `plain_len` plaintext bytes in. Empty unless the header names this
  // departure (magic, ticket, source, target) and its state length ends
  // the plaintext exactly.
  std::optional<std::span<const std::uint8_t>> state(
      std::size_t plain_len) const {
    const std::uint8_t* h = bytes_.data() + crypto::kAeadNonceSize;
    if (plain_len < kHeader || std::memcmp(h, kBundleMagic, 8) != 0 ||
        util::load_le64(h + 8) != ticket_ ||
        util::load_le32(h + 16) != source_ ||
        util::load_le32(h + 20) != target_ ||
        util::load_le32(h + 24) != plain_len - kHeader) {
      return std::nullopt;
    }
    return std::span<const std::uint8_t>(h + kHeader, plain_len - kHeader);
  }

 private:
  std::uint64_t ticket_;
  sgxsim::EnclaveId source_;
  sgxsim::EnclaveId target_;
  util::Bytes bytes_;
};

}  // namespace

const char* to_string(MigrateResult result) noexcept {
  switch (result) {
    case MigrateResult::kOk:
      return "ok";
    case MigrateResult::kNotFound:
      return "not-found";
    case MigrateResult::kNotMigratable:
      return "not-migratable";
    case MigrateResult::kBusy:
      return "busy";
    case MigrateResult::kSamePlacement:
      return "same-placement";
    case MigrateResult::kRouteQuarantined:
      return "route-quarantined";
    case MigrateResult::kSealFailed:
      return "seal-failed";
    case MigrateResult::kTransferFailed:
      return "transfer-failed";
    case MigrateResult::kResumeRefused:
      return "resume-refused";
    case MigrateResult::kImportFailed:
      return "import-failed";
    case MigrateResult::kAffinityFailed:
      return "affinity-failed";
  }
  return "unknown";
}

// A bundle holds exported actor state in plaintext, so it is its own scope
// guard: it wipes itself on every exit. It stays in the coordinator's hands
// for the whole attempt, and every rollback restores the source from it.
struct MigrationCoordinator::Bundle {
  std::uint64_t ticket = 0;
  util::Bytes state;

  Bundle() = default;
  Bundle(const Bundle&) = delete;
  Bundle& operator=(const Bundle&) = delete;
  ~Bundle() { util::secure_zero(state); }
};

// --- park/unpark barrier ----------------------------------------------------

bool MigrationCoordinator::park(Actor& actor) {
  ActorState expected = ActorState::kRunnable;
  if (!actor.state_.compare_exchange_strong(expected, ActorState::kMigrating,
                                            std::memory_order_seq_cst)) {
    return false;
  }
  // Dekker wait (see Actor::executing_): after this loop no body quantum of
  // the actor runs anywhere — a dispatch that raced the store above either
  // finished (executing_ observed false) or will observe kMigrating and
  // decline. Bodies are non-blocking by contract, so the wait is bounded by
  // one quantum.
  while (actor.executing_.load(std::memory_order_seq_cst)) {
    std::this_thread::yield();
  }
  return true;
}

void MigrationCoordinator::unpark(Actor& actor) {
  // Release: the next dispatcher's acquire load of kRunnable must observe
  // every state write the import performed.
  actor.state_.store(ActorState::kRunnable, std::memory_order_release);
}

// --- coordinator ------------------------------------------------------------

MigrateResult MigrationCoordinator::migrate(const std::string& actor_name,
                                            const std::string& target_enclave) {
  Actor* actor = rt_.find_actor(actor_name);
  if (actor == nullptr) return MigrateResult::kNotFound;
  // Find-only while running: creating an enclave mid-run would mutate the
  // runtime's enclave map under concurrent health() walks.
  auto it = rt_.enclaves().find(target_enclave);
  sgxsim::Enclave* target =
      it != rt_.enclaves().end() ? it->second : nullptr;
  if (target == nullptr) {
    if (rt_.running()) return MigrateResult::kNotFound;
    target = &rt_.enclave(target_enclave);
  }
  return migrate(*actor, *target);
}

MigrateResult MigrationCoordinator::migrate(Actor& actor,
                                            sgxsim::Enclave& target) {
  if (!actor.migratable()) return MigrateResult::kNotMigratable;
  for (const auto& [name, ch] : rt_.channels()) {
    if ((ch->owner(0) == &actor || ch->owner(1) == &actor) && ch->carried()) {
      return MigrateResult::kNotMigratable;  // see Channel::carried()
    }
  }
  const sgxsim::EnclaveId src_id = actor.placement();
  // Untrusted actors have no sealed identity to hand off.
  if (src_id == sgxsim::kUntrusted) return MigrateResult::kNotMigratable;
  if (src_id == target.id()) return MigrateResult::kSamePlacement;
  sgxsim::Enclave* source = sgxsim::EnclaveManager::instance().find(src_id);
  if (source == nullptr) return MigrateResult::kNotFound;

  concurrent::HleGuard guard(mu_);
  if (quarantined_routes_.count({src_id, target.id()}) != 0) {
    return MigrateResult::kRouteQuarantined;
  }
  return migrate_locked(actor, *source, target);
}

bool MigrationCoordinator::route_quarantined(sgxsim::EnclaveId source,
                                             sgxsim::EnclaveId target) const {
  concurrent::HleGuard guard(mu_);
  return quarantined_routes_.count({source, target}) != 0;
}

MigrationStats MigrationCoordinator::stats() const {
  MigrationStats s;
  s.attempted = attempted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rolled_back = rolled_back_.load(std::memory_order_relaxed);
  s.forks_prevented = forks_prevented_.load(std::memory_order_relaxed);
  s.in_flight_carried = in_flight_carried_.load(std::memory_order_relaxed);
  return s;
}

void MigrationCoordinator::quarantine_route(sgxsim::EnclaveId source,
                                            sgxsim::EnclaveId target) {
  quarantined_routes_.emplace(source, target);
  EA_WARN("core", "migration route %u -> %u quarantined", source, target);
}

std::size_t MigrationCoordinator::place(Actor& actor, sgxsim::Enclave& from,
                                        sgxsim::Enclave& to) {
  from.sub_committed(actor.state_bytes());
  to.add_committed(actor.state_bytes());
  actor.placement_.store(to.id(), std::memory_order_release);
  // Channel routes are rewritten in place. Peers are parked through the
  // same barrier so the drain/re-seal races nothing; a peer that is
  // Failed/Quarantined is not running bodies and needs no barrier.
  std::size_t carried = 0;
  for (const auto& [name, ch] : rt_.channels()) {
    Actor* o0 = ch->owner(0);
    Actor* o1 = ch->owner(1);
    if (o0 != &actor && o1 != &actor) continue;
    Actor* peer = (o0 == &actor) ? o1 : o0;
    const bool peer_parked = peer != nullptr && peer != &actor && park(*peer);
    carried += ch->rebind_for_migration(actor, to.id());
    if (peer_parked) unpark(*peer);
  }
  return carried;
}

MigrateResult MigrationCoordinator::roll_back(MigrateResult why, Actor& actor,
                                              sgxsim::Enclave& source,
                                              sgxsim::Enclave& target,
                                              const Bundle& bundle) {
  // A seal failure drew no ticket, and export_state() left the actor as it
  // was: nothing left the source, so there is nothing to restore.
  if (why != MigrateResult::kSealFailed) {
    // Every later exit restores the source from the exported bundle, which
    // never left the coordinator's hands.
    {
      sgxsim::EnclaveScope scope(source);
      try {
        actor.import_state(bundle.state);
      } catch (const std::exception& e) {
        EA_WARN("core", "migration rollback import threw for %s: %s",
                actor.name().c_str(), e.what());
      } catch (...) {
        EA_WARN("core", "migration rollback import threw for %s",
                actor.name().c_str());
      }
    }
    // The restore wins the ticket: if a copy of the transfer ever surfaces
    // later, its resume finds the ticket spent. A no-op when a resume
    // already spent it (kResumeRefused, kImportFailed).
    sgxsim::MonotonicCounterService::instance().consume(
        migration_namespace(), ticket_slot(actor.name()), bundle.ticket);
  }
  // The route is blamed, never the actor — except for the two failures
  // that say nothing about the route: a source-local seal failure and a
  // home worker whose affinity table is full.
  if (why != MigrateResult::kSealFailed &&
      why != MigrateResult::kAffinityFailed) {
    quarantine_route(source.id(), target.id());
  }
  rolled_back_.fetch_add(1, std::memory_order_relaxed);
  unpark(actor);
  EA_WARN("core", "migration of %s %s -> %s failed (%s); rolled back",
          actor.name().c_str(), source.name().c_str(), target.name().c_str(),
          to_string(why));
  return why;
}

MigrateResult MigrationCoordinator::migrate_locked(Actor& actor,
                                                   sgxsim::Enclave& source,
                                                   sgxsim::Enclave& target) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (!park(actor)) return MigrateResult::kBusy;
  const std::uint64_t pause_start_us = steady_now_us();

  // --- export inside the source enclave ----------------------------------
  Bundle bundle;
  bool export_ok = true;
  {
    sgxsim::EnclaveScope scope(source);
    try {
      bundle.state = actor.export_state();
    } catch (const std::exception& e) {
      EA_WARN("core", "migration export threw for %s: %s",
              actor.name().c_str(), e.what());
      export_ok = false;
    } catch (...) {
      export_ok = false;
    }
  }
  if (!export_ok || EA_FAIL_TRIGGERED("migrate.seal.fail")) {
    return roll_back(MigrateResult::kSealFailed, actor, source, target,
                     bundle);
  }

  // --- departure ticket ----------------------------------------------------
  const crypto::Sha256Digest& ns = migration_namespace();
  const std::uint32_t slot = ticket_slot(actor.name());
  auto& counters = sgxsim::MonotonicCounterService::instance();
  bundle.ticket = counters.increment_ns(ns, slot);
  TransferFrame frame(bundle.ticket, source.id(), target.id(), bundle.state);

  // --- attested transfer ---------------------------------------------------
  const std::uint64_t nonce_src = fresh_nonce();
  const std::uint64_t nonce_tgt = fresh_nonce();
  sgxsim::AttestedExchange ex_src(source, nonce_tgt);
  sgxsim::AttestedExchange ex_tgt(target, nonce_src);
  sgxsim::AttestationVerifier verifier;
  // Each side pins the peer's expected measurement: a runtime substituting
  // a different enclave on either end fails the handshake.
  std::optional<crypto::AeadKey> key_src = ex_src.complete(
      ex_tgt.quote(), nonce_src, verifier, &target.measurement());
  std::optional<crypto::AeadKey> key_tgt = ex_tgt.complete(
      ex_src.quote(), nonce_tgt, verifier, &source.measurement());

  std::optional<std::span<const std::uint8_t>> received;
  if (key_src.has_value() && key_tgt.has_value()) {
    crypto::seal_framed_into(*key_src, bundle.ticket, aad_span(),
                             frame.bytes());
    std::size_t plain_len = 0;
    if (!EA_FAIL_TRIGGERED("migrate.transfer.drop") &&
        crypto::open_framed_in_place(*key_tgt, aad_span(), frame.bytes(),
                                     plain_len)) {
      received = frame.state(plain_len);
    }
  }
  if (key_src.has_value()) util::secure_zero(key_src->data(), key_src->size());
  if (key_tgt.has_value()) util::secure_zero(key_tgt->data(), key_tgt->size());
  // The bundle never (verifiably) reached the target.
  if (!received.has_value()) {
    return roll_back(MigrateResult::kTransferFailed, actor, source, target,
                     bundle);
  }

  // --- worker affinity (grant BEFORE the placement flip so there is never
  // a placement no worker may dispatch) -------------------------------------
  bool granted = !rt_.running();  // pre-start: configure_sched derives it
  for (const auto& worker : rt_.workers()) {
    for (Actor* home : worker->actors()) {
      if (home == &actor) {
        granted |= worker->grant_affinity(target.id());
        break;
      }
    }
  }
  if (!granted) {
    return roll_back(MigrateResult::kAffinityFailed, actor, source, target,
                     bundle);
  }

  // --- resume-once ticket consume ------------------------------------------
  if (EA_FAIL_TRIGGERED("migrate.resume.spent")) {
    // Injected race: a copy of this bundle resumed first and spent the
    // ticket, so the consume below must lose.
    counters.consume(ns, slot, bundle.ticket);
  }
  const bool consumed = counters.consume(ns, slot, bundle.ticket);
  if (consumed && EA_FAIL_TRIGGERED("migrate.resume.dup")) {
    // Injected duplicate resume of the SAME bundle: the compare-and-
    // increment must refuse it — if it did not, the fork guard is broken.
    if (counters.consume(ns, slot, bundle.ticket)) {
      EA_WARN("core",
              "migration fork guard BROKEN: duplicate ticket consume "
              "succeeded for %s",
              actor.name().c_str());
    } else {
      forks_prevented_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!consumed) {
    // The ticket was already spent — this resume is the second copy of a
    // fork. Refuse it; the source copy is the only survivor.
    forks_prevented_.fetch_add(1, std::memory_order_relaxed);
    return roll_back(MigrateResult::kResumeRefused, actor, source, target,
                     bundle);
  }

  // --- placement flip: EPC accounting, placement, channel routes ----------
  const std::size_t carried = place(actor, source, target);
  in_flight_carried_.fetch_add(carried, std::memory_order_relaxed);

  // --- import inside the target enclave ------------------------------------
  bool import_ok = false;
  {
    sgxsim::EnclaveScope scope(target);
    try {
      import_ok = actor.import_state(*received);
    } catch (const std::exception& e) {
      EA_WARN("core", "migration import threw for %s: %s",
              actor.name().c_str(), e.what());
      import_ok = false;
    } catch (...) {
      import_ok = false;
    }
  }
  if (!import_ok) {
    place(actor, target, source);  // undo the flip
    return roll_back(MigrateResult::kImportFailed, actor, source, target,
                     bundle);
  }

  unpark(actor);
  pause_hist_.record(steady_now_us() - pause_start_us);
  completed_.fetch_add(1, std::memory_order_relaxed);
  EA_INFO("core", "actor %s migrated %s -> %s (%zu in-flight carried)",
          actor.name().c_str(), source.name().c_str(), target.name().c_str(),
          carried);
  return MigrateResult::kOk;
}

}  // namespace ea::core
