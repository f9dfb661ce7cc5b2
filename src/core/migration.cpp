#include "core/migration.hpp"

#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "core/channel.hpp"
#include "core/runtime.hpp"
#include "core/worker.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "sgxsim/attested_exchange.hpp"
#include "sgxsim/monotonic_counter.hpp"
#include "sgxsim/sealing.hpp"
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

// Wire layout: magic(8) ‖ ticket(8) ‖ source(4) ‖ target(4) ‖
// state_len(4) ‖ state, little-endian.
//
// A bundle holds exported actor state in plaintext, so it is its own scope
// guard: every copy — exported at the source, opened at the target,
// unsealed for a rollback — wipes itself on every exit.
struct MigrationCoordinator::Bundle {
  std::uint64_t ticket = 0;
  sgxsim::EnclaveId source = sgxsim::kUntrusted;
  sgxsim::EnclaveId target = sgxsim::kUntrusted;
  util::Bytes state;

  Bundle() = default;
  Bundle(const Bundle&) = delete;
  Bundle& operator=(const Bundle&) = delete;
  ~Bundle() { util::secure_zero(state); }

  util::Bytes serialize() const {
    util::Bytes out(8 + 8 + 4 + 4 + 4 + state.size());
    std::uint8_t* p = out.data();
    std::memcpy(p, kBundleMagic, 8);
    util::store_le64(p + 8, ticket);
    util::store_le32(p + 16, source);
    util::store_le32(p + 20, target);
    util::store_le32(p + 24, static_cast<std::uint32_t>(state.size()));
    if (!state.empty()) std::memcpy(p + 28, state.data(), state.size());
    return out;
  }

  // Rejects a short bundle and one with bytes after the state.
  static bool parse(std::span<const std::uint8_t> in, Bundle& out) {
    if (in.size() < 28 || std::memcmp(in.data(), kBundleMagic, 8) != 0) {
      return false;
    }
    out.ticket = util::load_le64(in.data() + 8);
    out.source = util::load_le32(in.data() + 16);
    out.target = util::load_le32(in.data() + 20);
    const std::uint32_t state_len = util::load_le32(in.data() + 24);
    if (in.size() - 28 != state_len) return false;
    out.state.assign(in.begin() + 28, in.end());
    return true;
  }
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

MigrateResult MigrationCoordinator::roll_back(
    MigrateResult why, Actor& actor, sgxsim::Enclave& source,
    sgxsim::Enclave& target, const Bundle& bundle,
    std::span<const std::uint8_t> rollback_blob) {
  // A seal failure drew no ticket, and export_state() left the actor as it
  // was: nothing left the source, so there is nothing to restore.
  if (why != MigrateResult::kSealFailed) {
    // The canonical restore path unseals the rollback copy — proving the
    // sealed bundle alone suffices to bring the source back. The in-hand
    // plaintext is only a belt-and-braces fallback for a broken sealer.
    Bundle restored;
    std::optional<util::Bytes> plain = sgxsim::unseal(source, rollback_blob);
    const bool from_seal = plain.has_value() && Bundle::parse(*plain, restored);
    if (plain.has_value()) util::secure_zero(*plain);
    const Bundle& use = from_seal ? restored : bundle;
    {
      sgxsim::EnclaveScope scope(source);
      try {
        actor.import_state(use.state);
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

  Bundle bundle;
  Bundle received;
  util::Bytes rollback_blob;

  // --- export inside the source enclave ----------------------------------
  bundle.source = source.id();
  bundle.target = target.id();
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
                     bundle, rollback_blob);
  }

  // --- departure ticket ----------------------------------------------------
  const crypto::Sha256Digest& ns = migration_namespace();
  const std::uint32_t slot = ticket_slot(actor.name());
  auto& counters = sgxsim::MonotonicCounterService::instance();
  bundle.ticket = counters.increment_ns(ns, slot);

  util::Bytes plain = bundle.serialize();
  // Rollback copy, sealed to the source identity: only the source enclave
  // can restore it, and the embedded ticket keeps even the rollback replay
  // honest (the restore path consumes the ticket as the winner).
  rollback_blob = sgxsim::seal(source, plain);

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

  std::optional<util::Bytes> received_plain;
  if (key_src.has_value() && key_tgt.has_value()) {
    util::Bytes wire = crypto::seal_with_counter(*key_src, bundle.ticket,
                                                 aad_span(), plain);
    if (!EA_FAIL_TRIGGERED("migrate.transfer.drop")) {
      received_plain = crypto::open_framed(*key_tgt, aad_span(), wire);
    }
    util::secure_zero(wire);
  }
  util::secure_zero(plain);
  if (key_src.has_value()) util::secure_zero(key_src->data(), key_src->size());
  if (key_tgt.has_value()) util::secure_zero(key_tgt->data(), key_tgt->size());
  const bool transfer_ok = received_plain.has_value() &&
                           Bundle::parse(*received_plain, received) &&
                           received.ticket == bundle.ticket &&
                           received.source == source.id() &&
                           received.target == target.id();
  if (received_plain.has_value()) util::secure_zero(*received_plain);
  // The bundle never (verifiably) reached the target.
  if (!transfer_ok) {
    return roll_back(MigrateResult::kTransferFailed, actor, source, target,
                     bundle, rollback_blob);
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
                     bundle, rollback_blob);
  }

  // --- resume-once ticket consume ------------------------------------------
  if (EA_FAIL_TRIGGERED("migrate.resume.spent")) {
    // Injected race: a copy of this bundle resumed first and spent the
    // ticket, so the consume below must lose.
    counters.consume(ns, slot, received.ticket);
  }
  const bool consumed = counters.consume(ns, slot, received.ticket);
  if (consumed && EA_FAIL_TRIGGERED("migrate.resume.dup")) {
    // Injected duplicate resume of the SAME bundle: the compare-and-
    // increment must refuse it — if it did not, the fork guard is broken.
    if (counters.consume(ns, slot, received.ticket)) {
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
                     bundle, rollback_blob);
  }

  // --- placement flip: EPC accounting, placement, channel routes ----------
  const std::size_t carried = place(actor, source, target);
  in_flight_carried_.fetch_add(carried, std::memory_order_relaxed);

  // --- import inside the target enclave ------------------------------------
  bool import_ok = false;
  {
    sgxsim::EnclaveScope scope(target);
    try {
      import_ok = actor.import_state(received.state);
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
                     bundle, rollback_blob);
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
