// Live actor migration with sealed-state handoff (DESIGN.md §17).
//
// The paper's deployment flexibility is static: actor-to-enclave placement
// is fixed by the config at startup. This module makes placement dynamic,
// following *Migrating SGX Enclaves with Persistent State* for the handoff
// protocol:
//
//   park ──▶ export ──▶ seal ──▶ transfer ──▶ consume-ticket ──▶ resume
//     │         │         │          │              │
//     └─────────┴─────────┴──────────┴──────────────┴──▶ rollback (source)
//
//  * park      — CAS Runnable→kMigrating plus a Dekker handshake with
//                invoke_contained()'s executing_ flag: after the barrier no
//                body quantum of the actor can run anywhere. Messages keep
//                queueing in the actor's mboxes — those ARE the tombstone
//                mailboxes; nothing is dropped, delivery merely stalls for
//                the pause window.
//  * export    — the actor serialises its private state inside the
//                SOURCE enclave.
//  * seal      — the bundle is serialised once into a transfer frame and
//                sealed in place under a fresh AEAD key from an attested
//                X25519 exchange in which each side pins the other's
//                expected measurement; the target opens it in place and
//                imports straight from the opened frame.
//  * ticket    — a monotonic-counter ticket (namespace "ea-migration-
//                ticket", slot = hash(actor)) is incremented at departure
//                and embedded in the bundle; resuming CONSUMES it with a
//                compare-and-increment. A second resume of the same bundle
//                — the resume-twice fork — finds the counter already
//                advanced and is refused.
//  * resume    — scheduler affinity masks are extended (workers re-read
//                placement on every dispatch under either scheduler, which
//                is what makes live migration possible), the placement
//                flips, channel routes are rewritten in place (in-flight
//                messages re-sealed under a fresh channel key, FIFO
//                preserved), and the actor imports its state inside the
//                TARGET enclave.
//  * rollback  — any failure past the export restores the source from
//                the exported bundle the coordinator still holds and,
//                unless the failure was source-local or a full affinity
//                table, quarantines the (source, target) ROUTE, never the
//                actor: the actor resumes at the source and later
//                migrations simply avoid the bad route.
//
// The caller picks the actor and the target; no policy in this module
// moves actors on its own.
#pragma once

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "concurrent/hle_lock.hpp"
#include "core/actor.hpp"
#include "sgxsim/enclave.hpp"
#include "util/latency_hist.hpp"

namespace ea::core {

class Runtime;

enum class MigrateResult : std::uint8_t {
  kOk = 0,
  kNotFound,          // unknown actor or enclave
  kNotMigratable,     // actor did not opt in, is placed untrusted or
                      // holds a carried channel
  kBusy,              // actor not Runnable (failed/restarting/migrating)
  kSamePlacement,     // source == target
  kRouteQuarantined,  // a previous migration failed on this route
  kSealFailed,        // export/seal failed; actor restored at source
  kTransferFailed,    // attested transfer failed; rolled back, route
                      // quarantined
  kResumeRefused,     // ticket already consumed (resume-twice fork); the
                      // duplicate resume was refused, the source restored
                      // and the route quarantined
  kImportFailed,      // target-side import failed; rolled back, route
                      // quarantined
  kAffinityFailed,    // no home worker could extend its affinity mask;
                      // rolled back, route not quarantined
};

const char* to_string(MigrateResult result) noexcept;

struct MigrationStats {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rolled_back = 0;       // failed attempts, actor resumed at
                                       // the source (DESIGN.md §17 table)
  std::uint64_t forks_prevented = 0;   // duplicate resumes refused by ticket
  std::uint64_t in_flight_carried = 0; // channel messages re-sealed across
                                       // rebinds (zero lost by construction)
};

// Serialises migrations process-wide (one in flight at a time) and owns the
// rollback/quarantine bookkeeping. Its lock ranks kMigration — the
// outermost rank in the table — because a migration reaches into mboxes,
// the enclave manager, the counter service and whatever the actor's own
// export/import hooks lock while holding it.
class MigrationCoordinator {
 public:
  explicit MigrationCoordinator(Runtime& rt) : rt_(rt) {}

  MigrationCoordinator(const MigrationCoordinator&) = delete;
  MigrationCoordinator& operator=(const MigrationCoordinator&) = delete;

  // Migrates `actor_name` into the named enclave (created on first use,
  // like Runtime::enclave(), but only before start()). Safe to call before
  // start() and while the runtime runs, under either scheduler.
  MigrateResult migrate(const std::string& actor_name,
                        const std::string& target_enclave);
  MigrateResult migrate(Actor& actor, sgxsim::Enclave& target);

  // True when a failed migration quarantined source→target (directional).
  bool route_quarantined(sgxsim::EnclaveId source,
                         sgxsim::EnclaveId target) const;

  MigrationStats stats() const;

  // Migration pause time (park → resume) in microseconds.
  const util::LatencyHist& pause_hist() const noexcept { return pause_hist_; }

 private:
  struct Bundle;

  // Park/unpark protocol (see actor.hpp's executing_ comment). park()
  // returns false when the actor is not Runnable.
  static bool park(Actor& actor);
  static void unpark(Actor& actor);

  MigrateResult migrate_locked(Actor& actor, sgxsim::Enclave& source,
                               sgxsim::Enclave& target)
      EA_REQUIRES(mu_);
  // Moves the actor's EPC accounting and placement from `from` to `to` and
  // rewrites its channel routes in place; returns the in-flight messages
  // carried across the rebinds. The placement flip and its undo.
  std::size_t place(Actor& actor, sgxsim::Enclave& from, sgxsim::Enclave& to)
      EA_REQUIRES(mu_);
  // The one failure exit after park() (DESIGN.md §17 rollback table):
  // past the export, restores the actor at the source from the exported
  // bundle and spends the ticket; quarantines the route unless `why` is
  // kSealFailed or kAffinityFailed, and unparks the actor. Returns `why`.
  MigrateResult roll_back(MigrateResult why, Actor& actor,
                          sgxsim::Enclave& source, sgxsim::Enclave& target,
                          const Bundle& bundle) EA_REQUIRES(mu_);
  void quarantine_route(sgxsim::EnclaveId source, sgxsim::EnclaveId target)
      EA_REQUIRES(mu_);

  Runtime& rt_;
  mutable concurrent::HleSpinLock mu_{concurrent::LockRank::kMigration};
  std::set<std::pair<sgxsim::EnclaveId, sgxsim::EnclaveId>>
      quarantined_routes_ EA_GUARDED_BY(mu_);
  util::LatencyHist pause_hist_ EA_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rolled_back_{0};
  std::atomic<std::uint64_t> forks_prevented_{0};
  std::atomic<std::uint64_t> in_flight_carried_{0};
};

}  // namespace ea::core
