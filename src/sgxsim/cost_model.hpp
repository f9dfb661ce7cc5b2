// Cost model for the simulated SGX hardware.
//
// This repository reproduces EActors on machines without SGX. The paper's
// performance effects are driven by a handful of hardware costs, which this
// model charges explicitly (in CPU cycles, busy-burned so they consume real
// time exactly like the hardware does):
//
//  * enclave entry/exit — ~8000 cycles each way; the paper cites 8000–9000
//    (Eleos [39]) and ~8000 (HotCalls [52]).
//  * EPC paging — re-encryption of evicted pages once the combined enclave
//    working set exceeds the usable EPC (93 MiB of the 128 MiB range).
//  * the trusted random number generator — sgx_read_rand is RDRAND-based
//    and slow; the paper identifies it as the SMC bottleneck (§6.3.1).
//  * sgx_mutex — spins briefly, then *exits the enclave* to sleep (Fig. 1).
//
// Ablation benches and tests set the fields directly (cost_model(),
// ScopedCostModel) to zero a cost and observe its contribution.
#pragma once

#include <cstdint>

namespace ea::sgxsim {

struct CostModel {
  // One-way transition costs.
  std::uint64_t ecall_cycles = 8000;
  std::uint64_t ocall_cycles = 8000;
  // Extra cycles charged per 4 KiB page that does not fit into the EPC,
  // sampled at transition time (eviction + re-encryption on the way back).
  std::uint64_t paging_cycles_per_page = 14000;
  // Cap on how many overflow pages one transition charges for; models the
  // kernel's batched eviction.
  std::uint64_t paging_pages_per_transition = 16;
  // Trusted RNG throughput (RDRAND-class hardware DRBG).
  std::uint64_t rng_cycles_per_byte = 60;
  // Marshalled boundary copies (SDK bridge code): writes into enclave
  // memory go through the Memory Encryption Engine, and the per-call
  // buffer allocation thrashes once it exceeds the L1 size — the effect
  // behind the paper's observation that the native SDK's throughput peaks
  // near 32 KiB (§6.2). Charged per byte copied by ecall_marshalled.
  std::uint64_t marshal_cycles_per_byte = 1;
  std::uint64_t marshal_spill_cycles_per_byte = 8;  // beyond the L1 bytes
  std::uint64_t marshal_l1_bytes = 32 * 1024;
  // sgx_mutex spins this many iterations before leaving the enclave.
  std::uint64_t mutex_spin_iterations = 8000;

  // Usable EPC bytes (93 MiB out of the 128 MiB protected range; the rest
  // holds SGX-internal metadata).
  std::uint64_t epc_usable_bytes = 93ull * 1024 * 1024;
};

// The process-wide cost model. Mutable; benchmarks adjust it before starting
// worker threads. Reads are not synchronised — configure before use.
CostModel& cost_model();

// RAII save/restore for tests and ablation benches.
class ScopedCostModel {
 public:
  ScopedCostModel();
  ~ScopedCostModel();
  ScopedCostModel(const ScopedCostModel&) = delete;
  ScopedCostModel& operator=(const ScopedCostModel&) = delete;

 private:
  CostModel saved_;
};

}  // namespace ea::sgxsim
