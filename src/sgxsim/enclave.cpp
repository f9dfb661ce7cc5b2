#include "sgxsim/enclave.hpp"

#include "crypto/rng.hpp"
#include "sgxsim/cost_model.hpp"
#include "util/logging.hpp"

namespace ea::sgxsim {

Enclave::Enclave(EnclaveId id, std::string name,
                 crypto::Sha256Digest measurement)
    : id_(id), name_(std::move(name)), measurement_(measurement) {}

EnclaveManager& EnclaveManager::instance() {
  static EnclaveManager manager;
  return manager;
}

EnclaveManager::EnclaveManager() { crypto::secure_random(device_root_key_); }

Enclave& EnclaveManager::create(std::string name, std::uint64_t base_bytes) {
  EnclaveId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // The measurement covers the enclave's identity the way MRENCLAVE covers
  // the loaded pages: here, name + id.
  crypto::Sha256 h;
  h.update(name);
  h.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(&id), sizeof(id)));
  auto enclave = std::make_unique<Enclave>(id, std::move(name), h.finish());
  enclave->add_committed(base_bytes);
  Enclave& ref = *enclave;
  {
    HostMutexGuard lock(mu_);
    by_id_.emplace(id, enclave.get());
    enclaves_.push_back(std::move(enclave));
  }
  EA_DEBUG("sgxsim", "created enclave %u (%s), base %llu bytes", ref.id(),
           ref.name().c_str(), static_cast<unsigned long long>(base_bytes));
  return ref;
}

Enclave* EnclaveManager::find(EnclaveId id) noexcept {
  if (id == kUntrusted) return nullptr;
  HostMutexGuard lock(mu_);
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

std::uint64_t EnclaveManager::total_committed_locked() const noexcept {
  std::uint64_t total = 0;
  for (const auto& e : enclaves_) total += e->committed_bytes();
  return total;
}

std::uint64_t EnclaveManager::total_committed() const noexcept {
  HostMutexGuard lock(mu_);
  return total_committed_locked();
}

std::uint64_t EnclaveManager::overflow_pages() const noexcept {
  // Single lock acquisition: summing and comparing under one critical
  // section keeps the answer consistent with the enclave set it saw.
  std::uint64_t total;
  {
    HostMutexGuard lock(mu_);
    total = total_committed_locked();
  }
  std::uint64_t usable = cost_model().epc_usable_bytes;
  if (total <= usable) return 0;
  return (total - usable + 4095) / 4096;
}

std::size_t EnclaveManager::enclave_count() const {
  HostMutexGuard lock(mu_);
  return enclaves_.size();
}

void EnclaveManager::reset_for_testing() {
  HostMutexGuard lock(mu_);
  by_id_.clear();
  enclaves_.clear();
  next_id_.store(1, std::memory_order_relaxed);
}

}  // namespace ea::sgxsim
