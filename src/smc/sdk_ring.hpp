// SGX-SDK-style deployment of the secure-sum service (paper Fig. 9b).
//
// "Each party is also implemented as an SGX enclave but only a single
// thread executes the protocol by entering and leaving one enclave after
// another." Every hop costs two transitions (leave P_i, enter P_i+1), and
// the dynamic secret update and party 0's trusted-RNG draw of each round's
// mask serialise with the protocol because there is only one thread. ECalls are used "efficiently": no buffer marshalling —
// the one sealed frame is handed over by reference and opened and sealed
// in place (core/hop_seal.hpp), matching the paper's note that transition
// costs do not depend on the vector size.
#pragma once

#include <memory>
#include <vector>

#include "core/hop_seal.hpp"
#include "sgxsim/enclave.hpp"
#include "smc/secure_sum.hpp"

namespace ea::smc {

class SdkSecureSum {
 public:
  // Party i starts from `secrets[i]` (config.dim elements each) when
  // given, else from initial_secret(i, config.dim).
  explicit SdkSecureSum(SmcConfig config, std::vector<Vec> secrets = {});

  // Executes one invocation of the protocol; returns the computed sum.
  Vec run_once();

  // Element-wise sum of the current secrets (ground truth for tests).
  Vec expected_sum() const;

 private:
  struct Party {
    sgxsim::Enclave* enclave = nullptr;
    Vec secret;
  };

  // Opens the frame party `from` sealed for its successor, in place; the
  // plaintext must be one vector.
  void open_hop(int from);

  SmcConfig config_;
  std::vector<Party> parties_;
  MaskAhead mask_;  // party 0's
  // links_[i] seals the hop from party i (side 0) to party i+1 (side 1).
  std::vector<core::HopSeal> links_;
  // The one frame the single thread hands from enclave to enclave.
  util::Bytes wire_;
};

}  // namespace ea::smc
