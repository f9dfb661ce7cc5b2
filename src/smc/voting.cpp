#include "smc/voting.hpp"

#include <stdexcept>

#include "smc/sdk_ring.hpp"

namespace ea::smc {

std::optional<Vec> encode_ballot(std::size_t choice, std::size_t candidates) {
  if (choice >= candidates) return std::nullopt;
  Vec ballot(candidates, 0);
  ballot[choice] = 1;
  return ballot;
}

std::size_t winner(const Vec& tally) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < tally.size(); ++i) {
    if (tally[i] > tally[best]) best = i;
  }
  return best;
}

Vec run_election_sdk(const std::vector<std::size_t>& votes,
                     std::size_t candidates) {
  // The secure-sum ring with ballots as the secret vectors.
  if (votes.size() < 2) {
    throw std::invalid_argument("election needs >= 2 voters");
  }
  std::vector<Vec> ballots;
  for (std::size_t vote : votes) {
    auto ballot = encode_ballot(vote, candidates);
    if (!ballot.has_value()) throw std::invalid_argument("invalid vote");
    ballots.push_back(std::move(*ballot));
  }
  SmcConfig config;
  config.parties = static_cast<int>(votes.size());
  config.dim = candidates;
  return SdkSecureSum(config, std::move(ballots)).run_once();
}

}  // namespace ea::smc
