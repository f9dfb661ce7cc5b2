// Deployment configuration (paper §3.2).
//
// "The developer defines the necessary mapping of computational resources
// and trusted execution contexts of eactors in a special configuration
// file." The paper feeds that file into a source-generation step; here the
// same description is parsed at startup and instantiates a Runtime — same
// flexibility (trusted execution is a deployment decision, not a code
// change), without a code generator in the loop.
//
// The parser runs on the host before any actor exists, so this module is
// untrusted: no trusted module may include it (enclave_policy.toml).
//
// Grammar (line-based, '#' comments):
//   pool    nodes=<n> payload=<bytes>     (n, bytes >= 1)
//   enclave <name>
//   actor   <name> type=<registered-type> [enclave=<name>]
//   worker  <name> cpus=<c0,c1,...> actors=<a0,a1,...>   (cpus >= 0)
//   channel <name> [plain]
//   sched   static|steal
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"

namespace ea::deploy {

struct ConfigActor {
  std::string name;
  std::string type;
  std::string enclave;  // empty = untrusted
};

struct ConfigWorker {
  std::string name;
  std::vector<int> cpus;
  std::vector<std::string> actors;
};

struct ConfigChannel {
  std::string name;
  bool force_plain = false;
};

struct DeploymentConfig {
  core::RuntimeOptions runtime;
  std::vector<std::string> enclaves;
  std::vector<ConfigActor> actors;
  std::vector<ConfigWorker> workers;
  std::vector<ConfigChannel> channels;

  // Parses the textual format; throws std::invalid_argument with a
  // line-numbered message on malformed input.
  static DeploymentConfig parse(std::string_view text);
};

// Maps config `type=` names to actor constructors. The factory receives the
// instance name from the config.
class ActorRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<core::Actor>(const std::string&)>;

  void register_type(const std::string& type, Factory factory);
  const Factory* find(const std::string& type) const;

 private:
  std::map<std::string, Factory> factories_;
};

// Instantiates a runtime from a parsed config. Channels named in the config
// are pre-created (with their options); actors connect to them by name.
std::unique_ptr<core::Runtime> build_runtime(const DeploymentConfig& config,
                                             const ActorRegistry& registry);

}  // namespace ea::deploy
