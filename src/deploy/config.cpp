#include "deploy/config.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>

namespace ea::deploy {
namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

[[noreturn]] void fail(int line, const std::string& msg) {
  throw std::invalid_argument("config line " + std::to_string(line) + ": " +
                              msg);
}

// Parses a decimal integer no smaller than `min`: a negative size or CPU
// would wrap once cast to size_t or be skipped by the pinning call.
int parse_int(int line, const std::string& s, int min) {
  int value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    fail(line, "expected integer, got '" + s + "'");
  }
  if (value < min) {
    fail(line, "expected integer >= " + std::to_string(min) + ", got " + s);
  }
  return value;
}

// Splits "key=value" tokens into a map; bare tokens map to "".
std::map<std::string, std::string> keyvals(
    const std::vector<std::string>& tokens, std::size_t start) {
  std::map<std::string, std::string> out;
  for (std::size_t i = start; i < tokens.size(); ++i) {
    auto eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      out[tokens[i]] = "";
    } else {
      out[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
    }
  }
  return out;
}

}  // namespace

DeploymentConfig DeploymentConfig::parse(std::string_view text) {
  DeploymentConfig config;
  std::istringstream stream{std::string(text)};
  std::string raw;
  int line_no = 0;
  while (std::getline(stream, raw)) {
    ++line_no;
    auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream line(raw);
    std::vector<std::string> tokens;
    std::string tok;
    while (line >> tok) tokens.push_back(tok);
    if (tokens.empty()) continue;

    const std::string& kind = tokens[0];
    if (kind == "pool") {
      auto kv = keyvals(tokens, 1);
      if (kv.count("nodes")) {
        config.runtime.pool_nodes =
            static_cast<std::size_t>(parse_int(line_no, kv["nodes"], 1));
      }
      if (kv.count("payload")) {
        config.runtime.node_payload_bytes =
            static_cast<std::size_t>(parse_int(line_no, kv["payload"], 1));
      }
    } else if (kind == "enclave") {
      if (tokens.size() < 2) fail(line_no, "enclave needs a name");
      config.enclaves.push_back(tokens[1]);
    } else if (kind == "actor") {
      if (tokens.size() < 2) fail(line_no, "actor needs a name");
      ConfigActor actor;
      actor.name = tokens[1];
      auto kv = keyvals(tokens, 2);
      if (!kv.count("type")) fail(line_no, "actor needs type=");
      actor.type = kv["type"];
      if (kv.count("enclave")) actor.enclave = kv["enclave"];
      config.actors.push_back(std::move(actor));
    } else if (kind == "worker") {
      if (tokens.size() < 2) fail(line_no, "worker needs a name");
      ConfigWorker worker;
      worker.name = tokens[1];
      auto kv = keyvals(tokens, 2);
      if (kv.count("cpus")) {
        for (const auto& c : split(kv["cpus"], ',')) {
          worker.cpus.push_back(parse_int(line_no, c, 0));
        }
      }
      if (!kv.count("actors")) fail(line_no, "worker needs actors=");
      worker.actors = split(kv["actors"], ',');
      if (worker.actors.empty()) fail(line_no, "worker needs >=1 actor");
      config.workers.push_back(std::move(worker));
    } else if (kind == "sched") {
      // `sched static|steal`; default stays kStatic so existing deployment
      // files keep the paper's fixed mapping.
      if (tokens.size() < 2) fail(line_no, "sched needs static|steal");
      const std::string& mode = tokens[1];
      if (mode == "static") {
        config.runtime.sched = core::SchedMode::kStatic;
      } else if (mode == "steal") {
        config.runtime.sched = core::SchedMode::kSteal;
      } else {
        fail(line_no, "sched: expected static|steal, got '" + mode + "'");
      }
    } else if (kind == "channel") {
      if (tokens.size() < 2) fail(line_no, "channel needs a name");
      ConfigChannel channel;
      channel.name = tokens[1];
      auto kv = keyvals(tokens, 2);
      channel.force_plain = kv.count("plain") > 0;
      config.channels.push_back(std::move(channel));
    } else {
      fail(line_no, "unknown directive '" + kind + "'");
    }
  }
  return config;
}

void ActorRegistry::register_type(const std::string& type, Factory factory) {
  factories_[type] = std::move(factory);
}

const ActorRegistry::Factory* ActorRegistry::find(
    const std::string& type) const {
  auto it = factories_.find(type);
  return it == factories_.end() ? nullptr : &it->second;
}

std::unique_ptr<core::Runtime> build_runtime(const DeploymentConfig& config,
                                             const ActorRegistry& registry) {
  auto runtime = std::make_unique<core::Runtime>(config.runtime);
  for (const std::string& name : config.enclaves) {
    runtime->enclave(name);
  }
  for (const ConfigChannel& ch : config.channels) {
    core::ChannelOptions options;
    options.force_plain = ch.force_plain;
    runtime->channel(ch.name, options);
  }
  for (const ConfigActor& spec : config.actors) {
    const ActorRegistry::Factory* factory = registry.find(spec.type);
    if (factory == nullptr) {
      throw std::invalid_argument("no factory for actor type " + spec.type);
    }
    runtime->add_actor((*factory)(spec.name), spec.enclave);
  }
  for (const ConfigWorker& spec : config.workers) {
    runtime->add_worker(spec.name, spec.cpus, spec.actors);
  }
  return runtime;
}

}  // namespace ea::deploy
