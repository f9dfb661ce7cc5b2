// Audit log: an enclaved actor persists sealed records through the
// untrusted FILE system actor (the §4.1 extension pattern: "dedicated
// untrusted eactors that execute the necessary system calls").
//
// The enclaved LOGGER actor never issues a syscall: it seals each record
// to its enclave identity, hands the ciphertext to the FILE actor via a
// mbox, and later reads the file back — only the same enclave identity can
// open the records, so the file is useless to the untrusted side.
//
// Build & run:  ./build/examples/audit_log
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "core/runtime.hpp"
#include "fs/file_actor.hpp"
#include "sgxsim/sealing.hpp"
#include "util/bytes.hpp"

using namespace ea;

namespace {

constexpr int kRecords = 5;

class LoggerActor : public core::Actor {
 public:
  LoggerActor(std::string name, std::string path, fs::FileActor& file)
      : core::Actor(std::move(name)), path_(std::move(path)), file_(file) {}

  void construct(core::Runtime& rt) override {
    pool_ = &rt.public_pool();
    enclave_ = sgxsim::EnclaveManager::instance().find(placement());
  }

  bool body() override {
    switch (phase_) {
      case Phase::kAppend: {
        if (next_record_ >= kRecords) {
          phase_ = Phase::kReadBack;
          return true;
        }
        // Seal the record inside the enclave; length-prefix it so records
        // can be split again on read-back.
        std::string record =
            "event=" + std::to_string(next_record_) + " action=transfer";
        util::Bytes sealed = sgxsim::seal(*enclave_, util::to_bytes(record));
        util::Bytes framed(4 + sealed.size());
        util::store_le32(framed.data(),
                         static_cast<std::uint32_t>(sealed.size()));
        std::memcpy(framed.data() + 4, sealed.data(), sealed.size());

        fs::FileRequest request;
        request.op = fs::FileRequest::kAppend;
        std::snprintf(request.path, sizeof(request.path), "%s",
                      path_.c_str());
        request.reply = &replies_;
        request.pool = pool_;
        request.cookie = static_cast<std::uint64_t>(next_record_);
        concurrent::Node* node = pool_->get();
        if (node == nullptr || !fs::fill_file_request(*node, request, framed)) {
          if (node != nullptr) concurrent::NodeLease(node).reset();
          return false;
        }
        file_.requests().push(node);
        ++next_record_;
        ++pending_;
        return true;
      }
      case Phase::kReadBack: {
        // Wait for all appends to be acknowledged, then request the file.
        while (concurrent::Node* ack = replies_.pop()) {
          concurrent::NodeLease lease(ack);
          --pending_;
        }
        if (pending_ > 0) return false;
        fs::FileRequest request;
        request.op = fs::FileRequest::kRead;
        std::snprintf(request.path, sizeof(request.path), "%s",
                      path_.c_str());
        request.length = 1500;
        request.reply = &replies_;
        request.pool = pool_;
        concurrent::Node* node = pool_->get();
        if (node == nullptr) return false;
        if (!fs::fill_file_request(*node, request)) {
          concurrent::NodeLease(node).reset();
          return false;
        }
        file_.requests().push(node);
        phase_ = Phase::kVerify;
        return true;
      }
      case Phase::kVerify: {
        concurrent::Node* reply = replies_.pop();
        if (reply == nullptr) return false;
        concurrent::NodeLease lease(reply);
        fs::FileReplyHeader header;
        std::span<const std::uint8_t> data;
        if (!fs::parse_file_reply(*reply, header, data) || header.status < 0) {
          std::printf("read-back failed (%lld)\n",
                      static_cast<long long>(header.status));
          phase_ = Phase::kDone;
          return true;
        }
        std::size_t off = 0;
        while (off + 4 <= data.size()) {
          std::uint32_t len = util::load_le32(data.data() + off);
          off += 4;
          if (off + len > data.size()) break;
          auto plain =
              sgxsim::unseal(*enclave_, data.subspan(off, len));
          off += len;
          if (plain.has_value()) {
            std::printf("unsealed record: %s\n",
                        util::to_string(*plain).c_str());
            ++verified_;
          }
        }
        phase_ = Phase::kDone;
        return true;
      }
      case Phase::kDone:
        return false;
    }
    return false;
  }

  bool done() const { return phase_ == Phase::kDone; }
  int verified() const { return verified_; }

 private:
  enum class Phase { kAppend, kReadBack, kVerify, kDone };
  std::string path_;
  fs::FileActor& file_;
  concurrent::Pool* pool_ = nullptr;
  sgxsim::Enclave* enclave_ = nullptr;
  concurrent::Mbox replies_;
  std::atomic<Phase> phase_{Phase::kAppend};  // main polls it via done()
  int next_record_ = 0;
  int pending_ = 0;
  int verified_ = 0;
};

}  // namespace

int main() {
  // One log file per run, so concurrent runs do not share it.
  std::string path = "/tmp/eactors_audit_example.";
  path += std::to_string(::getpid());
  path += ".log";
  ::unlink(path.c_str());

  core::Runtime rt;
  auto file = std::make_unique<fs::FileActor>("file");
  fs::FileActor* file_ptr = file.get();
  rt.add_actor(std::move(file));  // untrusted: it executes the syscalls

  auto logger = std::make_unique<LoggerActor>("logger", path, *file_ptr);
  LoggerActor* logger_ptr = logger.get();
  rt.add_actor(std::move(logger), "audit-enclave");

  rt.add_worker("w-file", {0}, {"file"});
  rt.add_worker("w-logger", {1}, {"logger"});
  rt.start();
  while (!logger_ptr->done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rt.stop();

  std::printf("verified %d/%d sealed records from %s\n",
              logger_ptr->verified(), kRecords, path.c_str());
  ::unlink(path.c_str());
  return logger_ptr->verified() == kRecords ? 0 : 1;
}
