#include "serve/service.h"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/incremental/session_core.h"
#include "core/wire_keys.h"
#include "obs/stats_sink.h"
#include "util/string_util.h"

namespace dislock {
namespace serve {

namespace {

std::string ShutdownResponse(bool json) {
  if (json) {
    return StrCat("{\"", wire::kSchemaVersionKey,
                  "\": ", std::to_string(wire::kSchemaVersion),
                  ", \"cmd\": \"shutdown\", \"ok\": true}\n");
  }
  return "shutting down\n";
}

}  // namespace

class SafetyService::Impl {
 public:
  explicit Impl(const ServiceOptions& options)
      : options_(MakeJsonOptions(options)), core_(options_.session) {
    sequencer_ = std::thread([this] { SequencerLoop(); });
  }

  ~Impl() { Shutdown(); }

  int64_t OpenClient(Respond respond, OnClose on_close) {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t id = next_client_++;
    Client client;
    client.assembler = std::make_unique<CommandAssembler>(&core_);
    client.respond = std::move(respond);
    client.on_close = std::move(on_close);
    clients_.emplace(id, std::move(client));
    ++clients_opened_;
    return id;
  }

  void Submit(int64_t client_id, const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    auto it = clients_.find(client_id);
    if (it == clients_.end() || it->second.closing) return;
    // Raw lines travel to the sequencer and are assembled there, strictly
    // after every earlier-arriving command has executed: a block verb like
    // `add` consults session state (is a system loaded?), so assembling on
    // the caller thread would race with a `load` still in the queue.
    Enqueue({Task::kLine, client_id, line});
  }

  void CloseClient(int64_t client_id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = clients_.find(client_id);
    if (it == clients_.end() || it->second.closing) return;
    it->second.closing = true;
    Enqueue({Task::kClose, client_id, {}});
  }

  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    drained_.wait(lock, [this] { return queue_.empty() && !processing_; });
  }

  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        // Second caller: the sequencer may still be draining; fall through
        // to the join guard below.
      }
      stopping_ = true;
      ready_.notify_all();
    }
    if (sequencer_.joinable()) sequencer_.join();
  }

  bool ShutdownRequested() const {
    std::lock_guard<std::mutex> lock(mu_);
    return shutdown_requested_;
  }

  void WaitForShutdownRequest() {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
  }

  int64_t commands() const { return core_.commands(); }
  int64_t checks() const { return core_.checks(); }
  int errors() const { return core_.errors(); }
  int64_t responses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return responses_;
  }
  int64_t clients_opened() const {
    std::lock_guard<std::mutex> lock(mu_);
    return clients_opened_;
  }
  int64_t queue_peak() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_peak_;
  }

  void ExportStats(obs::StatsSink* sink) {
    if (sink == nullptr) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      sink->AddCounter(wire::kMetricServeResponses, responses_);
      sink->AddCounter(wire::kMetricServeClients, clients_opened_);
      sink->SetGauge(wire::kMetricServeQueuePeak,
                     static_cast<double>(queue_peak_));
    }
    sink->AddCounter(wire::kMetricServeCommands, core_.commands());
    sink->AddCounter(wire::kMetricServeErrors, core_.errors());
  }

 private:
  struct Task {
    enum Kind { kLine, kClose };
    Kind kind;
    int64_t client;
    std::string line;
  };
  struct Client {
    std::unique_ptr<CommandAssembler> assembler;
    Respond respond;
    OnClose on_close;
    bool closing = false;
  };

  static ServiceOptions MakeJsonOptions(ServiceOptions options) {
    // The serve wire protocol is the JSON-lines session protocol; a text
    // serve would have no framing for multi-line responses.
    options.session.json = true;
    return options;
  }

  using ClientIt = std::unordered_map<int64_t, Client>::iterator;

  // Sequencer-only. Deliver a response outside the service lock; the
  // iterator stays valid because only this thread erases clients.
  void Deliver(std::unique_lock<std::mutex>& lock, ClientIt it,
               const std::string& response) {
    Respond respond = it->second.respond;
    lock.unlock();
    if (respond) respond(response);
    lock.lock();
    ++responses_;
  }

  // Sequencer-only. Assemble one raw line and run whatever completes.
  // Assembly and execution happen back-to-back on this thread, so a block
  // verb always sees the session state left by every earlier command.
  void ProcessLine(std::unique_lock<std::mutex>& lock, ClientIt it,
                   const std::string& line) {
    CommandAssembler::Step step = it->second.assembler->Consume(line);
    if (step.response.has_value()) Deliver(lock, it, *step.response);
    if (step.quit) {
      CloseNow(lock, it);
      return;
    }
    if (!step.command.has_value()) return;
    if (step.command->verb == "shutdown") {
      Deliver(lock, it, ShutdownResponse(true));
      shutdown_requested_ = true;
      shutdown_cv_.notify_all();
      return;
    }
    SessionCommand command = *std::move(step.command);
    Respond respond = it->second.respond;
    lock.unlock();
    // Execute outside the service lock: Submit/OpenClient stay responsive
    // while a check runs. Commands still execute strictly in arrival order
    // — only this thread pops the queue.
    SessionCore::Outcome outcome = core_.Execute(command);
    if (respond && !outcome.response.empty()) respond(outcome.response);
    lock.lock();
    ++responses_;
  }

  // Sequencer-only. Flush an unterminated block as its structured error,
  // then close the client.
  void FlushAndClose(std::unique_lock<std::mutex>& lock, ClientIt it) {
    std::optional<std::string> unfinished = it->second.assembler->Finish();
    if (unfinished.has_value()) Deliver(lock, it, *unfinished);
    CloseNow(lock, it);
  }

  void CloseNow(std::unique_lock<std::mutex>& lock, ClientIt it) {
    it->second.closing = true;
    OnClose on_close = std::move(it->second.on_close);
    clients_.erase(it);
    lock.unlock();
    if (on_close) on_close();
    lock.lock();
  }

  void Enqueue(Task task) {
    queue_.push_back(std::move(task));
    queue_peak_ = std::max(queue_peak_, static_cast<int64_t>(queue_.size()));
    ready_.notify_one();
  }

  void SequencerLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stopping_ with a drained queue: exit after waking Drain waiters.
        drained_.notify_all();
        return;
      }
      Task task = std::move(queue_.front());
      queue_.pop_front();
      processing_ = true;
      auto it = clients_.find(task.client);
      if (it != clients_.end()) {
        switch (task.kind) {
          case Task::kLine:
            ProcessLine(lock, it, task.line);
            break;
          case Task::kClose:
            FlushAndClose(lock, it);
            break;
        }
      }
      processing_ = false;
      if (queue_.empty()) drained_.notify_all();
    }
  }

  const ServiceOptions options_;
  SessionCore core_;

  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::condition_variable drained_;
  std::condition_variable shutdown_cv_;
  std::deque<Task> queue_;
  std::unordered_map<int64_t, Client> clients_;
  int64_t next_client_ = 0;
  int64_t clients_opened_ = 0;
  int64_t responses_ = 0;
  int64_t queue_peak_ = 0;
  bool processing_ = false;
  bool stopping_ = false;
  bool shutdown_requested_ = false;
  std::thread sequencer_;
};

SafetyService::SafetyService(const ServiceOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

SafetyService::~SafetyService() = default;

int64_t SafetyService::OpenClient(Respond respond, OnClose on_close) {
  return impl_->OpenClient(std::move(respond), std::move(on_close));
}

void SafetyService::Submit(int64_t client, const std::string& line) {
  impl_->Submit(client, line);
}

void SafetyService::CloseClient(int64_t client) {
  impl_->CloseClient(client);
}

void SafetyService::Drain() { impl_->Drain(); }

void SafetyService::Shutdown() { impl_->Shutdown(); }

bool SafetyService::ShutdownRequested() const {
  return impl_->ShutdownRequested();
}

void SafetyService::WaitForShutdownRequest() {
  impl_->WaitForShutdownRequest();
}

int64_t SafetyService::commands() const { return impl_->commands(); }
int64_t SafetyService::checks() const { return impl_->checks(); }
int64_t SafetyService::responses() const { return impl_->responses(); }
int SafetyService::errors() const { return impl_->errors(); }
int64_t SafetyService::clients_opened() const {
  return impl_->clients_opened();
}
int64_t SafetyService::queue_peak() const { return impl_->queue_peak(); }

void SafetyService::ExportStats(obs::StatsSink* sink) {
  impl_->ExportStats(sink);
}

}  // namespace serve
}  // namespace dislock
