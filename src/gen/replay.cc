#include "gen/replay.h"

#include <mutex>

#include "core/incremental/session_core.h"
#include "serve/service.h"

namespace dislock {
namespace gen {

namespace {

SessionOptions MakeSessionOptions(const ReplayOptions& options) {
  SessionOptions session;
  session.json = true;
  session.config = options.config;
  session.config.num_threads = options.threads;
  return session;
}

}  // namespace

ReplayResult ReplayDirect(const Trace& trace, const ReplayOptions& options) {
  SessionCore core(MakeSessionOptions(options));
  CommandAssembler assembler(&core);
  ReplayResult result;
  for (const std::string& record : trace.records) {
    CommandAssembler::Step step = assembler.Consume(record);
    if (step.response.has_value()) result.output += *step.response;
    if (step.quit) break;
    if (step.command.has_value()) {
      result.output += core.Execute(*step.command).response;
    }
  }
  if (auto tail = assembler.Finish()) result.output += *tail;
  result.commands = core.commands();
  result.checks = core.checks();
  result.errors = core.errors();
  return result;
}

ReplayResult ReplayService(const Trace& trace, const ReplayOptions& options) {
  serve::ServiceOptions service_options;
  service_options.session = MakeSessionOptions(options);
  serve::SafetyService service(service_options);
  std::mutex mu;
  std::string output;
  int64_t client = service.OpenClient([&](const std::string& text) {
    std::lock_guard<std::mutex> lock(mu);
    output += text;
  });
  for (const std::string& record : trace.records) {
    service.Submit(client, record);
  }
  service.CloseClient(client);
  service.Drain();
  ReplayResult result;
  result.commands = service.commands();
  result.checks = service.checks();
  result.errors = service.errors();
  {
    std::lock_guard<std::mutex> lock(mu);
    result.output = std::move(output);
  }
  service.Shutdown();
  return result;
}

VerifyResult VerifyReplay(const Trace& trace,
                          const std::vector<int>& threads_grid) {
  ReplayResult reference = ReplayDirect(trace, ReplayOptions());
  VerifyResult result;
  auto add_cell = [&](const char* transport, int threads,
                      const ReplayResult& got) {
    VerifyCell cell;
    cell.transport = transport;
    cell.threads = threads;
    cell.identical = got.output == reference.output;
    cell.errors = got.errors;
    result.ok = result.ok && cell.identical && cell.errors == reference.errors;
    result.cells.push_back(cell);
  };
  for (int threads : threads_grid) {
    ReplayOptions options;
    options.threads = threads;
    if (threads != 1) add_cell("direct", threads, ReplayDirect(trace, options));
    add_cell("service", threads, ReplayService(trace, options));
  }
  return result;
}

}  // namespace gen
}  // namespace dislock
