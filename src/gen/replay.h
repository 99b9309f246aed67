#ifndef DISLOCK_GEN_REPLAY_H_
#define DISLOCK_GEN_REPLAY_H_

#include <string>
#include <vector>

#include "core/decision/config.h"
#include "gen/trace.h"

namespace dislock {
namespace gen {

/// How to drive a trace. `threads` mirrors the session flag; `config`
/// carries everything else (budgets, cache, store, obs hooks).
struct ReplayOptions {
  int threads = 1;
  EngineConfig config;
};

/// One replay's outcome. `output` is every response byte in order — the
/// session JSON-lines protocol, diffable against any other transport.
struct ReplayResult {
  std::string output;
  int64_t commands = 0;
  int64_t checks = 0;
  int errors = 0;
};

/// Replays through a SessionCore directly (the in-process fast path: one
/// CommandAssembler, one Execute per record). This is the reference
/// replay every other transport is byte-compared against.
ReplayResult ReplayDirect(const Trace& trace, const ReplayOptions& options);

/// Replays through an in-process serve::SafetyService — the exact
/// object `dislock_serve` wraps in its TCP accept loop, minus the
/// sockets: one client, global arrival order, sequencer thread.
ReplayResult ReplayService(const Trace& trace, const ReplayOptions& options);

/// One cell of a verification grid: a transport ("direct" or "service")
/// at a thread count.
struct VerifyCell {
  std::string transport;
  int threads = 0;
  bool identical = false;
  int errors = 0;
};

/// Result of VerifyReplay: `ok` iff every cell's full output is
/// byte-identical to the direct 1-thread replay and every cell failed
/// exactly as many commands as that reference.
struct VerifyResult {
  bool ok = true;
  std::vector<VerifyCell> cells;
};

/// The byte-identity gate: replays the trace directly at 1 thread, then
/// through the in-process service at every grid thread count and directly
/// at every other one, comparing every response byte. The tests, `dislock
/// replay --verify`, and `dislock_bench --bench=trace` all run this one
/// gate.
VerifyResult VerifyReplay(const Trace& trace,
                          const std::vector<int>& threads_grid = {1, 4});

}  // namespace gen
}  // namespace dislock

#endif  // DISLOCK_GEN_REPLAY_H_
