#ifndef DISLOCK_CORE_INCREMENTAL_SESSION_CORE_H_
#define DISLOCK_CORE_INCREMENTAL_SESSION_CORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/incremental/session.h"

namespace dislock {

class DistributedDatabase;
class EngineContext;
class IncrementalSafetyEngine;
class TransactionCatalog;

/// One fully assembled session command: a verb, the remainder of the
/// command line, and — for add/replace — the accompanying `txn ... end`
/// block (raw lines joined with '\n', including the terminating `end`).
struct SessionCommand {
  std::string verb;
  std::string arg;
  std::string block;
};

/// The transport-agnostic core of `dislock session` / `dislock_serve`: it
/// owns the catalog and the one engine watching it, and turns one assembled
/// command into one rendered response — the byte-exact text or JSON-lines
/// output the stream REPL has always produced, now producible from any
/// transport.
/// The REPL (session.cc), the tests, and the serve layer (src/serve/)
/// all drive this one implementation.
///
/// Thread safety: every public method locks an internal mutex, so
/// connection threads may query assembly-time preconditions while a
/// sequencer thread executes. Commands themselves are serialized — one
/// Execute at a time — which is what makes a served trace deterministic;
/// Check() still parallelizes internally over the engine's pool.
class SessionCore {
 public:
  explicit SessionCore(const SessionOptions& options);
  ~SessionCore();

  SessionCore(const SessionCore&) = delete;
  SessionCore& operator=(const SessionCore&) = delete;

  struct Outcome {
    std::string response;  ///< rendered output, "" for silent success
    bool failed = false;
  };

  /// Executes one command and renders its response (never throws; any
  /// failure becomes the structured `error:` / {"ok": false} response and
  /// leaves the catalog unchanged).
  Outcome Execute(const SessionCommand& cmd);

  /// Assembly-time classification: true iff `verb` opens a `txn ... end`
  /// block here (add/replace with their preconditions met — mirroring the
  /// historical stream semantics, where e.g. `add` before `load` errors
  /// WITHOUT consuming the following lines). On a precondition failure
  /// returns false with `*error` set; on a plain non-block verb, false
  /// with `*error` empty.
  bool StartsBlock(const std::string& verb, const std::string& arg,
                   std::string* error) const;

  /// Renders (and counts) a failed command that never reached Execute —
  /// the assembler's structured errors: precondition failures, malformed
  /// JSON lines, oversized lines, EOF mid-block.
  std::string RenderErrorResponse(const std::string& verb,
                                  const std::string& message);

  const SessionOptions& options() const { return options_; }
  int64_t commands() const;
  int64_t checks() const;
  int errors() const;

  /// Pours session.commands/checks/errors into options().config.stats
  /// (the stream REPL calls this once at end-of-session).
  void ExportSessionStats();

 private:
  struct Backend;

  class Impl;
  const SessionOptions options_;  ///< declared first: Impl borrows it
  std::unique_ptr<Impl> impl_;
};

/// Per-input-stream (per-connection) command assembly: feeds raw lines in,
/// produces at most one ready command or one pre-rendered error response
/// per line, and tracks the pending-block state. Blank lines and `#`
/// comments are consumed silently; a line whose first non-space byte is
/// `{` is a JSON envelope ({"cmd": ..., "arg": ..., "block": ...}) and is
/// validated/decoded here. Not thread-safe — one assembler per stream,
/// driven by that stream's reader.
class CommandAssembler {
 public:
  explicit CommandAssembler(SessionCore* core) : core_(core) {}

  struct Step {
    std::optional<SessionCommand> command;  ///< ready to Execute
    std::optional<std::string> response;    ///< pre-rendered error output
    bool quit = false;                      ///< quit/exit seen
  };

  /// Consumes one raw input line (no trailing newline).
  Step Consume(const std::string& raw);

  /// End of stream: returns the structured unterminated-block error if a
  /// `txn ... end` block was still open, nullopt otherwise.
  std::optional<std::string> Finish();

  bool collecting() const { return collecting_; }

 private:
  Step JsonLine(const std::string& line);

  SessionCore* core_;
  bool collecting_ = false;
  SessionCommand pending_;
};

}  // namespace dislock

#endif  // DISLOCK_CORE_INCREMENTAL_SESSION_CORE_H_
