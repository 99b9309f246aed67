#ifndef DISLOCK_SERVE_SERVICE_H_
#define DISLOCK_SERVE_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/incremental/session.h"

namespace dislock {

namespace obs {
class StatsSink;
}  // namespace obs

namespace serve {

/// Configuration of one SafetyService. The wire protocol is the session
/// JSON-lines protocol verbatim (session.json is forced on), so any session
/// option — engine config, load_root, max_line_bytes — applies.
struct ServiceOptions {
  SessionOptions session;
};

/// The transport-independent heart of `dislock_serve`: multiplexes any
/// number of concurrent clients onto one shared SessionCore.
///
/// Concurrency model — one global arrival-order queue, one sequencer.
/// Connection threads call Submit(), which runs that client's
/// CommandAssembler (block collection, JSON envelope decoding, structural
/// errors) and enqueues the resulting work; a single sequencer thread
/// executes commands strictly in arrival order and delivers every response
/// through the owning client's callback. Consequences:
///   * per-client command order is submission order (a client's lines are
///     fed by its one reader thread);
///   * responses to one client never interleave or reorder;
///   * a trace submitted in a fixed global order yields byte-identical
///     responses at any thread count — the determinism the serve tests
///     pin. Check() still fans out internally over the engine's pool, so
///     sequencing commands does not serialize the analysis work itself.
///
/// Shutdown protocol: the `shutdown` verb (a serve-level extension; plain
/// sessions reject it) answers ok, then flips ShutdownRequested() — the
/// accept loop watches that flag, stops accepting, and calls Shutdown(),
/// which drains the queue and joins the sequencer. `quit` closes only the
/// issuing client's connection (graceful per-client close).
class SafetyService {
 public:
  /// Delivers one rendered response (text written verbatim to the client).
  using Respond = std::function<void(const std::string&)>;
  /// Client teardown signal: the service is done with this client (quit
  /// processed, or CloseClient drained); the transport should close.
  using OnClose = std::function<void()>;

  explicit SafetyService(const ServiceOptions& options);
  ~SafetyService();

  SafetyService(const SafetyService&) = delete;
  SafetyService& operator=(const SafetyService&) = delete;

  /// Registers a client; callbacks fire on the sequencer thread only.
  int64_t OpenClient(Respond respond, OnClose on_close = nullptr);

  /// Feeds one raw input line from `client` (no trailing newline).
  /// Thread-safe across clients; a single client's lines must come from
  /// one thread (its reader). Lines submitted after Shutdown() or to a
  /// closed client are dropped.
  void Submit(int64_t client, const std::string& line);

  /// End of the client's input (EOF): flushes the structured
  /// unterminated-block error if a txn block was open, then signals
  /// OnClose once everything queued for this client has drained.
  void CloseClient(int64_t client);

  /// Blocks until the queue is empty and the sequencer is idle.
  void Drain();

  /// Stops intake, drains, and joins the sequencer. Idempotent; the
  /// destructor calls it.
  void Shutdown();

  /// True once a client has issued the `shutdown` command.
  bool ShutdownRequested() const;
  /// Blocks until ShutdownRequested() (the server's accept loop uses a
  /// polling variant; this one serves in-process embeddings and tests).
  void WaitForShutdownRequest();

  // Service-level counters (monotone, safe to read any time).
  int64_t commands() const;   ///< commands executed (SessionCore counter)
  int64_t checks() const;     ///< `check` commands run (SessionCore counter)
  int64_t responses() const;  ///< response payloads delivered
  int errors() const;         ///< failed commands (SessionCore counter)
  int64_t clients_opened() const;
  /// Most tasks ever waiting for the sequencer at once. A task is one raw
  /// input line (every line of an add/replace block counts) or one client
  /// close, so the peak can exceed the number of commands.
  int64_t queue_peak() const;

  /// Pours the serve.* counters and gauges into `sink`.
  void ExportStats(obs::StatsSink* sink);

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace serve
}  // namespace dislock

#endif  // DISLOCK_SERVE_SERVICE_H_
