#ifndef DISLOCK_CORE_INCREMENTAL_SESSION_H_
#define DISLOCK_CORE_INCREMENTAL_SESSION_H_

#include <functional>
#include <iosfwd>
#include <string>

#include "core/decision/config.h"

namespace dislock {

class CatalogSnapshot;

/// Hook the `analyze` session command calls on the current catalog
/// snapshot. Returns the rendered analysis — DiagnosticsToText when `json`
/// is false, DiagnosticsToJson otherwise. Injected (rather than called
/// directly) because the pass framework lives in the analysis layer, above
/// this one; analysis/analyzer.h provides MakeSessionAnalyzer().
using SessionAnalyzeFn = std::function<std::string(
    const CatalogSnapshot& snapshot, const EngineConfig& config, bool json)>;

/// Options for `dislock session` (tools/dislock_cli.cc).
struct SessionOptions {
  /// Emit one JSON object per command instead of human-readable text.
  bool json = false;
  /// When non-empty, relative `load` paths are resolved against this
  /// directory (tests use it to run scripts from any working directory).
  std::string load_root;
  /// Engine configuration (num_threads 0 = one worker per hardware
  /// thread, enable_cache, cycle budget, ...). `config.trace` drives the
  /// per-command "session.command" spans; `config.stats`, when set,
  /// receives the session counters (session.commands / session.checks /
  /// session.errors) plus per-check report stats when the run ends.
  /// Neither ever affects session output.
  EngineConfig config;
  /// Handler for the `analyze` command; when unset, `analyze` reports an
  /// error explaining that the front end did not wire the analyzer in.
  SessionAnalyzeFn analyze;
  /// Command lines longer than this many bytes draw a structured error
  /// instead of reaching the parser (and abort any open txn block);
  /// 0 disables the limit.
  size_t max_line_bytes = 1 << 20;
};

/// The interactive / scripted front end of the incremental engine: reads
/// line-oriented commands from `in`, maintains a TransactionCatalog and an
/// IncrementalSafetyEngine, and writes one response per command to `out`.
///
/// Commands:
///   load <path>        parse a system file; (re)initializes the catalog
///   system             (JSON envelope only) full system text inline in the
///                      envelope's "block"; (re)initializes like load. Trace
///                      replay (src/gen/) uses this so a .dlt file is
///                      self-contained.
///   add                followed by a `txn <name> ... end` block: add it
///   remove <name>      remove the named transaction
///   replace <name>     followed by a `txn ... end` block: swap the
///                      definition in place (id and slot preserved; the
///                      block may rename)
///   check              incremental safety analysis of the current catalog
///   analyze            full pass diagnostics (via SessionOptions::analyze)
///   list               live transactions with their ids
///   stats              generation, store sizes, cumulative reuse totals
///   help               command summary
///   quit | exit        stop (EOF also stops)
/// Blank lines and `#` comments are ignored. A failed command prints
/// `error: ...` (or {"ok": false, ...} in JSON mode) and the session
/// continues; the catalog is unchanged by failed commands.
///
/// Output in both modes is deterministic (golden-tested) at any thread
/// count — it surfaces only report fields, which carry the engine's
/// determinism guarantee.
///
/// Returns the number of failed commands (0 = clean run).
int RunSession(std::istream& in, std::ostream& out,
               const SessionOptions& options);

}  // namespace dislock

#endif  // DISLOCK_CORE_INCREMENTAL_SESSION_H_
