#include "core/incremental/session_core.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>

#include "cache/verdict_store.h"
#include "core/decision/context.h"
#include "core/incremental/engine.h"
#include "core/report.h"
#include "core/stats_export.h"
#include "core/wire_keys.h"
#include "obs/json.h"
#include "obs/stats_sink.h"
#include "obs/trace.h"
#include "txn/catalog.h"
#include "txn/text_format.h"
#include "util/string_util.h"

namespace dislock {

namespace {

std::string StripComment(const std::string& line) {
  size_t hash = line.find('#');
  return Trim(hash == std::string::npos ? line : line.substr(0, hash));
}

std::string Quoted(const std::string& s) {
  return StrCat("\"", JsonEscape(s), "\"");
}

/// Every JSON line the session emits is individually versioned — the
/// line protocol has no enclosing document to carry the version.
std::string LineOpen() {
  return StrCat("{\"", wire::kSchemaVersionKey,
                "\": ", std::to_string(wire::kSchemaVersion), ", ");
}

constexpr char kHelp[] =
    "commands:\n"
    "  load <path>      parse a system file; (re)initializes the catalog\n"
    "  system           (JSON envelope only) inline system text in the\n"
    "                   \"block\"; (re)initializes the catalog like load\n"
    "  add              followed by a 'txn <name> ... end' block\n"
    "  remove <name>    remove the named transaction\n"
    "  replace <name>   followed by a 'txn ... end' block\n"
    "  check            incremental safety analysis\n"
    "  analyze          full pass diagnostics on the current snapshot\n"
    "  list             live transactions with their ids\n"
    "  stats            generation, store sizes, reuse totals (and the\n"
    "                   persistent verdict-cache counters when a store is\n"
    "                   attached)\n"
    "  help             this summary\n"
    "  quit | exit      stop\n";

// ---- Minimal JSON envelope decoding ---------------------------------------
// The input was already accepted by obs::IsValidJson, so these scanners can
// assume well-formed syntax and only extract / reject by shape.

size_t SkipWs(const std::string& s, size_t i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                          s[i] == '\r')) {
    ++i;
  }
  return i;
}

/// Decodes the escaped content of a JSON string starting at the opening
/// quote `s[i]`; advances `i` past the closing quote. Returns false only
/// for escapes IsValidJson accepts but we cannot represent (lone
/// surrogates).
bool DecodeJsonString(const std::string& s, size_t* i, std::string* out) {
  ++*i;  // opening quote
  while (s[*i] != '"') {
    if (s[*i] != '\\') {
      out->push_back(s[*i]);
      ++*i;
      continue;
    }
    ++*i;
    char e = s[*i];
    ++*i;
    switch (e) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        auto hex4 = [&s](size_t at) {
          uint32_t v = 0;
          for (int k = 0; k < 4; ++k) {
            char c = s[at + static_cast<size_t>(k)];
            v <<= 4;
            if (c >= '0' && c <= '9') v |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f') v |= static_cast<uint32_t>(c - 'a' + 10);
            else v |= static_cast<uint32_t>(c - 'A' + 10);
          }
          return v;
        };
        uint32_t cp = hex4(*i);
        *i += 4;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          if (*i + 6 <= s.size() && s[*i] == '\\' && s[*i + 1] == 'u') {
            uint32_t lo = hex4(*i + 2);
            if (lo >= 0xDC00 && lo <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              *i += 6;
            } else {
              return false;
            }
          } else {
            return false;
          }
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          return false;
        }
        if (cp < 0x80) {
          out->push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
          out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
          out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
          out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
          out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
        break;
      }
      default: return false;  // unreachable on validated input
    }
  }
  ++*i;  // closing quote
  return true;
}

/// Extracts the cmd/arg/block strings from a validated top-level JSON
/// object. Rejects unknown keys and non-string values for known keys, so a
/// misspelled envelope fails loudly instead of silently dropping fields.
Status DecodeEnvelope(const std::string& s, SessionCommand* out) {
  size_t i = SkipWs(s, 0);
  ++i;  // '{'
  i = SkipWs(s, i);
  if (s[i] == '}') return Status::InvalidArgument(
      "JSON command line is missing \"cmd\"");
  bool have_cmd = false;
  for (;;) {
    i = SkipWs(s, i);
    std::string key;
    if (!DecodeJsonString(s, &i, &key)) {
      return Status::InvalidArgument("invalid escape in JSON command key");
    }
    i = SkipWs(s, i);
    ++i;  // ':'
    i = SkipWs(s, i);
    std::string* dest = nullptr;
    if (key == "cmd") {
      dest = &out->verb;
      have_cmd = true;
    } else if (key == "arg") {
      dest = &out->arg;
    } else if (key == "block") {
      dest = &out->block;
    } else {
      return Status::InvalidArgument(
          StrCat("unknown JSON command key '", key, "'"));
    }
    if (s[i] != '"') {
      return Status::InvalidArgument(
          StrCat("JSON command key \"", key, "\" must be a string"));
    }
    if (!DecodeJsonString(s, &i, dest)) {
      return Status::InvalidArgument(
          StrCat("invalid escape in JSON command key \"", key, "\""));
    }
    i = SkipWs(s, i);
    if (s[i] == ',') {
      ++i;
      continue;
    }
    break;  // '}'
  }
  if (!have_cmd) {
    return Status::InvalidArgument("JSON command line is missing \"cmd\"");
  }
  return Status::OK();
}

}  // namespace

/// Everything one loaded system carries: the database (kept alive for the
/// catalog), the catalog, and the one engine watching it.
struct SessionCore::Backend {
  std::shared_ptr<DistributedDatabase> db;
  std::unique_ptr<TransactionCatalog> catalog;
  std::unique_ptr<EngineContext> ctx;
  std::unique_ptr<IncrementalSafetyEngine> engine;
};

class SessionCore::Impl {
 public:
  explicit Impl(const SessionOptions& options) : options_(options) {}

  Outcome Execute(const SessionCommand& cmd) {
    std::lock_guard<std::mutex> lock(mu_);
    Outcome out;
    ++commands_;
    std::ostringstream os;
    Status st;
    {
      obs::TraceSpan span(options_.config.trace, wire::kSpanSessionCommand);
      st = Dispatch(cmd, os);
    }
    if (!st.ok()) {
      ++errors_;
      out.failed = true;
      out.response = RenderErrorLocked(cmd.verb, st.message());
    } else {
      out.response = os.str();
    }
    return out;
  }

  bool StartsBlock(const std::string& verb, const std::string& arg,
                   std::string* error) const {
    error->clear();
    if (verb != "add" && verb != "replace") return false;
    std::lock_guard<std::mutex> lock(mu_);
    if (!Loaded()) {
      *error = "no system loaded (use: load <path>)";
      return false;
    }
    if (verb == "replace") {
      std::istringstream as(arg);
      std::string name;
      as >> name;
      if (name.empty()) {
        *error = "usage: replace <name>, then a txn block";
        return false;
      }
    }
    return true;
  }

  std::string RenderErrorResponse(const std::string& verb,
                                  const std::string& message) {
    std::lock_guard<std::mutex> lock(mu_);
    ++commands_;
    ++errors_;
    return RenderErrorLocked(verb, message);
  }

  int64_t commands() const {
    std::lock_guard<std::mutex> lock(mu_);
    return commands_;
  }
  int64_t checks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return checks_;
  }
  int errors() const {
    std::lock_guard<std::mutex> lock(mu_);
    return errors_;
  }

  void ExportSessionStats() {
    std::lock_guard<std::mutex> lock(mu_);
    if (obs::StatsSink* sink = options_.config.stats) {
      sink->AddCounter(wire::kMetricSessionCommands, commands_);
      sink->AddCounter(wire::kMetricSessionChecks, checks_);
      sink->AddCounter(wire::kMetricSessionErrors, errors_);
    }
  }

 private:
  bool Loaded() const {
    return state_.catalog != nullptr;
  }

  std::string RenderErrorLocked(const std::string& verb,
                                const std::string& message) const {
    if (options_.json) {
      return StrCat(LineOpen(), "\"cmd\": ", Quoted(verb),
                    ", \"ok\": false, \"error\": ", Quoted(message), "}\n");
    }
    return StrCat("error: ", message, "\n");
  }

  Status Dispatch(const SessionCommand& cmd, std::ostringstream& out) {
    const std::string& verb = cmd.verb;
    if (verb == "load") return Load(cmd, out);
    if (verb == "system") return System(cmd, out);
    if (verb == "add") return Add(cmd, out);
    if (verb == "remove") return Remove(cmd, out);
    if (verb == "replace") return Replace(cmd, out);
    if (verb == "check") return Check(out);
    if (verb == "analyze") return Analyze(out);
    if (verb == "list") return List(out);
    if (verb == "stats") return Stats(out);
    if (verb == "help") {
      if (options_.json) {
        out << LineOpen() << "\"cmd\": \"help\", \"ok\": true}\n";
      } else {
        out << kHelp;
      }
      return Status::OK();
    }
    return Status::InvalidArgument(
        StrCat("unknown command '", verb, "' (try 'help')"));
  }

  Status RequireLoaded() const {
    if (!Loaded()) {
      return Status::InvalidArgument("no system loaded (use: load <path>)");
    }
    return Status::OK();
  }

  std::string FirstToken(const std::string& arg) const {
    std::istringstream as(arg);
    std::string tok;
    as >> tok;
    return tok;
  }

  /// (Re)initializes the backend from a parsed system — the shared tail of
  /// `load` and `system`. On error the previous backend stays live.
  Status InitBackend(const ParsedSystem& parsed) {
    Backend state;
    state.db = parsed.db;
    state.catalog = std::make_unique<TransactionCatalog>(state.db.get());
    for (int i = 0; i < parsed.system->NumTransactions(); ++i) {
      auto id = state.catalog->Add(parsed.system->txn(i));
      if (!id.ok()) return id.status();
    }
    state.ctx = std::make_unique<EngineContext>(options_.config);
    state.engine = std::make_unique<IncrementalSafetyEngine>(
        state.catalog.get(), state.ctx.get());
    state_ = std::move(state);
    return Status::OK();
  }

  Status Load(const SessionCommand& cmd, std::ostringstream& out) {
    std::string path = FirstToken(cmd.arg);
    if (path.empty()) return Status::InvalidArgument("usage: load <path>");
    std::string resolved = path;
    if (!options_.load_root.empty() && path[0] != '/') {
      resolved = StrCat(options_.load_root, "/", path);
    }
    std::ifstream file(resolved);
    if (!file) return Status::NotFound(StrCat("cannot open ", path));
    std::ostringstream text;
    text << file.rdbuf();
    auto parsed = ParseSystemText(text.str());
    if (!parsed.ok()) return parsed.status();
    DISLOCK_RETURN_NOT_OK(InitBackend(*parsed));

    if (options_.json) {
      out << LineOpen() << "\"cmd\": \"load\", \"ok\": true, \"path\": "
          << Quoted(path)
          << ", \"transactions\": " << state_.catalog->NumTransactions()
          << ", \"entities\": " << state_.db->NumEntities()
          << ", \"sites\": " << state_.db->NumSites() << "}\n";
    } else {
      out << "loaded " << path << ": " << state_.catalog->NumTransactions()
          << " transactions, " << state_.db->NumEntities()
          << " entities over " << state_.db->NumSites() << " sites\n";
    }
    return Status::OK();
  }

  /// `system`: like `load`, but the full .dlk text arrives inline in the
  /// JSON envelope's "block" — the self-contained form trace replay uses,
  /// so a committed .dlt never depends on a file path existing. JSON-only:
  /// the text-mode block collector stops at the first `end` line, which
  /// would truncate a multi-transaction system.
  Status System(const SessionCommand& cmd, std::ostringstream& out) {
    if (cmd.block.empty()) {
      return Status::InvalidArgument(
          "system requires an inline system \"block\" (JSON envelope only)");
    }
    auto parsed = ParseSystemText(cmd.block);
    if (!parsed.ok()) return parsed.status();
    DISLOCK_RETURN_NOT_OK(InitBackend(*parsed));

    if (options_.json) {
      out << LineOpen() << "\"cmd\": \"system\", \"ok\": true, "
          << "\"transactions\": " << state_.catalog->NumTransactions()
          << ", \"entities\": " << state_.db->NumEntities()
          << ", \"sites\": " << state_.db->NumSites() << "}\n";
    } else {
      out << "system: " << state_.catalog->NumTransactions()
          << " transactions, " << state_.db->NumEntities() << " entities over "
          << state_.db->NumSites() << " sites\n";
    }
    return Status::OK();
  }

  Status Add(const SessionCommand& cmd, std::ostringstream& out) {
    DISLOCK_RETURN_NOT_OK(RequireLoaded());
    if (cmd.block.empty()) {
      return Status::InvalidArgument("unterminated txn block (missing 'end')");
    }
    auto txn = ParseTransactionText(cmd.block, *state_.db);
    if (!txn.ok()) return txn.status();
    std::string name = txn->name();
    Result<TxnId> id = state_.catalog->Add(std::move(txn).value());
    if (!id.ok()) return id.status();
    if (options_.json) {
      out << LineOpen() << "\"cmd\": \"add\", \"ok\": true, \"name\": "
          << Quoted(name) << ", \"id\": " << *id << "}\n";
    } else {
      out << "added " << name << " (id " << *id << ")\n";
    }
    return Status::OK();
  }

  Status Remove(const SessionCommand& cmd, std::ostringstream& out) {
    DISLOCK_RETURN_NOT_OK(RequireLoaded());
    std::string name = FirstToken(cmd.arg);
    if (name.empty()) return Status::InvalidArgument("usage: remove <name>");
    DISLOCK_RETURN_NOT_OK(state_.catalog->RemoveByName(name));
    if (options_.json) {
      out << LineOpen() << "\"cmd\": \"remove\", \"ok\": true, \"name\": "
          << Quoted(name) << "}\n";
    } else {
      out << "removed " << name << "\n";
    }
    return Status::OK();
  }

  Status Replace(const SessionCommand& cmd, std::ostringstream& out) {
    DISLOCK_RETURN_NOT_OK(RequireLoaded());
    std::string name = FirstToken(cmd.arg);
    if (name.empty()) {
      return Status::InvalidArgument("usage: replace <name>, then a txn block");
    }
    if (cmd.block.empty()) {
      return Status::InvalidArgument("unterminated txn block (missing 'end')");
    }
    auto txn = ParseTransactionText(cmd.block, *state_.db);
    if (!txn.ok()) return txn.status();
    DISLOCK_RETURN_NOT_OK(
        state_.catalog->ReplaceByName(name, std::move(txn).value()));
    if (options_.json) {
      out << LineOpen() << "\"cmd\": \"replace\", \"ok\": true, \"name\": "
          << Quoted(name) << "}\n";
    } else {
      out << "replaced " << name << "\n";
    }
    return Status::OK();
  }

  Status Check(std::ostringstream& out) {
    DISLOCK_RETURN_NOT_OK(RequireLoaded());
    ++checks_;
    MultiSafetyReport report = state_.engine->Check();
    // Per-check report stats accumulate across the session (counters sum).
    ExportMultiReportStats(report, options_.config.stats);
    // Commands are serialized between Check and this render, so the
    // snapshot here has the dense order the report's indices refer to.
    CatalogSnapshot snap = state_.catalog->Snapshot();
    if (options_.json) {
      out << LineOpen() << "\"cmd\": \"check\", \"ok\": true, \"report\": "
          << MultiReportToJson(report, snap.View()) << "}\n";
      return Status::OK();
    }
    out << "verdict: " << SafetyVerdictName(report.verdict);
    if (report.failing_pair.has_value()) {
      out << " (failing pair: " << snap.txn(report.failing_pair->first).name()
          << ", " << snap.txn(report.failing_pair->second).name() << ")";
    } else if (!report.failing_cycle.empty()) {
      out << " (failing cycle:";
      for (size_t i = 0; i < report.failing_cycle.size(); ++i) {
        out << (i == 0 ? " " : " -> ")
            << snap.txn(report.failing_cycle[i]).name();
      }
      out << ")";
    }
    out << "\npairs: " << report.pairs_checked << " checked, "
        << report.pairs_cached << " cached; cycles: " << report.cycles_checked
        << " checked\n";
    const DeltaStats& d = *report.delta;
    out << "delta: ";
    if (d.full) {
      out << "full";
    } else {
      out << "+" << d.txns_added << " -" << d.txns_removed << " ~"
          << d.txns_replaced;
    }
    out << "; pairs " << d.pairs_recomputed << " recomputed, "
        << d.pairs_reused << " reused; cycles " << d.cycles_recomputed
        << " recomputed, " << d.cycles_reused << " reused\n";
    return Status::OK();
  }

  Status Analyze(std::ostringstream& out) {
    DISLOCK_RETURN_NOT_OK(RequireLoaded());
    if (!options_.analyze) {
      return Status::InvalidArgument(
          "analyze is not available: no analyzer wired into this session");
    }
    CatalogSnapshot snap = state_.catalog->Snapshot();
    std::string body = options_.analyze(snap, options_.config, options_.json);
    if (options_.json) {
      // `body` is already a JSON object; embed it verbatim.
      out << LineOpen() << "\"cmd\": \"analyze\", \"ok\": true, "
          << "\"analysis\": " << body << "}\n";
    } else {
      out << body;
    }
    return Status::OK();
  }

  Status List(std::ostringstream& out) {
    DISLOCK_RETURN_NOT_OK(RequireLoaded());
    CatalogSnapshot snap = state_.catalog->Snapshot();
    if (options_.json) {
      out << LineOpen() << "\"cmd\": \"list\", \"ok\": true, "
          << "\"transactions\": [";
      for (int i = 0; i < snap.NumTransactions(); ++i) {
        if (i > 0) out << ", ";
        out << "{\"id\": " << snap.id(i)
            << ", \"name\": " << Quoted(snap.txn(i).name()) << "}";
      }
      out << "]}\n";
      return Status::OK();
    }
    for (int i = 0; i < snap.NumTransactions(); ++i) {
      out << "[" << snap.id(i) << "] " << snap.txn(i).name() << "\n";
    }
    return Status::OK();
  }

  Status Stats(std::ostringstream& out) {
    DISLOCK_RETURN_NOT_OK(RequireLoaded());
    const EngineTotals& t = state_.engine->totals();
    if (options_.json) {
      out << LineOpen() << "\"cmd\": \"stats\", \"ok\": true, "
          << "\"generation\": " << state_.catalog->generation()
          << ", \"transactions\": " << state_.catalog->NumTransactions()
          << ", \"checks\": " << t.checks
          << ", \"pair_store\": " << state_.engine->PairStoreSize()
          << ", \"cycle_store\": " << state_.engine->CycleStoreSize()
          << ", \"totals\": {\"pairs_reused\": " << t.pairs_reused
          << ", \"pairs_recomputed\": " << t.pairs_recomputed
          << ", \"cycles_reused\": " << t.cycles_reused
          << ", \"cycles_recomputed\": " << t.cycles_recomputed << "}";
      // The cache block appears exactly when a persistent store is
      // attached, so sessions without one keep their historical bytes.
      if (const cache::VerdictStore* store = options_.config.store) {
        cache::VerdictStore::Stats cs = store->stats();
        out << ", \"" << wire::kCache << "\": {\"" << wire::kDiskHits
            << "\": " << cs.disk_hits << ", \"" << wire::kDiskMisses
            << "\": " << cs.disk_misses << ", \"" << wire::kRecordsLoaded
            << "\": " << cs.records_loaded << ", \""
            << wire::kRecordsFlushed << "\": " << cs.records_flushed
            << ", \"" << wire::kRecordsDropped
            << "\": " << cs.records_dropped << ", \"" << wire::kDiskRecords
            << "\": " << store->disk_records() << ", \""
            << wire::kCacheFileGeneration << "\": " << store->generation()
            << "}";
      }
      out << "}\n";
      return Status::OK();
    }
    out << "generation: " << state_.catalog->generation()
        << "\ntransactions: " << state_.catalog->NumTransactions()
        << "\nchecks: " << t.checks
        << "\npair store: " << state_.engine->PairStoreSize()
        << "; cycle store: " << state_.engine->CycleStoreSize()
        << "\ntotals: pairs " << t.pairs_recomputed << " recomputed, "
        << t.pairs_reused << " reused; cycles " << t.cycles_recomputed
        << " recomputed, " << t.cycles_reused << " reused\n";
    if (const cache::VerdictStore* store = options_.config.store) {
      cache::VerdictStore::Stats cs = store->stats();
      out << "persistent cache: " << cs.disk_hits << " disk hits, "
          << cs.disk_misses << " disk misses; " << store->disk_records()
          << " records on disk (" << cs.records_loaded << " loaded, "
          << cs.records_flushed << " flushed, " << cs.records_dropped
          << " dropped; generation " << store->generation() << ")\n";
    }
    return Status::OK();
  }

  const SessionOptions& options_;
  mutable std::mutex mu_;
  Backend state_;
  int64_t commands_ = 0;
  int64_t checks_ = 0;
  int errors_ = 0;
};

SessionCore::SessionCore(const SessionOptions& options)
    : options_(options), impl_(std::make_unique<Impl>(options_)) {}

SessionCore::~SessionCore() = default;

SessionCore::Outcome SessionCore::Execute(const SessionCommand& cmd) {
  return impl_->Execute(cmd);
}

bool SessionCore::StartsBlock(const std::string& verb, const std::string& arg,
                              std::string* error) const {
  return impl_->StartsBlock(verb, arg, error);
}

std::string SessionCore::RenderErrorResponse(const std::string& verb,
                                             const std::string& message) {
  return impl_->RenderErrorResponse(verb, message);
}

int64_t SessionCore::commands() const { return impl_->commands(); }
int64_t SessionCore::checks() const { return impl_->checks(); }
int SessionCore::errors() const { return impl_->errors(); }

void SessionCore::ExportSessionStats() { impl_->ExportSessionStats(); }

// ---- CommandAssembler -----------------------------------------------------

CommandAssembler::Step CommandAssembler::Consume(const std::string& raw) {
  Step step;
  const size_t max_line = core_->options().max_line_bytes;
  if (max_line > 0 && raw.size() > max_line) {
    std::string message = StrCat("oversized command line (", raw.size(),
                                 " bytes; limit ", max_line, ")");
    if (collecting_) {
      // Abandon the open block: a lost line would silently corrupt the
      // transaction, so the whole add/replace fails structurally.
      std::string verb = pending_.verb;
      collecting_ = false;
      pending_ = SessionCommand();
      step.response = core_->RenderErrorResponse(
          verb, StrCat(message, " inside txn block"));
      return step;
    }
    step.response = core_->RenderErrorResponse("input", message);
    return step;
  }
  if (collecting_) {
    pending_.block += raw;
    pending_.block += '\n';
    if (StripComment(raw) == "end") {
      collecting_ = false;
      step.command = std::move(pending_);
      pending_ = SessionCommand();
    }
    return step;
  }
  std::string trimmed = Trim(raw);
  if (!trimmed.empty() && trimmed[0] == '{') return JsonLine(trimmed);
  std::string line = StripComment(raw);
  if (line.empty()) return step;
  std::istringstream cmd(line);
  std::string verb;
  cmd >> verb;
  if (verb == "quit" || verb == "exit") {
    step.quit = true;
    return step;
  }
  std::string arg;
  std::getline(cmd, arg);
  SessionCommand c;
  c.verb = verb;
  c.arg = arg;
  std::string error;
  if (core_->StartsBlock(verb, arg, &error)) {
    collecting_ = true;
    pending_ = std::move(c);
    return step;
  }
  if (!error.empty()) {
    step.response = core_->RenderErrorResponse(verb, error);
    return step;
  }
  step.command = std::move(c);
  return step;
}

CommandAssembler::Step CommandAssembler::JsonLine(const std::string& line) {
  Step step;
  std::string jerr;
  if (!obs::IsValidJson(line, &jerr)) {
    step.response = core_->RenderErrorResponse(
        "input", StrCat("invalid JSON command line: ", jerr));
    return step;
  }
  SessionCommand cmd;
  Status decoded = DecodeEnvelope(line, &cmd);
  if (!decoded.ok()) {
    step.response = core_->RenderErrorResponse("input", decoded.message());
    return step;
  }
  if (cmd.verb == "quit" || cmd.verb == "exit") {
    step.quit = true;
    return step;
  }
  if (!cmd.block.empty() && cmd.verb != "add" && cmd.verb != "replace" &&
      cmd.verb != "system") {
    step.response = core_->RenderErrorResponse(
        cmd.verb, StrCat("JSON command '", cmd.verb,
                         "' does not take a \"block\""));
    return step;
  }
  if ((cmd.verb == "add" || cmd.verb == "replace") && cmd.block.empty()) {
    step.response = core_->RenderErrorResponse(
        cmd.verb,
        StrCat("JSON command '", cmd.verb, "' requires a \"block\""));
    return step;
  }
  step.command = std::move(cmd);
  return step;
}

std::optional<std::string> CommandAssembler::Finish() {
  if (!collecting_) return std::nullopt;
  std::string verb = pending_.verb;
  collecting_ = false;
  pending_ = SessionCommand();
  return core_->RenderErrorResponse(
      verb, "unterminated txn block (missing 'end')");
}

}  // namespace dislock
