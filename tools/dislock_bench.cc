// Benchmark trajectory for the parallel safety engine: times
// AnalyzeMultiSafety serial vs parallel on the E11 ring/dense workloads,
// verifies the reports are bit-identical, measures the verdict-cache
// trajectory, and writes everything as JSON (BENCH_multi.json). A second
// table (BENCH_incremental.json) drives the incremental engine through a
// single-transaction edit stream, checks the invalidation bound
// (pairs_recomputed <= degree + 1 per edit) and incremental-vs-scratch
// report equality, and compares wall time.
//
//   dislock_bench [--quick] [--threads N] [--cache] [--reps N] [--out path]
//                 [--trace=FILE] [--metrics[=FILE]]
//
// Workloads come from the shared family registry (src/gen/family.h) — the
// same ring/dense definitions `dislock gen` emits as .dlt traces, so a
// bench row and a committed trace always describe the same system.
// --bench=trace generates every registered family at its defaults, times
// the direct replay, and runs the byte-identity gate (every response at
// {1,4} threads, direct and through the serve sequencer, vs the 1-thread
// direct replay), writing BENCH_trace.json.
//
// --threads defaults to 0 (one worker per hardware thread). Speedups are a
// property of the machine: on a single-core container parallel ≈ serial by
// construction; the deterministic-output check is meaningful everywhere.
// --cache additionally enables the engine-owned pair-verdict cache inside
// the timed runs (the dedicated cache-trajectory measurement always runs).
//
// Each workload row also carries per-stage DecisionPipeline timing columns
// (attempts/decided/work/wall_ms per stage, from the last timed serial
// run) — wall_ms lives only here, never in the report JSON, which stays
// deterministic.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/closure.h"
#include "core/conflict_graph.h"
#include "core/decision/context.h"
#include "core/incremental/engine.h"
#include "core/multi.h"
#include "core/policy.h"
#include "core/report.h"
#include "core/stats_export.h"
#include "cache/verdict_cache.h"
#include "cache/verdict_store.h"
#include "core/wire_keys.h"
#include "gen/family.h"
#include "gen/replay.h"
#include "gen/trace.h"
#include "graph/cycles.h"
#include "graph/dominator.h"
#include "graph/reachability.h"
#include "graph/scc.h"
#include "obs/observability.h"
#include "serve/service.h"
#include "sim/workload.h"
#include "txn/catalog.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace dislock {
namespace {

/// Builds a registered workload family (src/gen/family.h) — the bench's
/// only workload source, so every row regenerates from the same registry
/// as the committed .dlt traces. A bad family/params combination is a
/// programming error here, not an input error.
Workload BuildRegistered(const std::string& family,
                         const gen::ParamMap& overrides = {}) {
  auto w = gen::BuildFamily(family, overrides);
  DISLOCK_CHECK(w.ok());
  return std::move(w).value();
}

Workload MakeRingSystem(int k) {
  return BuildRegistered("ring", {{"k", static_cast<double>(k)}});
}

Workload MakeDenseSystem(int k, int entities) {
  return BuildRegistered("dense", {{"k", static_cast<double>(k)},
                                   {"entities",
                                    static_cast<double>(entities)}});
}

struct BenchCase {
  std::string name;
  std::string kind;
  int k = 0;
  Workload workload;
};

/// Per-stage bench columns. Unlike PipelineStatsToJson (deterministic
/// report data only), this includes the measured wall_ms.
std::string PipelineTimingJson(const PipelineStats& stats) {
  std::ostringstream out;
  out << "[";
  for (int s = 0; s < kNumDecisionStages; ++s) {
    const StageCounters& c = stats.stages[static_cast<size_t>(s)];
    if (s > 0) out << ", ";
    out << "{\"stage\": \"" << DecisionStageName(static_cast<DecisionStageId>(s))
        << "\", \"attempts\": " << c.attempts
        << ", \"decided\": " << c.decided << ", \"work\": " << c.work
        << ", \"wall_ms\": " << c.wall_ms << "}";
  }
  out << "]";
  return out.str();
}

double MinMs(const std::vector<double>& samples) {
  // min-of-reps: the standard way to strip scheduler noise from a
  // deterministic computation.
  double best = samples.front();
  for (double s : samples) best = std::min(best, s);
  return best;
}

template <typename Fn>
double TimeMs(int reps, const Fn& fn) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto stop = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return MinMs(samples);
}

template <typename Fn>
double OnceMs(const Fn& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// The edit-stream workload of the incremental engine: load a system into a
/// catalog, run one full Check, then stream single-transaction Replace
/// edits (each reverses the edited transaction's entity order — a real
/// definition change that leaves the conflict graph intact), re-Checking
/// after each. Measures incremental vs from-scratch wall time, verifies the
/// reports are identical (modulo the delta block), and verifies the
/// invalidation bound: per single-transaction edit,
/// pairs_recomputed <= degree_G(edited txn) + 1.
struct EditStreamRow {
  std::string name;
  int k = 0;
  int edits = 0;
  double incremental_ms = 0;  // summed over the edit stream
  double scratch_ms = 0;      // same edits re-analyzed from scratch
  int64_t max_pairs_recomputed = 0;
  int64_t degree_bound = 0;  // max over edits of degree(edited) + 1
  bool bound_ok = true;
  bool reports_identical = true;
  int64_t pairs_reused_total = 0;
  int64_t pairs_recomputed_total = 0;
};

EditStreamRow RunEditStream(const std::string& name, const Workload& base,
                            int edits, const MultiSafetyOptions& options) {
  EditStreamRow row;
  row.name = name;
  row.k = base.system->NumTransactions();
  row.edits = edits;

  TransactionCatalog catalog(base.db.get());
  std::vector<TxnId> ids;
  for (int i = 0; i < base.system->NumTransactions(); ++i) {
    auto id = catalog.Add(base.system->txn(i));
    DISLOCK_CHECK(id.ok());
    ids.push_back(*id);
  }
  EngineContext ctx(options);
  IncrementalSafetyEngine engine(&catalog, &ctx);
  engine.Check();  // the full first analysis; the stream measures steady state

  for (int e = 0; e < edits; ++e) {
    const int slot = e % row.k;
    // Reverse the entity order of the edited transaction: a definition
    // change (new steps, new precedences) over the same entity set.
    std::shared_ptr<const Transaction> old_txn = catalog.Find(ids[slot]);
    std::vector<EntityId> entities = old_txn->LockedEntities();
    if (e / row.k % 2 == 0) {
      std::reverse(entities.begin(), entities.end());
    }
    Transaction replacement = MakeTwoPhaseTransaction(
        base.db.get(), old_txn->name(), entities);
    DISLOCK_CHECK(catalog.Replace(ids[slot], std::move(replacement)).ok());

    MultiSafetyReport incr;
    row.incremental_ms += OnceMs([&] { incr = engine.Check(); });

    const DeltaStats& delta = *incr.delta;
    row.pairs_reused_total += delta.pairs_reused;
    row.pairs_recomputed_total += delta.pairs_recomputed;
    row.max_pairs_recomputed =
        std::max(row.max_pairs_recomputed, delta.pairs_recomputed);
    CatalogSnapshot snap = catalog.Snapshot();
    Digraph g = BuildTransactionConflictGraph(snap.View());
    int64_t degree =
        static_cast<int64_t>(g.OutNeighbors(slot).size());
    row.degree_bound = std::max(row.degree_bound, degree + 1);
    if (delta.pairs_recomputed > degree + 1) row.bound_ok = false;

    // From-scratch comparison run, under a fresh context with the same
    // config — the engine's equivalence contract.
    TransactionSystem scratch_system = snap.Materialize();
    MultiSafetyReport scratch;
    row.scratch_ms += OnceMs([&] {
      scratch = AnalyzeMultiSafety(scratch_system, options);
    });
    incr.delta.reset();
    if (MultiReportToJson(incr, snap.View()) !=
        MultiReportToJson(scratch, scratch_system)) {
      row.reports_identical = false;
    }
  }
  return row;
}

// ---------------------------------------------------------------------------
// --bench=kernel: the graph-kernel microbench family (BENCH_kernel.json).
// Each row times one kernel of the Proposition-2 hot path on a fixed input
// — a baseline row to compare against bench/baselines/, not a gate (output
// identity is pinned by flat_kernel_test against tests/reference_kernels).
// Everything here is single-threaded by design: the family isolates
// data-structure costs from parallel scaling.
// ---------------------------------------------------------------------------

struct KernelRow {
  std::string name;    ///< workload, e.g. "cycles/dense_k12"
  std::string kernel;  ///< scc | reach | dominator | closure | cycles
  double ms = 0;
};

std::vector<KernelRow> RunKernelBench(bool quick, int reps) {
  std::vector<KernelRow> rows;
  Rng rng(42);
  auto add = [&](std::string name, std::string kernel, double ms) {
    std::printf("%-24s %8.3fms\n", name.c_str(), ms);
    rows.push_back({std::move(name), std::move(kernel), ms});
  };

  // Graph microkernels on the two-site scaling pair (sim/workload.h):
  // strongly connected D for SCC/reachability, the unsafe variant (which
  // has dominators) for the dominator and closure kernels. Cheap kernels
  // run kIters times per timing sample so a sample is well above clock
  // granularity.
  const int n_safe = quick ? 48 : 96;
  const int n_unsafe = quick ? 24 : 48;
  const int kIters = 20;
  Workload safe_pair = MakeTwoSiteScalingPair(n_safe, /*safe=*/true, &rng);
  Workload unsafe_pair =
      MakeTwoSiteScalingPair(n_unsafe, /*safe=*/false, &rng);
  ConflictGraph d_safe = BuildConflictGraph(safe_pair.system->txn(0),
                                            safe_pair.system->txn(1));
  ConflictGraph d_unsafe = BuildConflictGraph(unsafe_pair.system->txn(0),
                                              unsafe_pair.system->txn(1));
  // Results land in `sink` so the timed calls cannot be optimized away.
  size_t sink = 0;

  add(StrCat("scc/two_site_n", n_safe), "scc", TimeMs(reps, [&] {
        for (int i = 0; i < kIters; ++i) {
          sink += IsStronglyConnected(d_safe.graph) ? 1 : 0;
        }
      }));

  // The step-order DAG of one scaling transaction (~4 * n_safe nodes) —
  // the reachability matrix every closure/conflict query runs on.
  const Digraph& order = safe_pair.system->txn(0).order();
  add(StrCat("reach/order_n", order.NumNodes()), "reach", TimeMs(reps, [&] {
        for (int i = 0; i < kIters; ++i) {
          Reachability r(order);
          sink += r.Reaches(0, order.NumNodes() - 1) ? 1 : 0;
        }
      }));

  add(StrCat("dominator/two_site_n", n_unsafe), "dominator",
      TimeMs(reps, [&] {
        for (int i = 0; i < kIters; ++i) {
          sink += AllDominators(d_unsafe.graph, 1 << 10).size();
        }
      }));

  auto dom = FindDominator(d_unsafe.graph);
  DISLOCK_CHECK(dom.ok());
  std::vector<EntityId> x_set = d_unsafe.EntitiesOf(dom.value());
  add(StrCat("closure/two_site_n", n_unsafe), "closure", TimeMs(reps, [&] {
        auto closed = CloseWithRespectTo(unsafe_pair.system->txn(0),
                                         unsafe_pair.system->txn(1), x_set);
        sink += closed.ok() ? static_cast<size_t>(closed->iterations) : 0;
      }));

  // Johnson enumeration on the complete conflict graph of dense_k12,
  // capped like the engine caps it.
  Workload dense = MakeDenseSystem(12, 3);
  Digraph g = BuildTransactionConflictGraph(*dense.system);
  add("cycles/dense_k12", "cycles", TimeMs(reps, [&] {
        sink += SimpleCycles(g, 1 << 14).size();
      }));

  DISLOCK_CHECK_GT(sink, 0u);
  return rows;
}

// ---------------------------------------------------------------------------
// --bench=serve: SafetyService throughput + determinism (BENCH_serve.json).
// Drives the in-process service — the exact object dislock_serve wraps in
// a TCP accept loop — with simulated clients, so the numbers measure the
// sequencer + engine, not socket syscalls.
// ---------------------------------------------------------------------------

/// One client's scripted session: a rolling add/remove window over a shared
/// entity ring, with a `check` every kServeCheckEvery commands. The windows
/// of different clients overlap on entities, so the catalog always carries
/// cross-client conflict pairs.
constexpr int kServeEntities = 64;
constexpr int kServeWindow = 2;       // live txns per client between removes
constexpr int kServeCheckEvery = 32;  // commands between `check`s per client

std::vector<std::vector<std::string>> MakeServeScripts(int clients,
                                                       int commands) {
  std::vector<std::vector<std::string>> scripts(
      static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    std::vector<std::string>& lines = scripts[static_cast<size_t>(c)];
    std::deque<std::string> live;
    for (int j = 0; j < commands; ++j) {
      if (j % kServeCheckEvery == kServeCheckEvery - 1) {
        lines.push_back("check");
      } else if (static_cast<int>(live.size()) >= kServeWindow) {
        lines.push_back(StrCat("remove ", live.front()));
        live.pop_front();
      } else {
        std::string name = StrCat("C", c, "_N", j);
        int e0 = (c * 11 + j * 2) % kServeEntities;
        int e1 = (e0 + 1) % kServeEntities;
        lines.push_back("add");
        lines.push_back(StrCat("txn ", name));
        for (int e : {e0, e1}) {
          lines.push_back(StrCat("  lock e", e));
          lines.push_back(StrCat("  update e", e));
          lines.push_back(StrCat("  unlock e", e));
        }
        lines.push_back("end");
        live.push_back(name);
      }
    }
    lines.push_back("quit");
  }
  return scripts;
}

struct ServeRun {
  int64_t commands = 0;
  int64_t lines = 0;  // raw lines submitted; serve.queue_peak counts these
  int64_t responses = 0;
  int errors = 0;
  int64_t queue_peak = 0;
  double elapsed_ms = 0;
  std::string bytes;  // every client's responses, in client order
};

/// Runs the scripts against a fresh service. `concurrent` submits each
/// client from its own thread (the throughput measurement); otherwise lines
/// are fed round-robin from one thread — a fixed global arrival order, so
/// the responses are deterministic and comparable across thread counts.
ServeRun RunServeOnce(const std::vector<std::vector<std::string>>& scripts,
                      const std::string& workload_path, int threads,
                      bool concurrent) {
  serve::ServiceOptions options;
  options.session.json = true;
  options.session.config.num_threads = threads;
  serve::SafetyService service(options);

  // Load the shared system before any timed client runs: clients race, so
  // none of them can own initialization.
  int64_t setup = service.OpenClient([](const std::string&) {});
  service.Submit(setup, StrCat("load ", workload_path));
  service.CloseClient(setup);
  service.Drain();

  // Responses fire on the single sequencer thread, so per-client appends
  // need no locks.
  std::vector<std::string> outputs(scripts.size());
  std::vector<int64_t> ids;
  ids.reserve(scripts.size());
  for (size_t i = 0; i < scripts.size(); ++i) {
    std::string* sink = &outputs[i];
    ids.push_back(service.OpenClient(
        [sink](const std::string& response) { *sink += response; }));
  }

  auto start = std::chrono::steady_clock::now();
  if (concurrent) {
    std::vector<std::thread> workers;
    workers.reserve(scripts.size());
    for (size_t i = 0; i < scripts.size(); ++i) {
      workers.emplace_back([&, i] {
        for (const std::string& line : scripts[i]) {
          service.Submit(ids[i], line);
        }
      });
    }
    for (std::thread& w : workers) w.join();
  } else {
    for (size_t next = 0, remaining = scripts.size(); remaining > 0;
         ++next) {
      remaining = 0;
      for (size_t i = 0; i < scripts.size(); ++i) {
        if (next < scripts[i].size()) {
          service.Submit(ids[i], scripts[i][next]);
          if (next + 1 < scripts[i].size()) ++remaining;
        }
      }
    }
  }
  service.Drain();
  auto end = std::chrono::steady_clock::now();

  ServeRun run;
  run.elapsed_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  run.commands = service.commands() - 1;  // exclude the setup `load`
  run.responses = service.responses();
  run.errors = service.errors();
  run.queue_peak = service.queue_peak();
  for (const std::vector<std::string>& script : scripts) {
    run.lines += static_cast<int64_t>(script.size());
  }
  for (const std::string& bytes : outputs) run.bytes += bytes;
  service.Shutdown();
  return run;
}

// ---------------------------------------------------------------------------
// --bench=cache: the persistent verdict-store trajectory (BENCH_cache.json).
// Each workload is analyzed three ways — store off, cold store (fresh
// directory), warm store (reopened, fresh tier-1 memo) — and the rows
// record the identity check plus the cold-vs-warm pair-check wall time.
// ---------------------------------------------------------------------------

struct CacheBenchRow {
  std::string name;
  int k = 0;
  double off_ms = 0;   ///< no store, fresh engine-owned memo
  double cold_ms = 0;  ///< empty store: all misses, verdicts buffered
  double warm_ms = 0;  ///< reopened store: pair verdicts served from disk
  double cold_pair_wall_ms = 0;  ///< summed pipeline stage wall, cold run
  double warm_pair_wall_ms = 0;  ///< summed pipeline stage wall, warm run
  int64_t records_flushed = 0;
  int64_t records_loaded = 0;
  int64_t disk_hits = 0;
  bool identical = true;    ///< warmth-invariant report bytes match
  bool disk_served = true;  ///< warm run loaded records and hit them
  bool speedup_ok = true;   ///< warm pair wall <= cold / 2 (when measurable)
  bool speedup_measured = false;
};

/// The warmth-invariant projection of a multi report: checked + cached is
/// the total conflicting-pair count however each verdict was obtained, and
/// the pipeline counters only describe the pairs that happened to run —
/// exactly the fields docs/caching.md licenses to vary. Everything else
/// (verdict, failing pair/cycle, cycles_checked) must match byte for byte.
std::string WarmthInvariantJson(MultiSafetyReport report,
                                const TransactionSystem& system) {
  report.pairs_checked += report.pairs_cached;
  report.pairs_cached = 0;
  report.pipeline = PipelineStats();
  report.delta.reset();
  return MultiReportToJson(report, system);
}

double PipelineWallMs(const PipelineStats& stats) {
  double total = 0;
  for (int s = 0; s < kNumDecisionStages; ++s) {
    total += stats.stages[static_cast<size_t>(s)].wall_ms;
  }
  return total;
}

CacheBenchRow RunCacheCase(const std::string& name, const Workload& w,
                           const std::string& dir, int reps) {
  CacheBenchRow row;
  row.name = name;
  const TransactionSystem& system = *w.system;
  row.k = system.NumTransactions();

  // A stale store from an earlier bench run would make the "cold" column a
  // lie; start from an empty directory every time.
  std::remove((dir + "/" + cache::kVerdictLogFileName).c_str());
  std::remove((dir + "/" + cache::kVerdictIndexFileName).c_str());
  std::remove((dir + "/" + cache::kVerdictLockFileName).c_str());

  MultiSafetyOptions opts;
  opts.max_cycles = 1 << 14;

  MultiSafetyReport off_report;
  row.off_ms = TimeMs(reps, [&] {
    off_report = AnalyzeMultiSafety(system, opts);
  });

  // Cold is inherently a single shot: after the first analysis the store's
  // pending buffer is already warm for this process.
  cache::VerdictStore cold_store;
  DISLOCK_CHECK(cold_store.Open(dir));
  opts.store = &cold_store;
  MultiSafetyReport cold_report;
  row.cold_ms = OnceMs([&] { cold_report = AnalyzeMultiSafety(system, opts); });
  row.cold_pair_wall_ms = PipelineWallMs(cold_report.pipeline);
  row.records_flushed = cold_store.Flush();

  // Warm: a new store object (fresh tier-1 memo per analysis, as a new
  // process would have), reading the records the cold run flushed.
  cache::VerdictStore warm_store;
  DISLOCK_CHECK(warm_store.Open(dir));
  opts.store = &warm_store;
  MultiSafetyReport warm_report;
  row.warm_ms = TimeMs(reps, [&] {
    warm_report = AnalyzeMultiSafety(system, opts);
  });
  row.warm_pair_wall_ms = PipelineWallMs(warm_report.pipeline);
  row.records_loaded = warm_store.stats().records_loaded;
  row.disk_hits = warm_store.stats().disk_hits;

  std::string off_json = WarmthInvariantJson(off_report, system);
  row.identical = off_json == WarmthInvariantJson(cold_report, system) &&
                  off_json == WarmthInvariantJson(warm_report, system);
  row.disk_served = row.records_loaded > 0 && row.disk_hits > 0;
  // On an all-safe workload the warm run serves every pair verdict from
  // disk, so zero pipeline stages execute and its pair wall is exactly 0 —
  // the >= 2x bar holds whenever the cold run did any pair work at all.
  row.speedup_measured = row.cold_pair_wall_ms > 0;
  if (row.speedup_measured) {
    row.speedup_ok = row.warm_pair_wall_ms * 2 <= row.cold_pair_wall_ms;
  }
  return row;
}

}  // namespace
}  // namespace dislock

namespace {

int BenchUsage() {
  std::fprintf(stderr,
               "usage: dislock_bench "
               "[--bench=all|multi|kernel|serve|cache|trace]\n"
               "                     [--quick] [--reps N] [--out path]\n"
               "%s"
               "  --bench=NAME      which family to run: multi (the parallel\n"
               "                    engine + incremental edit stream), kernel\n"
               "                    (graph-kernel timing rows), serve (the\n"
               "                    concurrent SafetyService), cache (the\n"
               "                    persistent verdict store, cold vs warm),\n"
               "                    trace (replay every registered workload\n"
               "                    family and gate response identity\n"
               "                    across threads and transports), or all\n"
               "                    (default)\n"
               "                    (--out names the multi table; the other\n"
               "                    BENCH_*.json tables land in its "
               "directory)\n",
               dislock::CommonFlagsHelp(dislock::kThreadsFlag |
                                        dislock::kCacheFlag |
                                        dislock::kObsFlags |
                                        dislock::kClientsFlag |
                                        dislock::kCacheDirFlag |
                                        dislock::kOutFlag)
                   .c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dislock;
  bool quick = false;
  int reps = 0;     // 0 = pick per mode below
  std::string bench_mode = "all";
  CommonFlags flags;
  flags.num_threads = 0;  // bench default: one worker per hardware thread
  constexpr unsigned kAccepted = kThreadsFlag | kCacheFlag | kObsFlags |
                                 kClientsFlag | kCacheDirFlag | kOutFlag;
  for (int i = 1; i < argc; ++i) {
    std::string error;
    switch (ParseCommonFlag(argc, argv, i, kAccepted, &flags, &error)) {
      case FlagParse::kConsumedTwo:
        ++i;
        [[fallthrough]];
      case FlagParse::kConsumedOne:
        continue;
      case FlagParse::kError:
        ReportBadFlag("dislock_bench", error);
        return BenchUsage();
      case FlagParse::kNotCommon:
        break;
    }
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--bench=", 8) == 0) {
      bench_mode = argv[i] + 8;
      if (bench_mode != "all" && bench_mode != "multi" &&
          bench_mode != "kernel" && bench_mode != "serve" &&
          bench_mode != "cache" && bench_mode != "trace") {
        ReportBadFlag("dislock_bench",
                      "--bench must be all|multi|kernel|serve|cache|trace");
        return BenchUsage();
      }
    } else {
      ReportUnknownArgument("dislock_bench", argv[i]);
      return BenchUsage();
    }
  }
  const std::string out_path =
      flags.out.empty() ? "BENCH_multi.json" : flags.out;
  const int threads = flags.num_threads;
  const bool engine_cache = flags.cache;
  obs::Observability bundle(flags.trace_path, flags.metrics,
                            flags.metrics_path);
  if (reps <= 0) reps = quick ? 2 : 5;
  const int effective_threads =
      threads <= 0 ? ThreadPool::HardwareThreads() : threads;

  // Honesty note for CI artifacts: when the requested worker count exceeds
  // the machine's hardware threads, the parallel columns measure
  // oversubscription, not scaling. The note travels inside every JSON this
  // tool writes so a baseline can never silently claim a speedup the
  // runner could not have produced.
  std::string ci_note;
  if (effective_threads > ThreadPool::HardwareThreads()) {
    ci_note = StrCat("threads=", effective_threads,
                     " exceeds hardware_threads=",
                     ThreadPool::HardwareThreads(),
                     "; parallel timings measure oversubscription, not "
                     "parallel scaling");
  }
  auto ci_note_json = [&ci_note] {
    return ci_note.empty()
               ? std::string()
               : StrCat(", \"ci_note\": \"", ci_note, "\"");
  };

  bool all_identical = true;
  bool inc_ok = true;

  if (bench_mode == "all" || bench_mode == "multi") {
  std::vector<BenchCase> cases;
  for (int k : quick ? std::vector<int>{8} : std::vector<int>{8, 12, 16}) {
    cases.push_back({StrCat("ring_k", k), "ring", k, MakeRingSystem(k)});
  }
  for (int k : quick ? std::vector<int>{6} : std::vector<int>{8, 12}) {
    cases.push_back(
        {StrCat("dense_k", k), "dense", k, MakeDenseSystem(k, 3)});
  }

  std::ostringstream json;
  json << "{\"" << wire::kSchemaVersionKey << "\": " << wire::kSchemaVersion
       << ", \"bench\": \"multi_safety_parallel\", \"threads\": "
       << effective_threads
       << ", \"hardware_threads\": " << ThreadPool::HardwareThreads()
       << ci_note_json() << ", \"reps\": " << reps << ", \"quick\": "
       << (quick ? "true" : "false") << ", \"workloads\": [";

  for (size_t c = 0; c < cases.size(); ++c) {
    const BenchCase& bench = cases[c];
    const TransactionSystem& system = *bench.workload.system;
    MultiSafetyOptions serial_opts;
    serial_opts.max_cycles = 1 << 14;
    serial_opts.enable_cache = engine_cache;
    serial_opts.trace = bundle.trace();
    MultiSafetyOptions parallel_opts = serial_opts;
    parallel_opts.num_threads = threads <= 0 ? 0 : threads;

    // Warm up once (faults in the code and builds the transaction
    // reachability memos), then time serial and parallel.
    MultiSafetyReport serial_report = AnalyzeMultiSafety(system, serial_opts);
    double serial_ms = TimeMs(reps, [&] {
      serial_report = AnalyzeMultiSafety(system, serial_opts);
    });
    MultiSafetyReport parallel_report =
        AnalyzeMultiSafety(system, parallel_opts);
    double parallel_ms = TimeMs(reps, [&] {
      parallel_report = AnalyzeMultiSafety(system, parallel_opts);
    });

    std::string serial_json = MultiReportToJson(serial_report, system);
    std::string parallel_json = MultiReportToJson(parallel_report, system);
    bool identical = serial_json == parallel_json;
    all_identical = all_identical && identical;
    // One export per case (the last timed serial report), not per rep.
    ExportMultiReportStats(serial_report, bundle.metrics());

    // Cache trajectory: a fresh cache sees the workload's internal
    // structural redundancy on the first analysis (ring/dense systems are
    // transitive on their pairs), and a second analysis over the same
    // cache is pure hits.
    PairVerdictCache cache;
    MultiSafetyOptions cached_opts = parallel_opts;
    cached_opts.cache = &cache;
    MultiSafetyReport first_cached = AnalyzeMultiSafety(system, cached_opts);
    double cached_ms = TimeMs(reps, [&] {
      AnalyzeMultiSafety(system, cached_opts);
    });
    PairVerdictCache::Stats stats = cache.stats();

    if (c > 0) json << ", ";
    json << "{\"name\": \"" << bench.name << "\", \"kind\": \""
         << bench.kind << "\", \"k\": " << bench.k
         << ", \"verdict\": \"" << SafetyVerdictName(serial_report.verdict)
         << "\", \"pairs_checked\": " << serial_report.pairs_checked
         << ", \"cycles_checked\": " << serial_report.cycles_checked
         << ", \"serial_ms\": " << serial_ms
         << ", \"parallel_ms\": " << parallel_ms
         << ", \"speedup\": "
         << (parallel_ms > 0 ? serial_ms / parallel_ms : 0.0)
         << ", \"reports_identical\": " << (identical ? "true" : "false")
         << ", \"cache\": {\"first_pairs_checked\": "
         << first_cached.pairs_checked
         << ", \"first_pairs_cached\": " << first_cached.pairs_cached
         << ", \"hits\": " << stats.hits
         << ", \"misses\": " << stats.misses
         << ", \"hit_rate\": " << stats.HitRate()
         << ", \"warm_ms\": " << cached_ms
         << "}, \"pipeline\": " << PipelineTimingJson(serial_report.pipeline)
         << "}";

    std::printf(
        "%-10s verdict=%s pairs=%d cycles=%d serial=%.2fms "
        "parallel=%.2fms speedup=%.2fx cache-hit-rate=%.2f %s\n",
        bench.name.c_str(), SafetyVerdictName(serial_report.verdict),
        serial_report.pairs_checked, serial_report.cycles_checked,
        serial_ms, parallel_ms,
        parallel_ms > 0 ? serial_ms / parallel_ms : 0.0, stats.HitRate(),
        identical ? "identical" : "REPORTS DIFFER");
    if (!identical) {
      std::fprintf(stderr, "serial:   %s\nparallel: %s\n",
                   serial_json.c_str(), parallel_json.c_str());
    }
    for (int s = 0; s < kNumDecisionStages; ++s) {
      const StageCounters& sc =
          serial_report.pipeline.stages[static_cast<size_t>(s)];
      if (sc.attempts == 0 && sc.skipped == 0) continue;
      std::printf("    stage %-18s attempts=%lld decided=%lld work=%lld "
                  "wall=%.3fms\n",
                  DecisionStageName(static_cast<DecisionStageId>(s)),
                  static_cast<long long>(sc.attempts),
                  static_cast<long long>(sc.decided),
                  static_cast<long long>(sc.work), sc.wall_ms);
    }
  }
  json << "]}";

  std::ofstream out(out_path);
  out << json.str() << "\n";
  out.close();
  std::printf("wrote %s (threads=%d, hardware=%d)\n", out_path.c_str(),
              effective_threads, ThreadPool::HardwareThreads());

  // ---- Incremental edit-stream trajectory (BENCH_incremental.json,
  // written next to --out). ----
  MultiSafetyOptions inc_opts;
  inc_opts.max_cycles = 1 << 14;
  inc_opts.num_threads = threads <= 0 ? 0 : threads;
  inc_opts.enable_cache = engine_cache;
  inc_opts.trace = bundle.trace();
  const int edits = quick ? 8 : 32;
  std::vector<EditStreamRow> rows;
  rows.push_back(
      RunEditStream("ring_k64", MakeRingSystem(64), edits, inc_opts));
  rows.push_back(
      RunEditStream("dense_k12", MakeDenseSystem(12, 3), edits, inc_opts));

  std::ostringstream inc_json;
  inc_json << "{\"" << wire::kSchemaVersionKey << "\": "
           << wire::kSchemaVersion
           << ", \"bench\": \"incremental_edit_stream\", \"threads\": "
           << effective_threads
           << ", \"hardware_threads\": " << ThreadPool::HardwareThreads()
           << ci_note_json() << ", \"edits\": " << edits << ", \"quick\": "
           << (quick ? "true" : "false") << ", \"workloads\": [";
  for (size_t r = 0; r < rows.size(); ++r) {
    const EditStreamRow& row = rows[r];
    inc_ok = inc_ok && row.bound_ok && row.reports_identical;
    if (r > 0) inc_json << ", ";
    inc_json << "{\"name\": \"" << row.name << "\", \"k\": " << row.k
             << ", \"edits\": " << row.edits
             << ", \"incremental_ms\": " << row.incremental_ms
             << ", \"scratch_ms\": " << row.scratch_ms
             << ", \"speedup\": "
             << (row.incremental_ms > 0 ? row.scratch_ms / row.incremental_ms
                                        : 0.0)
             << ", \"pairs_reused\": " << row.pairs_reused_total
             << ", \"pairs_recomputed\": " << row.pairs_recomputed_total
             << ", \"max_pairs_recomputed\": " << row.max_pairs_recomputed
             << ", \"degree_bound\": " << row.degree_bound
             << ", \"bound_ok\": " << (row.bound_ok ? "true" : "false")
             << ", \"reports_identical\": "
             << (row.reports_identical ? "true" : "false") << "}";
    std::printf(
        "%-10s edits=%d incremental=%.2fms scratch=%.2fms speedup=%.2fx "
        "max-recomputed=%lld (bound %lld) %s %s\n",
        row.name.c_str(), row.edits, row.incremental_ms, row.scratch_ms,
        row.incremental_ms > 0 ? row.scratch_ms / row.incremental_ms : 0.0,
        static_cast<long long>(row.max_pairs_recomputed),
        static_cast<long long>(row.degree_bound),
        row.bound_ok ? "bound-ok" : "BOUND EXCEEDED",
        row.reports_identical ? "identical" : "REPORTS DIFFER");
  }
  inc_json << "]}";

  std::string inc_path = "BENCH_incremental.json";
  {
    std::string out_str(out_path);
    size_t slash = out_str.rfind('/');
    if (slash != std::string::npos) {
      inc_path = out_str.substr(0, slash + 1) + inc_path;
    }
  }
  std::ofstream inc_out(inc_path);
  inc_out << inc_json.str() << "\n";
  inc_out.close();
  std::printf("wrote %s\n", inc_path.c_str());
  }  // multi

  if (bench_mode == "all" || bench_mode == "kernel") {
    std::vector<KernelRow> rows = RunKernelBench(quick, reps);
    std::ostringstream kj;
    kj << "{\"" << wire::kSchemaVersionKey << "\": " << wire::kSchemaVersion
       << ", \"bench\": \"graph_kernel\", \"threads\": 1"
       << ", \"hardware_threads\": " << ThreadPool::HardwareThreads()
       // No ci_note here: every kernel row is timed serially, so the
       // oversubscription caveat for --threads never applies to this file.
       << ", \"reps\": " << reps << ", \"quick\": "
       << (quick ? "true" : "false") << ", \"workloads\": [";
    for (size_t r = 0; r < rows.size(); ++r) {
      if (r > 0) kj << ", ";
      kj << "{\"name\": \"" << rows[r].name << "\", \"kernel\": \""
         << rows[r].kernel << "\", \"ms\": " << rows[r].ms << "}";
    }
    kj << "]}";

    std::string kernel_path = "BENCH_kernel.json";
    {
      std::string out_str(out_path);
      size_t slash = out_str.rfind('/');
      if (slash != std::string::npos) {
        kernel_path = out_str.substr(0, slash + 1) + kernel_path;
      }
    }
    std::ofstream kernel_out(kernel_path);
    kernel_out << kj.str() << "\n";
    kernel_out.close();
    std::printf("wrote %s\n", kernel_path.c_str());
  }

  bool serve_ok = true;
  if (bench_mode == "all" || bench_mode == "serve") {
    const int clients = flags.clients > 0 ? flags.clients : 100;
    const int commands_per_client = quick ? 32 : 96;

    // The shared system the clients edit: the entity ring the scripts lock
    // into, plus one seed transaction.
    std::string workload_path = "BENCH_serve_workload.dlk";
    {
      std::string out_str(out_path);
      size_t slash = out_str.rfind('/');
      if (slash != std::string::npos) {
        workload_path = out_str.substr(0, slash + 1) + workload_path;
      }
      std::ofstream w(workload_path);
      w << "# generated by dislock_bench --bench=serve\nsites 2\n";
      for (int e = 0; e < kServeEntities; ++e) {
        w << "entity e" << e << " " << e % 2 << "\n";
      }
      w << "\ntxn Seed\n  lock e0\n  update e0\n  unlock e0\nend\n";
      w.close();
      if (!w) {
        // A silently missing workload would surface later as a baffling
        // determinism failure (every client's load fails).
        std::fprintf(stderr, "cannot write %s (does the --out directory "
                     "exist?)\n", workload_path.c_str());
        return 1;
      }
    }

    // Determinism: the same scripts in a fixed global arrival order must
    // produce byte-identical responses, and no errors, at 1 and 4 engine
    // threads.
    auto scripts = MakeServeScripts(std::min(clients, 8),
                                    commands_per_client);
    ServeRun base = RunServeOnce(scripts, workload_path, 1, false);
    ServeRun four = RunServeOnce(scripts, workload_path, 4, false);
    const bool identical = base.bytes == four.bytes;
    if (!identical || base.errors != 0 || four.errors != 0) {
      std::fprintf(stderr,
                   "serve determinism FAILED (identical=%d, errors at 1/4 "
                   "threads=%d/%d)\n",
                   identical ? 1 : 0, base.errors, four.errors);
    }

    // Throughput: every client submits from its own thread.
    auto load = MakeServeScripts(clients, commands_per_client);
    ServeRun run = RunServeOnce(load, workload_path, effective_threads, true);
    const double rate =
        run.elapsed_ms > 0
            ? 1000.0 * static_cast<double>(run.commands) / run.elapsed_ms
            : 0.0;
    serve_ok = identical && base.errors == 0 && four.errors == 0 &&
               run.errors == 0;

    std::ostringstream sj;
    sj << "{\"" << wire::kSchemaVersionKey << "\": " << wire::kSchemaVersion
       << ", \"bench\": \"serve_throughput\", \"clients\": " << clients
       << ", \"threads\": " << effective_threads
       << ", \"hardware_threads\": " << ThreadPool::HardwareThreads()
       << ci_note_json()
       << ", \"commands_per_client\": " << commands_per_client
       << ", \"quick\": " << (quick ? "true" : "false")
       << ", \"commands\": " << run.commands
       << ", \"elapsed_ms\": " << run.elapsed_ms
       << ", \"commands_per_sec\": " << rate
       << ", \"lines_submitted\": " << run.lines
       << ", \"queue_peak\": " << run.queue_peak
       << ", \"errors\": " << run.errors
       << ", \"responses_identical\": " << (identical ? "true" : "false")
       << ", \"ok\": " << (serve_ok ? "true" : "false") << "}";

    std::string serve_path = "BENCH_serve.json";
    {
      std::string out_str(out_path);
      size_t slash = out_str.rfind('/');
      if (slash != std::string::npos) {
        serve_path = out_str.substr(0, slash + 1) + serve_path;
      }
    }
    std::ofstream serve_out(serve_path);
    serve_out << sj.str() << "\n";
    serve_out.close();
    std::printf(
        "serve      clients=%d threads=%d %.0f cmd/s lines=%lld "
        "queue-peak=%lld %s\n",
        clients, effective_threads, rate, static_cast<long long>(run.lines),
        static_cast<long long>(run.queue_peak),
        identical ? "responses-identical" : "RESPONSES DIFFER");
    std::printf("wrote %s (%s)\n", serve_path.c_str(),
                serve_ok ? "ok" : "FAILED");
  }

  bool cache_ok = true;
  if (bench_mode == "all" || bench_mode == "cache") {
    // Store directory: --cache-dir / DISLOCK_CACHE_DIR when given, else a
    // scratch directory next to --out. Either way each case starts it
    // empty, so the cold column really is cold.
    std::string store_dir = EffectiveCacheDir(flags);
    if (store_dir.empty()) {
      store_dir = "BENCH_cache_store";
      std::string out_str(out_path);
      size_t slash = out_str.rfind('/');
      if (slash != std::string::npos) {
        store_dir = out_str.substr(0, slash + 1) + store_dir;
      }
    }

    Rng cache_rng(7);
    const int n_pair = quick ? 48 : 96;
    std::vector<std::pair<std::string, Workload>> cache_cases;
    cache_cases.emplace_back("dense_k12", MakeDenseSystem(12, 3));
    cache_cases.emplace_back(
        StrCat("two_site_n", n_pair),
        MakeTwoSiteScalingPair(n_pair, /*safe=*/true, &cache_rng));
    cache_cases.emplace_back("ring_k16", MakeRingSystem(16));

    std::ostringstream cj;
    cj << "{\"" << wire::kSchemaVersionKey << "\": " << wire::kSchemaVersion
       << ", \"bench\": \"verdict_store\", \""
       << wire::kCacheFileGeneration
       << "\": " << cache::kVerdictStoreGeneration
       << ", \"hardware_threads\": " << ThreadPool::HardwareThreads()
       << ", \"reps\": " << reps << ", \"quick\": "
       << (quick ? "true" : "false") << ", \"workloads\": [";
    for (size_t c = 0; c < cache_cases.size(); ++c) {
      CacheBenchRow row =
          RunCacheCase(cache_cases[c].first, cache_cases[c].second,
                       store_dir, reps);
      cache_ok = cache_ok && row.identical && row.disk_served &&
                 row.speedup_ok;
      if (c > 0) cj << ", ";
      cj << "{\"name\": \"" << row.name << "\", \"k\": " << row.k
         << ", \"off_ms\": " << row.off_ms
         << ", \"cold_ms\": " << row.cold_ms
         << ", \"warm_ms\": " << row.warm_ms
         << ", \"cold_pair_wall_ms\": " << row.cold_pair_wall_ms
         << ", \"warm_pair_wall_ms\": " << row.warm_pair_wall_ms
         << ", \"pair_wall_speedup\": "
         << (row.warm_pair_wall_ms > 0
                 ? row.cold_pair_wall_ms / row.warm_pair_wall_ms
                 : 0.0)
         << ", \"" << wire::kRecordsFlushed
         << "\": " << row.records_flushed << ", \"" << wire::kRecordsLoaded
         << "\": " << row.records_loaded << ", \"" << wire::kDiskHits
         << "\": " << row.disk_hits
         << ", \"reports_identical\": " << (row.identical ? "true" : "false")
         << ", \"disk_served\": " << (row.disk_served ? "true" : "false")
         << ", \"speedup_measured\": "
         << (row.speedup_measured ? "true" : "false")
         << ", \"speedup_ok\": " << (row.speedup_ok ? "true" : "false")
         << "}";
      std::printf(
          "%-14s off=%.2fms cold=%.2fms warm=%.2fms pair-wall "
          "cold=%.3fms warm=%.3fms disk_hits=%lld %s %s %s\n",
          row.name.c_str(), row.off_ms, row.cold_ms, row.warm_ms,
          row.cold_pair_wall_ms, row.warm_pair_wall_ms,
          static_cast<long long>(row.disk_hits),
          row.identical ? "identical" : "REPORTS DIFFER",
          row.disk_served ? "disk-served" : "NOT DISK-SERVED",
          row.speedup_measured
              ? (row.speedup_ok ? "speedup-ok" : "SPEEDUP BELOW 2x")
              : "speedup-unmeasured (cold wall below floor)");
    }
    cj << "], \"ok\": " << (cache_ok ? "true" : "false") << "}";

    std::string cache_path = "BENCH_cache.json";
    {
      std::string out_str(out_path);
      size_t slash = out_str.rfind('/');
      if (slash != std::string::npos) {
        cache_path = out_str.substr(0, slash + 1) + cache_path;
      }
    }
    std::ofstream cache_out(cache_path);
    cache_out << cj.str() << "\n";
    cache_out.close();
    std::printf("wrote %s (%s)\n", cache_path.c_str(),
                cache_ok ? "ok" : "FAILED");
  }

  bool trace_ok = true;
  if (bench_mode == "all" || bench_mode == "trace") {
    // --bench=trace: the replay byte-identity gate, run as a bench family
    // so CI publishes it (BENCH_trace.json). Every registered workload
    // family is generated at its defaults, timed through the direct
    // SessionCore replay, then verified: every response at {1,4} threads,
    // direct and through the serve sequencer, must be byte-identical to
    // the 1-thread direct replay. A DIVERGED cell is a determinism bug,
    // not a performance regression.
    std::ostringstream tj;
    tj << "{\"" << wire::kSchemaVersionKey << "\": " << wire::kSchemaVersion
       << ", \"bench\": \"trace_replay\", \"trace_version\": "
       << gen::kTraceVersion << ", \"seed\": " << gen::kDefaultSeed
       << ", \"hardware_threads\": " << ThreadPool::HardwareThreads()
       << ", \"reps\": " << reps << ", \"quick\": "
       << (quick ? "true" : "false") << ", \"families\": [";
    bool first = true;
    for (const std::string& family : gen::RegisteredFamilies()) {
      auto trace = gen::GenerateTrace(family);
      DISLOCK_CHECK(trace.ok());
      gen::ReplayOptions replay_opts;
      gen::ReplayResult direct = gen::ReplayDirect(*trace, replay_opts);
      double direct_ms = TimeMs(reps, [&] {
        direct = gen::ReplayDirect(*trace, replay_opts);
      });
      gen::VerifyResult verify = gen::VerifyReplay(*trace);
      const bool row_ok = verify.ok && direct.errors == 0;
      trace_ok = trace_ok && row_ok;
      if (!first) tj << ", ";
      first = false;
      tj << "{\"name\": \"" << family
         << "\", \"records\": " << trace->header.records
         << ", \"checks\": " << direct.checks
         << ", \"direct_ms\": " << direct_ms << ", \"cells\": [";
      for (size_t i = 0; i < verify.cells.size(); ++i) {
        const gen::VerifyCell& cell = verify.cells[i];
        if (i > 0) tj << ", ";
        tj << "{\"transport\": \"" << cell.transport
           << "\", \"threads\": " << cell.threads << ", \"identical\": "
           << (cell.identical ? "true" : "false")
           << ", \"errors\": " << cell.errors << "}";
      }
      tj << "], \"ok\": " << (row_ok ? "true" : "false") << "}";
      std::printf("trace/%-11s records=%lld checks=%lld direct=%.2fms %s\n",
                  family.c_str(),
                  static_cast<long long>(trace->header.records),
                  static_cast<long long>(direct.checks), direct_ms,
                  row_ok ? "grid-identical" : "GRID DIVERGED");
    }
    tj << "], \"ok\": " << (trace_ok ? "true" : "false") << "}";

    std::string trace_path = "BENCH_trace.json";
    {
      size_t slash = out_path.rfind('/');
      if (slash != std::string::npos) {
        trace_path = out_path.substr(0, slash + 1) + trace_path;
      }
    }
    std::ofstream trace_out(trace_path);
    trace_out << tj.str() << "\n";
    trace_out.close();
    std::printf("wrote %s (%s)\n", trace_path.c_str(),
                trace_ok ? "ok" : "FAILED");
  }

  std::string obs_error;
  if (!bundle.Flush(&obs_error)) {
    std::fprintf(stderr, "%s\n", obs_error.c_str());
  }

  // Determinism is the contract; a differing report is a bug regardless of
  // the measured speedup. The kernel family only records timings; the
  // serve family gates on response
  // identity across threads and an error-free run; the cache family gates on
  // warmth-invariant reports, verdicts actually served from disk, and the
  // warm pair-wall speedup (when the cold wall cleared the noise floor);
  // the trace family gates on grid-wide response byte identity.
  return all_identical && inc_ok && serve_ok && cache_ok && trace_ok ? 0 : 1;
}
