#ifndef DISLOCK_DISLOCK_H_
#define DISLOCK_DISLOCK_H_

/// \mainpage dislock — Is Distributed Locking Harder?
///
/// Umbrella header for the dislock library, a full implementation of
/// Kanellakis & Papadimitriou, "Is Distributed Locking Harder?" (PODS 1982
/// / JCSS 28, 1984).
///
/// Layering (each header is independently includable):
///   * model        — txn/database.h, txn/transaction.h, txn/builder.h,
///                    txn/validate.h, txn/schedule.h, txn/system.h,
///                    txn/linear_extension.h, txn/text_format.h,
///                    txn/lock_table.h (the one reader/writer lock table)
///   * geometry     — geometry/picture.h, geometry/curve.h,
///                    geometry/deadlock_geometry.h
///   * analysis     — analysis/diagnostic.h, analysis/pass.h,
///                    analysis/passes.h, analysis/emit.h,
///                    analysis/analyzer.h (the pass-manager static
///                    analyzer over the results layer)
///   * catalog      — txn/catalog.h (mutable versioned catalog with stable
///                    TxnIds), core/incremental/engine.h (delta
///                    re-analysis), core/incremental/session.h (the
///                    `dislock session` REPL)
///   * results      — core/conflict_graph.h (Definition 1),
///                    core/safety.h (Theorems 1-2 entry points),
///                    core/decision/ (the tiered DecisionPipeline:
///                    procedure.h, pipeline.h, config.h, context.h,
///                    method.h, stats.h), core/closure.h (Lemmas 2-3,
///                    Definition 3), core/certificate.h (the Theorem 2
///                    construction), core/brute_force.h (Lemma 1 oracles),
///                    core/multi.h (Proposition 2), core/deadlock.h,
///                    core/policy.h, core/protocols.h, core/paper.h
///   * reduction    — sat/cnf.h, sat/solver.h, sat/normalize.h,
///                    sat/reduction.h (Theorem 3)
///   * simulation   — sim/scheduler.h, sim/executor.h, sim/workload.h
///   * observability— obs/trace.h (RAII spans + Chrome trace_event
///                    export), obs/metrics.h (typed counter/gauge
///                    registry), obs/stats_sink.h (the one stats
///                    interface), obs/observability.h (tool-side bundle),
///                    core/wire_keys.h (wire strings), core/stats_export.h
///                    (report → sink), util/flags.h (shared tool flags)

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "analysis/emit.h"
#include "analysis/pass.h"
#include "analysis/passes.h"
#include "core/brute_force.h"
#include "core/certificate.h"
#include "core/closure.h"
#include "core/conflict_graph.h"
#include "core/deadlock.h"
#include "core/decision/config.h"
#include "core/decision/context.h"
#include "core/decision/method.h"
#include "core/decision/pipeline.h"
#include "core/decision/procedure.h"
#include "core/decision/stats.h"
#include "core/incremental/delta.h"
#include "core/incremental/engine.h"
#include "core/incremental/session.h"
#include "core/multi.h"
#include "core/paper.h"
#include "core/policy.h"
#include "core/protocols.h"
#include "core/report.h"
#include "core/safety.h"
#include "cache/verdict_cache.h"
#include "cache/verdict_store.h"
#include "core/stats_export.h"
#include "core/wire_keys.h"
#include "geometry/curve.h"
#include "geometry/deadlock_geometry.h"
#include "geometry/picture.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/stats_sink.h"
#include "obs/trace.h"
#include "sat/cnf.h"
#include "sat/normalize.h"
#include "sat/reduction.h"
#include "sat/solver.h"
#include "sim/executor.h"
#include "sim/scheduler.h"
#include "sim/workload.h"
#include "txn/builder.h"
#include "txn/catalog.h"
#include "txn/linear_extension.h"
#include "txn/lock_table.h"
#include "txn/schedule.h"
#include "txn/system.h"
#include "txn/text_format.h"
#include "txn/validate.h"
#include "util/flags.h"

#endif  // DISLOCK_DISLOCK_H_
