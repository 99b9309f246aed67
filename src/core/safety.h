#ifndef DISLOCK_CORE_SAFETY_H_
#define DISLOCK_CORE_SAFETY_H_

#include <optional>
#include <string>

#include "core/brute_force.h"
#include "core/certificate.h"
#include "core/conflict_graph.h"
#include "core/decision/config.h"
#include "core/decision/method.h"
#include "core/decision/stats.h"
#include "txn/transaction.h"
#include "util/status.h"

namespace dislock {

class EngineContext;

/// Three-valued safety answer. kUnknown arises only for pairs spanning
/// three or more sites when every fallback stage is disabled or over
/// budget — the regime where the decision problem is coNP-complete
/// (Theorem 3), so an efficient complete test cannot be expected.
enum class SafetyVerdict { kSafe, kUnsafe, kUnknown };

const char* SafetyVerdictName(SafetyVerdict v);

/// Tuning knobs for the decision engine. Historically SafetyOptions,
/// MultiSafetyOptions and AnalysisOptions were three separate structs
/// duplicating these fields; all three are now the one EngineConfig
/// (core/decision/config.h).
using SafetyOptions = EngineConfig;

/// Everything the analyzer can say about a pair.
struct PairSafetyReport {
  SafetyVerdict verdict = SafetyVerdict::kUnknown;
  /// Which result decided (see core/decision/method.h).
  DecisionMethod method = DecisionMethod::kNone;
  /// The conflict digraph D(T1, T2) of Definition 1.
  ConflictGraph d;
  bool d_strongly_connected = false;
  /// Number of distinct sites hosting entities touched by the pair.
  int sites_spanned = 0;
  /// When unsafe: a verified certificate.
  std::optional<UnsafetyCertificate> certificate;
  std::string detail;
  /// Per-stage counters of the DecisionPipeline run that produced this
  /// report (attempts/decided/skipped/budget-exhausted/work per stage).
  PipelineStats pipeline;
};

/// Number of distinct sites hosting entities touched by either transaction.
int SitesSpanned(const Transaction& t1, const Transaction& t2);

/// Theorem 1 sufficient test: true iff D(T1,T2) is strongly connected, in
/// which case the pair is safe regardless of the number of sites.
bool Theorem1Sufficient(const Transaction& t1, const Transaction& t2);

/// The complete two-site decision procedure of Theorem 2 / Corollary 1:
/// {T1, T2} spanning at most two sites is safe iff D(T1, T2) is strongly
/// connected; when unsafe a certificate is constructed. O(n^2).
/// Returns InvalidArgument if the pair spans more than two sites.
Result<PairSafetyReport> TwoSiteSafetyTest(const Transaction& t1,
                                           const Transaction& t2);

/// The general pair analyzer: runs the default DecisionPipeline
/// (core/decision/pipeline.h) — Theorem1Scc, Theorem2TwoSite,
/// Corollary2Closure, BruteForceLemma1 — with early exit at the first stage
/// that decides, recording per-stage statistics in
/// PairSafetyReport::pipeline. See the pipeline header for the stage
/// contract and docs/pipeline.md for the architecture.
PairSafetyReport AnalyzePairSafety(const Transaction& t1,
                                   const Transaction& t2,
                                   const EngineConfig& config = {});

/// As above but sharing an existing EngineContext (thread pool, verdict
/// cache, cancellation token) across many calls.
PairSafetyReport AnalyzePairSafety(const Transaction& t1,
                                   const Transaction& t2,
                                   EngineContext* ctx);

}  // namespace dislock

#endif  // DISLOCK_CORE_SAFETY_H_
