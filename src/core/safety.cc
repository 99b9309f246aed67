#include "core/safety.h"

#include "core/closure.h"
#include "core/decision/context.h"
#include "core/decision/pipeline.h"
#include "graph/dominator.h"
#include "graph/scc.h"
#include "util/string_util.h"

namespace dislock {

const char* SafetyVerdictName(SafetyVerdict v) {
  switch (v) {
    case SafetyVerdict::kSafe:
      return "SAFE";
    case SafetyVerdict::kUnsafe:
      return "UNSAFE";
    case SafetyVerdict::kUnknown:
      return "UNKNOWN";
  }
  return "?";
}

int SitesSpanned(const Transaction& t1, const Transaction& t2) {
  // Both site lists are sorted and maintained incrementally by the
  // transactions, so the pair count is a linear merge — this runs O(k^2)
  // times per multi-transaction analysis.
  const std::vector<SiteId>& a = t1.TouchedSites();
  const std::vector<SiteId>& b = t2.TouchedSites();
  size_t i = 0;
  size_t j = 0;
  int distinct = 0;
  while (i < a.size() || j < b.size()) {
    ++distinct;
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      ++i;
    } else if (i == a.size() || b[j] < a[i]) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return distinct;
}

bool Theorem1Sufficient(const Transaction& t1, const Transaction& t2) {
  ConflictGraph d = BuildConflictGraph(t1, t2);
  return IsStronglyConnected(d.graph);
}

Result<PairSafetyReport> TwoSiteSafetyTest(const Transaction& t1,
                                           const Transaction& t2) {
  PairSafetyReport report;
  report.sites_spanned = SitesSpanned(t1, t2);
  if (report.sites_spanned > 2) {
    return Status::InvalidArgument(
        StrCat("TwoSiteSafetyTest requires <= 2 sites, pair spans ",
               report.sites_spanned));
  }
  report.d = BuildConflictGraph(t1, t2);
  report.d_strongly_connected = IsStronglyConnected(report.d.graph);
  if (report.d_strongly_connected) {
    report.verdict = SafetyVerdict::kSafe;
    report.method = DecisionMethod::kTheorem2;
    report.detail = "D(T1,T2) is strongly connected";
    return report;
  }
  auto dom = FindDominator(report.d.graph);
  if (!dom.ok()) {
    return Status::Internal(
        "non-strongly-connected D has no dominator: " +
        dom.status().ToString());
  }
  const std::vector<EntityId> x = report.d.EntitiesOf(dom.value());
  Result<ClosureResult> closed = CloseWithRespectTo(t1, t2, x);
  Result<UnsafetyCertificate> cert =
      closed.ok() ? BuildUnsafetyCertificate(t1, t2, x, closed.value())
                  : Result<UnsafetyCertificate>(closed.status());
  if (!cert.ok()) {
    return Status::Internal(
        "Theorem 2 certificate construction failed on a two-site pair: " +
        cert.status().ToString());
  }
  report.verdict = SafetyVerdict::kUnsafe;
  report.method = DecisionMethod::kTheorem2;
  report.detail = "D(T1,T2) is not strongly connected";
  report.certificate = std::move(cert).value();
  return report;
}

PairSafetyReport AnalyzePairSafety(const Transaction& t1,
                                   const Transaction& t2,
                                   const EngineConfig& config) {
  EngineContext ctx(config);
  return AnalyzePairSafety(t1, t2, &ctx);
}

PairSafetyReport AnalyzePairSafety(const Transaction& t1,
                                   const Transaction& t2,
                                   EngineContext* ctx) {
  return DecisionPipeline::Default().Decide(t1, t2, ctx);
}

}  // namespace dislock
