#include "analysis/passes.h"
#include "core/conflict_graph.h"
#include "util/string_util.h"

namespace dislock {
namespace {

std::string PairName(const TransactionSystem& system, int i, int j) {
  return StrCat("{", system.txn(i).name(), ", ", system.txn(j).name(), "}");
}

/// DL002-DL005: runs the paper's pairwise decision procedure
/// (AnalyzePairSafety) on every unordered pair and renders its verdict as
/// diagnostics. Unsafe verdicts carry the verified certificate — the
/// concrete pair of total orders plus a legal non-serializable schedule.
class PairSafetyPass : public AnalysisPass {
 public:
  const char* name() const override { return "pair-safety"; }
  const char* description() const override {
    return "per-pair safety verdicts with unsafety certificates "
           "(DL002-DL005)";
  }

  void Run(AnalysisContext* ctx, std::vector<Diagnostic>* out) override {
    const TransactionSystem& system = ctx->system();
    for (int i = 0; i < system.NumTransactions(); ++i) {
      for (int j = i + 1; j < system.NumTransactions(); ++j) {
        Emit(ctx, i, j, out);
      }
    }
  }

 private:
  void Emit(AnalysisContext* ctx, int i, int j,
            std::vector<Diagnostic>* out) {
    const TransactionSystem& system = ctx->system();
    const PairSafetyReport& report = ctx->PairReport(i, j);
    Diagnostic d;
    d.location.txn = i;
    d.location.other_txn = j;
    std::string d_text = ConflictGraphToString(report.d, ctx->db());
    switch (report.verdict) {
      case SafetyVerdict::kSafe:
        d.severity = DiagSeverity::kNote;
        d.rule = "DL003";
        if (report.method == DecisionMethod::kTheorem1) {
          d.message = StrCat(
              "pair ", PairName(system, i, j), " is safe: D(T1,T2) = [",
              d_text, "] is strongly connected (Theorem 1; holds at any "
              "number of sites)");
        } else {
          d.message = StrCat(
              "pair ", PairName(system, i, j), " is safe (method: ",
              DecisionMethodName(report.method), "): ", report.detail);
        }
        break;
      case SafetyVerdict::kUnsafe:
        d.severity = DiagSeverity::kError;
        // At <= 2 sites unsafety is the exact Theorem 2 criterion; at >= 3
        // sites it comes from a closed dominator (Corollary 2) or the
        // exhaustive Lemma 1 fallback.
        d.rule = report.sites_spanned <= 2 ? "DL002" : "DL004";
        d.message = StrCat(
            "pair ", PairName(system, i, j), " spanning ",
            report.sites_spanned, " site(s) is UNSAFE (method: ",
            DecisionMethodName(report.method), "): D(T1,T2) = [", d_text,
            "] is not strongly connected; a legal non-serializable "
            "schedule exists (certificate attached)");
        d.fix_hint = StrCat(
            "extend the lock sections so every commonly locked entity's "
            "section overlaps the others' in both transactions (making "
            "D(T1,T2) strongly connected), or make both transactions "
            "two-phase");
        d.certificate = report.certificate;
        if (d.certificate.has_value() && !d.certificate->dominator.empty()) {
          d.location.entity = d.certificate->dominator.front();
        }
        break;
      case SafetyVerdict::kUnknown:
        d.severity = DiagSeverity::kWarning;
        d.rule = "DL005";
        d.message = StrCat(
            "pair ", PairName(system, i, j), " spanning ",
            report.sites_spanned,
            " site(s) could not be decided within budget (this regime is "
            "coNP-complete, Theorem 3): ", report.detail);
        d.fix_hint =
            "raise EngineConfig budgets (max_dominators, "
            "max_extension_pairs) or reduce the number of sites the pair "
            "spans";
        break;
    }
    out->push_back(std::move(d));
  }
};

}  // namespace

std::unique_ptr<AnalysisPass> MakePairSafetyPass() {
  return std::make_unique<PairSafetyPass>();
}

}  // namespace dislock
