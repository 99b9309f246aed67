// The five registered decision procedures. Theorem1Scc / Theorem2TwoSite /
// Corollary2Closure / BruteForceLemma1 carry over the legacy
// AnalyzePairSafety cascade verbatim (verdicts, methods and details are
// preserved bit for bit); SatExhaustive is the stage that routes src/sat/
// into the safety engine as a >= 3-site fallback.

#include <algorithm>
#include <atomic>
#include <future>
#include <set>
#include <utility>
#include <vector>

#include "core/closure.h"
#include "core/decision/procedure.h"
#include "core/wire_keys.h"
#include "graph/dominator.h"
#include "obs/trace.h"
#include "sat/cnf.h"
#include "sat/solver.h"
#include "util/string_util.h"

namespace dislock {
namespace {

/// Shared by the closure-based stages: the Lemma 2/3 closure run on one
/// candidate dominator X (given as entity ids).
enum class ClosureOutcome {
  kProof,      // closure contradiction: X provably certifies nothing
  kUnproven,   // closure failed without a proof, or certificate failed
  kCertified,  // closed w.r.t. X and the certificate verified
};
struct ClosureAttempt {
  ClosureOutcome outcome = ClosureOutcome::kUnproven;
  std::optional<UnsafetyCertificate> certificate;
};

ClosureAttempt TryCloseDominator(const Transaction& t1, const Transaction& t2,
                                 const std::vector<EntityId>& x) {
  auto closed = CloseWithRespectTo(t1, t2, x);
  if (!closed.ok()) {
    // kUndecided from the closure is a PROOF that X cannot certify
    // unsafety (the contradiction holds in every extension pair).
    return {closed.status().code() == StatusCode::kUndecided
                ? ClosureOutcome::kProof
                : ClosureOutcome::kUnproven,
            std::nullopt};
  }
  // Closed with respect to a dominator: Corollary 2 says unsafe; construct
  // and verify the certificate from this very closure.
  auto cert = BuildUnsafetyCertificate(t1, t2, x, closed.value());
  if (!cert.ok()) return {ClosureOutcome::kUnproven, std::nullopt};
  return {ClosureOutcome::kCertified, std::move(cert).value()};
}

StageOutcome CertifiedOutcome(DecisionMethod method, std::string detail,
                              ClosureAttempt attempt, int64_t work) {
  StageOutcome out;
  out.decided = true;
  out.verdict = SafetyVerdict::kUnsafe;
  out.method = method;
  out.detail = std::move(detail);
  out.certificate = std::move(attempt.certificate);
  out.work = work;
  return out;
}

// ---------------------------------------------------------------------------
// Stage 1: Theorem 1 — D strongly connected -> safe at any number of sites.

class Theorem1SccStage : public DecisionProcedure {
 public:
  DecisionStageId stage() const override {
    return DecisionStageId::kTheorem1Scc;
  }

  bool Applicable(const PairSafetyReport&, const EngineConfig&)
      const override {
    return true;
  }

  StageOutcome Decide(const Transaction&, const Transaction&,
                      const PairSafetyReport& draft,
                      EngineContext*) const override {
    StageOutcome out;
    out.work = 1;
    if (draft.d_strongly_connected) {
      out.decided = true;
      out.verdict = SafetyVerdict::kSafe;
      out.method = DecisionMethod::kTheorem1;
      out.detail = "D(T1,T2) is strongly connected";
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Stage 2: Theorem 2 — the complete two-site procedure. Terminal whenever
// applicable: at <= 2 sites the test is exact, so nothing falls through.

class Theorem2TwoSiteStage : public DecisionProcedure {
 public:
  DecisionStageId stage() const override {
    return DecisionStageId::kTheorem2TwoSite;
  }

  bool Applicable(const PairSafetyReport& draft, const EngineConfig&)
      const override {
    return draft.sites_spanned <= 2;
  }

  StageOutcome Decide(const Transaction& t1, const Transaction& t2,
                      const PairSafetyReport&,
                      EngineContext*) const override {
    StageOutcome out;
    out.work = 1;
    out.decided = true;  // complete for its fragment, success or not
    auto two_site = TwoSiteSafetyTest(t1, t2);
    if (!two_site.ok()) {
      out.verdict = SafetyVerdict::kUnknown;
      out.detail = two_site.status().ToString();
      return out;
    }
    out.verdict = two_site->verdict;
    out.method = two_site->method;
    out.detail = std::move(two_site->detail);
    out.certificate = std::move(two_site->certificate);
    return out;
  }
};

// ---------------------------------------------------------------------------
// Stage 3: the Corollary 2 dominator-closure loop. For each dominator X of
// D, run the Lemma 2/3 closure:
//   * closure converges -> Corollary 2 -> unsafe, with certificate;
//   * closure derives a contradiction -> PROOF that no compatible pair of
//     total orders is closed with respect to X.
// Every unsafe system has an unsafe extension pair (Lemma 1), whose
// D(t1,t2) has a dominator, with respect to which the pair is closed; that
// dominator is also a dominator of D(T1,T2) (extensions only add arcs over
// the same vertex set). Hence if the enumeration covered ALL dominators and
// every closure failed with a proof, the system is SAFE. The number of
// dominators can be exponential — this is exactly where Theorem 3's
// coNP-hardness lives (dominators of the reduction encode truth
// assignments).

class Corollary2ClosureStage : public DecisionProcedure {
 public:
  DecisionStageId stage() const override {
    return DecisionStageId::kCorollary2Closure;
  }

  bool Applicable(const PairSafetyReport& draft, const EngineConfig&)
      const override {
    // >= 3 sites only: the two-site stage is terminal below that. A zero
    // max_dominators budget still counts as an (immediately exhausted)
    // attempt rather than a skip — budget exhaustion must be visible.
    return draft.sites_spanned >= 3;
  }

  StageOutcome Decide(const Transaction& t1, const Transaction& t2,
                      const PairSafetyReport& draft,
                      EngineContext* ctx) const override {
    const EngineConfig& config = ctx->config();
    StageOutcome out;

    std::vector<std::vector<NodeId>> dominators = [&] {
      obs::TraceSpan span(ctx->trace(), wire::kSpanClosureDominators);
      return AllDominators(draft.d.graph, config.max_dominators + 1);
    }();
    bool enumeration_complete =
        static_cast<int64_t>(dominators.size()) <= config.max_dominators;
    if (!enumeration_complete) dominators.pop_back();
    out.budget_exhausted = !enumeration_complete;

    auto evaluate =
        [&](const std::vector<NodeId>& dom_nodes) -> ClosureAttempt {
      // One span per closure run, from whichever thread runs it — this is
      // the loop the trace exists to make visible.
      obs::TraceSpan span(ctx->trace(), wire::kSpanClosureDominator);
      return TryCloseDominator(t1, t2, draft.d.EntitiesOf(dom_nodes));
    };
    auto certified = [&](ClosureAttempt attempt, size_t winner) {
      return CertifiedOutcome(
          DecisionMethod::kCorollary2,
          "system closes with respect to a dominator of D",
          std::move(attempt), static_cast<int64_t>(winner) + 1);
    };

    // The per-dominator closure runs are independent, so with more than one
    // worker they fan out over the shared work-stealing pool; the reduction
    // picks the first certifying dominator in enumeration order (exactly
    // what the serial scan reports) and cancels dominators past it, so the
    // report is bit-identical at any thread count.
    const size_t count = dominators.size();
    CancellationToken* token = ctx->cancel_token();
    ThreadPool* pool = ctx->pool();
    bool all_failures_proven = true;
    if (pool != nullptr && count > 1) {
      std::vector<ClosureAttempt> results(count);
      // Indices past the first certifying one are cancelled; their slots
      // stay kUnproven but are never consulted by the reduction.
      std::atomic<size_t> first_certified{count};
      std::vector<std::future<void>> futures;
      futures.reserve(count);
      for (size_t idx = 0; idx < count; ++idx) {
        futures.push_back(pool->Submit([&, idx] {
          if (token->cancelled() ||
              idx > first_certified.load(std::memory_order_acquire)) {
            return;
          }
          results[idx] = evaluate(dominators[idx]);
          if (results[idx].outcome == ClosureOutcome::kCertified) {
            size_t seen = first_certified.load(std::memory_order_acquire);
            while (idx < seen &&
                   !first_certified.compare_exchange_weak(
                       seen, idx, std::memory_order_acq_rel)) {
            }
          }
        }));
      }
      for (auto& f : futures) f.get();
      if (token->cancelled()) {
        out.detail = "analysis cancelled";
        return out;
      }
      size_t winner = first_certified.load(std::memory_order_acquire);
      if (winner < count) {
        return certified(std::move(results[winner]), winner);
      }
      for (const ClosureAttempt& r : results) {
        if (r.outcome != ClosureOutcome::kProof) all_failures_proven = false;
      }
    } else {
      for (size_t idx = 0; idx < count; ++idx) {
        if (token->cancelled()) {
          out.detail = "analysis cancelled";
          return out;
        }
        ClosureAttempt attempt = evaluate(dominators[idx]);
        if (attempt.outcome == ClosureOutcome::kCertified) {
          return certified(std::move(attempt), idx);
        }
        if (attempt.outcome != ClosureOutcome::kProof) {
          all_failures_proven = false;
        }
      }
    }
    out.work = static_cast<int64_t>(count);
    if (enumeration_complete && all_failures_proven) {
      out.decided = true;
      out.verdict = SafetyVerdict::kSafe;
      out.method = DecisionMethod::kDominatorClosure;
      out.detail = StrCat(
          "all ", dominators.size(),
          " dominators of D provably admit no closed extension pair");
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Stage 4: SatExhaustive — the src/sat/ machinery as a >= 3-site fallback.
//
// Dominators of D are exactly the nonempty proper predecessor-closed node
// subsets (graph/dominator.h), so they are the models of the CNF
//     for every arc (u, v) of D:  x_v -> x_u        (predecessor-closed)
//     (x_1 v ... v x_n)                             (nonempty)
//     (~x_1 v ... v ~x_n)                           (proper)
// over one variable per node of D. The stage enumerates models with the
// DPLL solver, blocking each found model, and runs the Lemma 2/3 closure on
// the corresponding dominator — Theorem 3 run in reverse: where the paper
// compiles SAT into dominator search, this stage compiles dominator search
// back into SAT. Exact on the same terms as the Corollary 2 stage: a
// certified closure is UNSAFE; a completed (UNSAT-terminated) enumeration
// whose closures all derived contradictions is SAFE.
//
// Its value over stage 3 is the search order: DPLL branching homes in on a
// certifying model without materializing the (possibly exponential)
// dominator list that AllDominators builds eagerly, and the per-solve
// decision budget composes into one cumulative config.max_sat_decisions.

class SatExhaustiveStage : public DecisionProcedure {
 public:
  DecisionStageId stage() const override {
    return DecisionStageId::kSatExhaustive;
  }

  bool Applicable(const PairSafetyReport& draft,
                  const EngineConfig& config) const override {
    return draft.sites_spanned >= 3 && config.max_sat_decisions > 0;
  }

  StageOutcome Decide(const Transaction& t1, const Transaction& t2,
                      const PairSafetyReport& draft,
                      EngineContext* ctx) const override {
    StageOutcome out;
    const Digraph& d = draft.d.graph;
    const int n = d.NumNodes();
    if (n < 2) return out;  // no proper nonempty subset can be interesting

    // Predecessor-closure clauses, deduplicated (D may carry parallel
    // arcs); variables are 1-based DIMACS, node v <-> variable v + 1.
    std::set<std::pair<int, int>> arcs;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v : d.OutNeighbors(u)) {
        arcs.emplace(static_cast<int>(u), static_cast<int>(v));
      }
    }
    std::vector<std::vector<int>> clauses;
    clauses.reserve(arcs.size() + 2);
    for (const auto& [u, v] : arcs) {
      if (u == v) continue;
      clauses.push_back({-(v + 1), u + 1});
    }
    std::vector<int> nonempty;
    std::vector<int> proper;
    for (int v = 1; v <= n; ++v) {
      nonempty.push_back(v);
      proper.push_back(-v);
    }
    clauses.push_back(std::move(nonempty));
    clauses.push_back(std::move(proper));
    Cnf cnf = MakeCnf(n, clauses);

    CancellationToken* token = ctx->cancel_token();
    int64_t remaining = ctx->config().max_sat_decisions;
    int64_t models = 0;
    bool all_failures_proven = true;
    obs::TraceSpan models_span(ctx->trace(), wire::kSpanSatModels);
    while (true) {
      if (token->cancelled()) {
        out.detail = "analysis cancelled";
        out.work = models;
        return out;
      }
      if (remaining <= 0) {
        out.budget_exhausted = true;
        out.detail = StrCat("SAT dominator enumeration exceeded ",
                            ctx->config().max_sat_decisions,
                            " DPLL decisions after ", models, " models");
        out.work = models;
        return out;
      }
      auto solved = SolveSat(cnf, remaining);
      if (!solved.ok()) {
        out.budget_exhausted =
            solved.status().code() == StatusCode::kResourceExhausted;
        out.detail = solved.status().ToString();
        out.work = models;
        return out;
      }
      remaining -= std::max<int64_t>(int64_t{1}, solved->decisions);
      if (!solved->satisfiable) break;  // all dominators enumerated
      ++models;

      std::vector<NodeId> dom_nodes;
      std::vector<int> blocking;
      blocking.reserve(n);
      for (int v = 1; v <= n; ++v) {
        if (solved->assignment[v]) {
          dom_nodes.push_back(static_cast<NodeId>(v - 1));
          blocking.push_back(-v);
        } else {
          blocking.push_back(v);
        }
      }
      ClosureAttempt attempt =
          TryCloseDominator(t1, t2, draft.d.EntitiesOf(dom_nodes));
      if (attempt.outcome == ClosureOutcome::kCertified) {
        return CertifiedOutcome(
            DecisionMethod::kSatExhaustive,
            StrCat("SAT-guided dominator search: model ", models,
                   " closes with respect to a dominator of D"),
            std::move(attempt), models);
      }
      if (attempt.outcome != ClosureOutcome::kProof) {
        all_failures_proven = false;
      }
      Clause block;
      block.reserve(blocking.size());
      for (int lit : blocking) block.push_back(Literal::FromEncoded(lit));
      cnf.clauses.push_back(std::move(block));
    }
    out.work = models;
    if (all_failures_proven) {
      out.decided = true;
      out.verdict = SafetyVerdict::kSafe;
      out.method = DecisionMethod::kSatExhaustive;
      out.detail = StrCat("SAT enumeration exhausted all ", models,
                          " dominators of D; every closure derives a "
                          "contradiction");
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Stage 5: the exhaustive Lemma 1 fallback — enumerate extension pairs.

class BruteForceLemma1Stage : public DecisionProcedure {
 public:
  DecisionStageId stage() const override {
    return DecisionStageId::kBruteForceLemma1;
  }

  bool Applicable(const PairSafetyReport&, const EngineConfig& config)
      const override {
    return config.max_extension_pairs > 0;
  }

  StageOutcome Decide(const Transaction& t1, const Transaction& t2,
                      const PairSafetyReport&,
                      EngineContext* ctx) const override {
    StageOutcome out;
    auto exhaustive =
        ExhaustivePairSafety(t1, t2, ctx->config().max_extension_pairs);
    if (!exhaustive.ok()) {
      out.budget_exhausted =
          exhaustive.status().code() == StatusCode::kResourceExhausted;
      out.detail = exhaustive.status().ToString();
      return out;
    }
    out.decided = true;
    out.method = DecisionMethod::kExhaustive;
    out.work = exhaustive->combinations_checked;
    if (exhaustive->safe) {
      out.verdict = SafetyVerdict::kSafe;
      out.detail = StrCat("all ", exhaustive->combinations_checked,
                          " extension pairs are safe");
    } else {
      out.verdict = SafetyVerdict::kUnsafe;
      out.certificate = std::move(exhaustive->certificate);
      out.detail = "an unsafe pair of linear extensions exists";
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<DecisionProcedure> MakeTheorem1SccStage() {
  return std::make_unique<Theorem1SccStage>();
}
std::unique_ptr<DecisionProcedure> MakeTheorem2TwoSiteStage() {
  return std::make_unique<Theorem2TwoSiteStage>();
}
std::unique_ptr<DecisionProcedure> MakeCorollary2ClosureStage() {
  return std::make_unique<Corollary2ClosureStage>();
}
std::unique_ptr<DecisionProcedure> MakeSatExhaustiveStage() {
  return std::make_unique<SatExhaustiveStage>();
}
std::unique_ptr<DecisionProcedure> MakeBruteForceLemma1Stage() {
  return std::make_unique<BruteForceLemma1Stage>();
}

}  // namespace dislock
