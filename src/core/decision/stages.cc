// The four registered decision procedures: Theorem1Scc, Theorem2TwoSite,
// Corollary2Closure (the one dominator search) and BruteForceLemma1.

#include <atomic>
#include <future>
#include <utility>
#include <vector>

#include "core/closure.h"
#include "core/decision/procedure.h"
#include "core/wire_keys.h"
#include "graph/dominator.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace dislock {
namespace {

/// The Lemma 2/3 closure run on one candidate dominator X (given as entity
/// ids) by the dominator search.
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
//
// Dominators stream from EnumerateDominators and each is closed as it
// arrives, so the stage stops at the first that certifies and never holds
// more than one batch. `max_dominators` is the one budget of the search.

/// Dominators closed per pool fan-out. Each batch is a barrier: the first
/// certifying index of the first batch that has one is exactly what the
/// serial scan finds, so reports stay bit-identical at any thread count.
constexpr size_t kClosureBatch = 128;

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
    const int64_t budget = ctx->config().max_dominators;
    CancellationToken* token = ctx->cancel_token();
    ThreadPool* pool = ctx->pool();
    const size_t batch_size = pool != nullptr ? kClosureBatch : 1;

    auto evaluate = [&](const std::vector<EntityId>& x) -> ClosureAttempt {
      // One span per closure run, from whichever thread runs it — this is
      // the loop the trace exists to make visible.
      obs::TraceSpan span(ctx->trace(), wire::kSpanClosureDominator);
      return TryCloseDominator(t1, t2, x);
    };

    std::vector<std::vector<EntityId>> batch;
    std::vector<ClosureAttempt> results;
    int64_t closed = 0;  // dominators closed in earlier batches, all failed
    size_t first = 0;    // first certifying index of the pending batch
    bool over_budget = false;
    bool all_failures_proven = true;

    // Closes the pending batch. Returns false, leaving the batch in place,
    // once one of it certifies or the analysis is cancelled.
    auto close_batch = [&]() -> bool {
      const size_t count = batch.size();
      results.assign(count, ClosureAttempt{});
      // Indices past the first certifying one are skipped; their slots
      // stay kUnproven but are never consulted.
      std::atomic<size_t> first_certified{count};
      auto close = [&](size_t idx) {
        if (token->cancelled() ||
            idx > first_certified.load(std::memory_order_acquire)) {
          return;
        }
        results[idx] = evaluate(batch[idx]);
        if (results[idx].outcome != ClosureOutcome::kCertified) return;
        size_t seen = first_certified.load(std::memory_order_acquire);
        while (idx < seen && !first_certified.compare_exchange_weak(
                                 seen, idx, std::memory_order_acq_rel)) {
        }
      };
      if (pool != nullptr && count > 1) {
        std::vector<std::future<void>> futures;
        futures.reserve(count);
        for (size_t idx = 0; idx < count; ++idx) {
          futures.push_back(pool->Submit([&close, idx] { close(idx); }));
        }
        for (auto& f : futures) f.get();
      } else {
        for (size_t idx = 0; idx < count; ++idx) close(idx);
      }
      first = first_certified.load(std::memory_order_acquire);
      if (token->cancelled() || first < count) return false;
      for (const ClosureAttempt& r : results) {
        if (r.outcome != ClosureOutcome::kProof) all_failures_proven = false;
      }
      closed += static_cast<int64_t>(count);
      batch.clear();
      return true;
    };

    const bool complete = EnumerateDominators(
        draft.d.graph, [&](const std::vector<NodeId>& dom_nodes) {
          if (closed + static_cast<int64_t>(batch.size()) == budget) {
            over_budget = true;
            return false;
          }
          batch.push_back(draft.d.EntitiesOf(dom_nodes));
          return batch.size() < batch_size || close_batch();
        });
    if (complete || over_budget) close_batch();

    StageOutcome out;
    if (token->cancelled()) {
      out.detail = "analysis cancelled";
      return out;
    }
    if (first < batch.size()) {
      out.decided = true;
      out.verdict = SafetyVerdict::kUnsafe;
      out.method = DecisionMethod::kCorollary2;
      out.detail = "system closes with respect to a dominator of D";
      out.certificate = std::move(results[first].certificate);
      out.work = closed + static_cast<int64_t>(first) + 1;
      return out;
    }
    out.work = closed;
    if (over_budget) {
      out.budget_exhausted = true;
      out.detail = StrCat("dominator search exceeded max_dominators = ",
                          budget, " without a closed dominator");
    } else if (complete && all_failures_proven) {
      out.decided = true;
      out.verdict = SafetyVerdict::kSafe;
      out.method = DecisionMethod::kDominatorClosure;
      out.detail = StrCat(
          "all ", closed,
          " dominators of D provably admit no closed extension pair");
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Stage 4: the exhaustive Lemma 1 fallback — enumerate extension pairs.

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
std::unique_ptr<DecisionProcedure> MakeBruteForceLemma1Stage() {
  return std::make_unique<BruteForceLemma1Stage>();
}

}  // namespace dislock
