// Ablations for the design choices behind the Theorem 2 certificate
// pipeline (closure -> ancestor-first topological sorts -> separating
// curve):
//   * phase cost breakdown (closure vs full pipeline);
//   * the sort construction: the proof's ancestor-first sorts vs a naive
//     greedy Kahn priority sort. The naive sort frequently produces
//     extension pairs whose D(t1,t2) is strongly connected, i.e. NO
//     separating schedule exists for them — measured here as a success
//     rate, this is why the ancestor-first construction matters.

#include <benchmark/benchmark.h>

#include <set>

#include "core/certificate.h"
#include "core/closure.h"
#include "core/conflict_graph.h"
#include "graph/dominator.h"
#include "graph/scc.h"
#include "graph/topological.h"
#include "sat/reduction.h"
#include "txn/linear_extension.h"
#include "util/random.h"

namespace dislock {
namespace {

/// Reduction instances make good ablation subjects: wide partial orders
/// with many forced gadget precedences.
ReductionOutput MakeSubject(int num_vars, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> clauses;
  for (int v = 1; v + 1 <= num_vars; v += 2) {
    clauses.push_back({v, v + 1});
    clauses.push_back({-v, v + 1});
  }
  Cnf f = MakeCnf(num_vars, clauses);
  auto red = ReduceCnfToTransactions(f);
  DISLOCK_CHECK(red.ok()) << red.status().ToString();
  return std::move(red).value();
}

/// A satisfying-assignment dominator of the subject (all variables true).
std::vector<EntityId> SatisfyingDominator(const ReductionOutput& red) {
  std::vector<bool> assignment(red.formula.num_vars + 1, true);
  return AssignmentToDominator(red, assignment);
}

void BM_Phase_ClosureOnly(benchmark::State& state) {
  ReductionOutput red = MakeSubject(static_cast<int>(state.range(0)), 7);
  std::vector<EntityId> dom = SatisfyingDominator(red);
  for (auto _ : state) {
    auto closed = CloseWithRespectTo(red.system->txn(0), red.system->txn(1),
                                     dom);
    benchmark::DoNotOptimize(closed);
  }
}
BENCHMARK(BM_Phase_ClosureOnly)->DenseRange(2, 6, 2)
    ->Unit(benchmark::kMicrosecond);

void BM_Phase_FullCertificate(benchmark::State& state) {
  ReductionOutput red = MakeSubject(static_cast<int>(state.range(0)), 7);
  std::vector<EntityId> dom = SatisfyingDominator(red);
  for (auto _ : state) {
    auto closed = CloseWithRespectTo(red.system->txn(0), red.system->txn(1),
                                     dom);
    DISLOCK_CHECK(closed.ok());
    auto cert = BuildUnsafetyCertificate(red.system->txn(0),
                                         red.system->txn(1), dom, *closed);
    benchmark::DoNotOptimize(cert);
  }
}
BENCHMARK(BM_Phase_FullCertificate)->DenseRange(2, 6, 2)
    ->Unit(benchmark::kMicrosecond);

/// Sort-construction ablation: after closing with respect to X, linearize
/// with (a) the ancestor-first sorts of the proof and (b) a naive greedy
/// Kahn sort that merely prefers X-unlocks / defers X-locks, then check
/// whether D(t1, t2) still admits any dominator (a separating schedule can
/// exist only if it does). Counters report the success rate of each.
void BM_SortAblation(benchmark::State& state) {
  ReductionOutput red = MakeSubject(static_cast<int>(state.range(0)), 7);
  std::vector<EntityId> dom = SatisfyingDominator(red);
  auto closed = CloseWithRespectTo(red.system->txn(0), red.system->txn(1),
                                   dom);
  DISLOCK_CHECK(closed.ok());
  const Transaction& c1 = closed->t1;
  const Transaction& c2 = closed->t2;
  std::set<EntityId> x_set(dom.begin(), dom.end());

  auto separable = [&](const std::vector<NodeId>& o1,
                       const std::vector<NodeId>& o2) {
    auto l1 = Linearize(c1, {o1.begin(), o1.end()});
    auto l2 = Linearize(c2, {o2.begin(), o2.end()});
    ConflictGraph d = BuildConflictGraph(*l1, *l2);
    return !IsStronglyConnected(d.graph);
  };

  int64_t ancestor_ok = 0;
  int64_t untied_ok = 0;
  int64_t naive_ok = 0;
  int64_t rounds = 0;
  for (auto _ : state) {
    ++rounds;
    // (a) Ancestor-first construction with the proof's tie-break (what the
    // library ships): X-locks of t2 ordered by t1's X-unlock positions.
    std::vector<NodeId> priority1;
    for (StepId s = 0; s < c1.NumSteps(); ++s) {
      const Step& st = c1.GetStep(s);
      if (st.kind == StepKind::kUnlock && x_set.count(st.entity) > 0) {
        priority1.push_back(s);
      }
    }
    auto o1 = AncestorFirstTopologicalSort(c1.order(), priority1);
    std::vector<int> pos1(c1.NumSteps(), 0);
    for (size_t i = 0; i < o1->size(); ++i) pos1[(*o1)[i]] = i;
    std::vector<NodeId> priority2;
    for (StepId s = 0; s < c2.NumSteps(); ++s) {
      const Step& st = c2.GetStep(s);
      if (st.kind == StepKind::kLock && x_set.count(st.entity) > 0) {
        priority2.push_back(s);
      }
    }
    std::vector<NodeId> priority2_tied = priority2;
    std::sort(priority2_tied.begin(), priority2_tied.end(),
              [&](NodeId a, NodeId b) {
                StepId ua = c1.UnlockStep(c2.GetStep(a).entity);
                StepId ub = c1.UnlockStep(c2.GetStep(b).entity);
                if (ua != kInvalidStep && ub != kInvalidStep && ua != ub) {
                  return pos1[ua] > pos1[ub];
                }
                return a > b;
              });
    auto ro2 =
        AncestorFirstTopologicalSort(ReverseOf(c2.order()), priority2_tied);
    std::vector<NodeId> o2(ro2->rbegin(), ro2->rend());
    if (separable(*o1, o2)) ++ancestor_ok;

    // (a') Ancestor-first WITHOUT the tie-break (X-locks in id order): the
    // proof's "recall the way we broke ties" step is load-bearing.
    auto ro2u = AncestorFirstTopologicalSort(ReverseOf(c2.order()),
                                             priority2);
    std::vector<NodeId> o2u(ro2u->rbegin(), ro2u->rend());
    if (separable(*o1, o2u)) ++untied_ok;

    // (b) Naive greedy Kahn sorts.
    auto n1 = PriorityTopologicalSort(c1.order(), [&](NodeId a, NodeId b) {
      auto rank = [&](NodeId s) {
        const Step& st = c1.GetStep(s);
        return st.kind == StepKind::kUnlock && x_set.count(st.entity) > 0
                   ? 0
                   : 1;
      };
      if (rank(a) != rank(b)) return rank(a) < rank(b);
      return a < b;
    });
    auto n2 = PriorityTopologicalSort(c2.order(), [&](NodeId a, NodeId b) {
      auto rank = [&](NodeId s) {
        const Step& st = c2.GetStep(s);
        return st.kind == StepKind::kLock && x_set.count(st.entity) > 0 ? 1
                                                                        : 0;
      };
      if (rank(a) != rank(b)) return rank(a) < rank(b);
      return a < b;
    });
    if (separable(*n1, *n2)) ++naive_ok;
    benchmark::DoNotOptimize(rounds);
  }
  state.counters["ancestor_first_success"] =
      rounds > 0 ? static_cast<double>(ancestor_ok) / rounds : 0;
  state.counters["no_tiebreak_success"] =
      rounds > 0 ? static_cast<double>(untied_ok) / rounds : 0;
  state.counters["naive_kahn_success"] =
      rounds > 0 ? static_cast<double>(naive_ok) / rounds : 0;
}
BENCHMARK(BM_SortAblation)->DenseRange(2, 6, 2)
    ->Unit(benchmark::kMicrosecond);

/// Dominator choice ablation: Corollary 2 can be attempted on any
/// dominator; the minimal one (a single source SCC) closes fastest.
void BM_DominatorChoice(benchmark::State& state) {
  ReductionOutput red = MakeSubject(4, 9);
  ConflictGraph d = BuildConflictGraph(red.system->txn(0),
                                       red.system->txn(1));
  auto dominators = AllDominators(d.graph, 1 << 10);
  int64_t closed_count = 0;
  for (auto _ : state) {
    int64_t n = 0;
    for (const auto& dom : dominators) {
      auto closed = CloseWithRespectTo(red.system->txn(0),
                                       red.system->txn(1),
                                       d.EntitiesOf(dom));
      if (closed.ok()) ++n;
    }
    closed_count = n;
    benchmark::DoNotOptimize(n);
  }
  state.counters["dominators"] = static_cast<double>(dominators.size());
  state.counters["closable"] = static_cast<double>(closed_count);
}
BENCHMARK(BM_DominatorChoice)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dislock

BENCHMARK_MAIN();
