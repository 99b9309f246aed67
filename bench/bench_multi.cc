// E11: Proposition 2 scaling — many-transaction safety analysis as the
// number of transactions k grows. Condition (a) costs O(k^2) pair tests;
// condition (b) enumerates directed cycles of G, which is where the
// (already centralized) coNP-hardness shows up: dense conflict graphs have
// exponentially many cycles, so the cycle budget dominates.

#include <benchmark/benchmark.h>

#include "core/multi.h"
#include "core/policy.h"
#include "gen/family.h"
#include "graph/cycles.h"
#include "sim/workload.h"

namespace dislock {
namespace {

/// Both scaling workloads come from the shared family registry
/// (src/gen/family.h) — the same definitions `dislock gen` emits as .dlt
/// traces and dislock_bench times, so every harness measures the same
/// systems. ring: Ti locks {e_i, e_(i+1 mod k)}, G is a ring with exactly
/// 2 directed k-cycles plus the 2-cycles. dense: every transaction locks
/// every entity (complete G).
Workload MakeRingSystem(int k) {
  return gen::BuildFamily("ring", {{"k", static_cast<double>(k)}}).value();
}

Workload MakeDenseSystem(int k, int entities) {
  return gen::BuildFamily("dense", {{"k", static_cast<double>(k)},
                                    {"entities",
                                     static_cast<double>(entities)}})
      .value();
}

void BM_MultiSafety_Ring(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Workload w = MakeRingSystem(k);
  int cycles = 0;
  for (auto _ : state) {
    MultiSafetyReport report = AnalyzeMultiSafety(*w.system);
    cycles = report.cycles_checked;
    benchmark::DoNotOptimize(report);
  }
  state.counters["cycles_checked"] = cycles;
  state.counters["k"] = k;
}
BENCHMARK(BM_MultiSafety_Ring)->DenseRange(3, 11, 2)
    ->Unit(benchmark::kMicrosecond);

void BM_MultiSafety_Dense(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Workload w = MakeDenseSystem(k, 3);
  int cycles = 0;
  for (auto _ : state) {
    MultiSafetyOptions options;
    options.max_cycles = 1 << 14;
    MultiSafetyReport report = AnalyzeMultiSafety(*w.system, options);
    cycles = report.cycles_checked;
    benchmark::DoNotOptimize(report);
  }
  state.counters["cycles_checked"] = cycles;
}
BENCHMARK(BM_MultiSafety_Dense)->DenseRange(3, 7, 1)
    ->Unit(benchmark::kMillisecond);

void BM_CycleEnumerationOnly(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Workload w = MakeDenseSystem(k, 3);
  Digraph g = BuildTransactionConflictGraph(*w.system);
  double count = 0;
  for (auto _ : state) {
    auto cycles = SimpleCycles(g, 1 << 16);
    count = static_cast<double>(cycles.size());
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["simple_cycles"] = count;
}
BENCHMARK(BM_CycleEnumerationOnly)->DenseRange(3, 8, 1)
    ->Unit(benchmark::kMicrosecond);

void BM_BcHasCycle(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Workload w = MakeRingSystem(k);
  SystemView view = w.system->View();
  Digraph g = BuildTransactionConflictGraph(view);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      if (g.HasArc(i, j)) pairs.emplace_back(i, j);
    }
  }
  FlatCycleChecker checker(view, pairs);
  std::vector<int> cycle(k);
  for (int i = 0; i < k; ++i) cycle[i] = i;
  for (auto _ : state) {
    bool has_cycle = checker.BcHasCycle(cycle);
    benchmark::DoNotOptimize(has_cycle);
  }
}
BENCHMARK(BM_BcHasCycle)->DenseRange(3, 11, 2)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dislock

BENCHMARK_MAIN();
