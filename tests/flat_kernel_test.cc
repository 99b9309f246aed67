// Differential tests of the engine's CSR + bitset kernels (graph/csr.h and
// the graph, closure, fingerprint and B_c entry points built on it) against
// the naive reference kernels of tests/reference_kernels.h — the original
// pointer-heavy implementations, kept for exactly this comparison — plus
// unit tests of the Arena allocator that backs them.
//
// The kernels promise BYTE-IDENTICAL results, not merely equivalent
// verdicts: component numberings, enumeration orders, Status messages and
// serialized reports must all match, because the engine's deterministic
// serial-scan replay (core/multi.h) folds those orders into user-visible
// counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/brute_force.h"
#include "core/certificate.h"
#include "core/closure.h"
#include "core/conflict_graph.h"
#include "core/decision/context.h"
#include "core/incremental/engine.h"
#include "core/multi.h"
#include "core/report.h"
#include "cache/verdict_cache.h"
#include "graph/csr.h"
#include "graph/cycles.h"
#include "graph/digraph.h"
#include "graph/dominator.h"
#include "graph/reachability.h"
#include "graph/scc.h"
#include "reference_kernels.h"
#include "sim/workload.h"
#include "txn/catalog.h"
#include "txn/system.h"
#include "util/arena.h"
#include "util/random.h"
#include "util/string_util.h"

namespace dislock {
namespace {

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

TEST(Arena, GrowsThenRunsAllocationFreeAfterReset) {
  Arena arena(64);
  arena.AllocateArray<uint64_t>(100);  // forces growth past 64 bytes
  arena.AllocateArray<uint64_t>(100);
  EXPECT_GE(arena.BytesUsed(), 1600u);
  arena.Reset();
  EXPECT_EQ(arena.BytesUsed(), 0u);
  // Reset coalesced to the high-water mark: the same workload now fits in
  // the single retained block.
  EXPECT_EQ(arena.NumBlocks(), 1u);
  size_t capacity = arena.BytesCapacity();
  arena.AllocateArray<uint64_t>(100);
  arena.AllocateArray<uint64_t>(100);
  EXPECT_EQ(arena.NumBlocks(), 1u);
  EXPECT_EQ(arena.BytesCapacity(), capacity);
}

TEST(Arena, ZeroedAllocationIsZero) {
  Arena arena;
  uint64_t* p = arena.AllocateZeroed<uint64_t>(37);
  for (size_t i = 0; i < 37; ++i) EXPECT_EQ(p[i], 0u);
}

TEST(ArenaScope, RewindsNestedScopes) {
  Arena arena(1 << 12);
  arena.AllocateArray<int>(10);
  size_t outer_used = arena.BytesUsed();
  {
    ArenaScope scope(&arena);
    arena.AllocateArray<int>(1000);
    {
      ArenaScope inner(&arena);
      arena.AllocateArray<int>(50);
    }
    EXPECT_GT(arena.BytesUsed(), outer_used);
  }
  EXPECT_EQ(arena.BytesUsed(), outer_used);
  // The rewound bytes are handed out again — same block, no growth.
  size_t blocks = arena.NumBlocks();
  {
    ArenaScope scope(&arena);
    arena.AllocateArray<int>(1000);
  }
  EXPECT_EQ(arena.NumBlocks(), blocks);
}

// ---------------------------------------------------------------------------
// Graph-kernel differentials on random digraphs
// ---------------------------------------------------------------------------

Digraph RandomDigraph(int n, double arc_probability, bool allow_self_loops,
                      Rng* rng) {
  Digraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v && !allow_self_loops) continue;
      if (rng->Uniform(1000) < static_cast<uint64_t>(arc_probability * 1000)) {
        g.AddArc(u, v);
      }
    }
  }
  return g;
}

TEST(FlatKernel, CsrPreservesAdjacencyOrder) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    int n = 1 + static_cast<int>(rng.Uniform(12));
    Digraph g = RandomDigraph(n, 0.3, /*allow_self_loops=*/true, &rng);
    Arena arena;
    CsrGraph csr = BuildCsr(g, &arena);
    ASSERT_EQ(csr.NumNodes(), g.NumNodes());
    for (NodeId u = 0; u < n; ++u) {
      std::vector<NodeId> got(csr.begin(u), csr.end(u));
      EXPECT_EQ(got, g.OutNeighbors(u)) << "u=" << u;
    }
    CsrGraph rev = BuildReverseCsr(g, &arena);
    for (NodeId u = 0; u < n; ++u) {
      std::vector<NodeId> got(rev.begin(u), rev.end(u));
      EXPECT_EQ(got, g.InNeighbors(u)) << "u=" << u;
    }
  }
}

TEST(FlatKernel, SccMatchesLegacyNumberingExactly) {
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    int n = static_cast<int>(rng.Uniform(15));
    Digraph g = RandomDigraph(n, 0.25, /*allow_self_loops=*/true, &rng);
    reference::Scc ref = reference::StronglyConnectedComponents(g);
    Arena arena;
    FlatScc got = SccOnCsr(BuildCsr(g, &arena), &arena);
    ASSERT_EQ(got.num_components, ref.num_components) << "trial " << trial;
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(got.component[v], ref.component[v])
          << "trial " << trial << " v=" << v;
    }
    EXPECT_EQ(IsStronglyConnected(g), ref.num_components <= 1);
  }
}

TEST(FlatKernel, GroupSccMembersMatchesLegacyMemberLists) {
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    int n = 1 + static_cast<int>(rng.Uniform(12));
    Digraph g = RandomDigraph(n, 0.3, /*allow_self_loops=*/false, &rng);
    reference::Scc ref = reference::StronglyConnectedComponents(g);
    Arena arena;
    FlatScc got = SccOnCsr(BuildCsr(g, &arena), &arena);
    FlatSccMembers members = GroupSccMembers(got, n, &arena);
    for (int c = 0; c < got.num_components; ++c) {
      std::vector<NodeId> flat_members(members.nodes + members.offsets[c],
                                       members.nodes + members.offsets[c + 1]);
      std::vector<NodeId> ref_sorted = ref.members[c];
      std::sort(ref_sorted.begin(), ref_sorted.end());
      EXPECT_EQ(flat_members, ref_sorted) << "trial " << trial;
    }
  }
}

TEST(FlatKernel, ReachabilityFlatEqualsLegacy) {
  Rng rng(14);
  for (int trial = 0; trial < 40; ++trial) {
    int n = static_cast<int>(rng.Uniform(14));
    // Mix DAG-ish sparse and cyclic dense graphs: the CSR closure takes a
    // Kahn fast path on DAGs and condenses SCCs on cyclic graphs.
    double p = trial % 2 == 0 ? 0.15 : 0.4;
    Digraph g = RandomDigraph(n, p, /*allow_self_loops=*/true, &rng);
    Reachability got(g);
    std::vector<std::vector<bool>> ref = reference::Reachable(g);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(got.Reaches(u, v), ref[u][v])
            << "trial " << trial << " u=" << u << " v=" << v;
      }
    }
  }
}

TEST(FlatKernel, CyclesFlatEqualsLegacyIncludingOrder) {
  Rng rng(15);
  for (int trial = 0; trial < 40; ++trial) {
    int n = static_cast<int>(rng.Uniform(9));
    Digraph g = RandomDigraph(n, 0.3, /*allow_self_loops=*/true, &rng);
    EXPECT_EQ(HasCycle(g), reference::HasCycle(g)) << "trial " << trial;
    // Exact sequence equality: same cycles, same enumeration order. Also
    // exercised with a budget small enough to truncate.
    for (int64_t max_cycles : {int64_t{1} << 20, int64_t{5}}) {
      EXPECT_EQ(SimpleCycles(g, max_cycles),
                reference::SimpleCycles(g, max_cycles))
          << "trial " << trial << " max_cycles=" << max_cycles;
    }
  }
}

TEST(FlatKernel, DominatorsFlatEqualsLegacyIncludingOrder) {
  Rng rng(16);
  for (int trial = 0; trial < 40; ++trial) {
    int n = static_cast<int>(rng.Uniform(10));
    Digraph g = RandomDigraph(n, 0.3, /*allow_self_loops=*/false, &rng);
    auto ref = reference::FindDominator(g);
    auto got = FindDominator(g);
    ASSERT_EQ(got.ok(), ref.ok()) << "trial " << trial;
    if (got.ok()) {
      EXPECT_EQ(got.value(), ref.value()) << "trial " << trial;
    } else {
      EXPECT_EQ(got.status().ToString(), ref.status().ToString());
    }
    // The stream in full, then stopped after every k: AllDominators(g, k)
    // is the stream's first k.
    const auto all = reference::AllDominators(g, int64_t{1} << 16);
    std::vector<std::vector<NodeId>> streamed;
    EXPECT_TRUE(EnumerateDominators(g, [&](const std::vector<NodeId>& x) {
      streamed.push_back(x);
      return true;
    })) << "trial " << trial;
    EXPECT_EQ(streamed, all) << "trial " << trial;
    for (size_t k = 1; k <= all.size(); ++k) {
      EXPECT_EQ(AllDominators(g, static_cast<int64_t>(k)),
                reference::AllDominators(g, static_cast<int64_t>(k)))
          << "trial " << trial << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Closure and fingerprint differentials on random transaction pairs
// ---------------------------------------------------------------------------

void ExpectSameClosure(const Transaction& t1, const Transaction& t2,
                       const std::vector<EntityId>& x_set, const char* what) {
  auto ref = reference::CloseWithRespectTo(t1, t2, x_set);
  auto got = CloseWithRespectTo(t1, t2, x_set);
  ASSERT_EQ(got.ok(), ref.ok()) << what;
  if (!got.ok()) {
    EXPECT_EQ(got.status().ToString(), ref.status().ToString()) << what;
    return;
  }
  EXPECT_EQ(got.value().precedences_added, ref.value().precedences_added)
      << what;
  EXPECT_EQ(got.value().iterations, ref.value().iterations) << what;
  EXPECT_EQ(got.value().t1.ToString(), ref.value().t1.ToString()) << what;
  EXPECT_EQ(got.value().t2.ToString(), ref.value().t2.ToString()) << what;
}

TEST(FlatKernel, ClosureFlatEqualsLegacyOnRandomPairs) {
  Rng rng(17);
  int interesting = 0;
  for (int trial = 0; trial < 60; ++trial) {
    WorkloadParams params;
    params.num_sites = 1 + static_cast<int>(rng.Uniform(3));
    params.num_entities = 3 + static_cast<int>(rng.Uniform(5));
    params.num_transactions = 2;
    params.lock_probability = 0.8;
    params.cross_site_arcs = static_cast<int>(rng.Uniform(4));
    Workload w = MakeRandomWorkload(params, &rng);
    const Transaction& t1 = w.system->txn(0);
    const Transaction& t2 = w.system->txn(1);
    std::vector<EntityId> common = ConflictingEntities(t1, t2);
    if (common.empty()) continue;
    ++interesting;
    // Candidate X: each singleton, a prefix, the full common set, a set
    // with a duplicate, and one with a non-common entity.
    for (EntityId e : common) {
      ExpectSameClosure(t1, t2, {e}, "singleton");
    }
    if (common.size() >= 2) {
      std::vector<EntityId> prefix(common.begin(), common.end() - 1);
      ExpectSameClosure(t1, t2, prefix, "prefix");
      ExpectSameClosure(t1, t2, {common[0], common[0]}, "duplicate");
    }
    ExpectSameClosure(t1, t2, common, "full set");
    // A valid database entity that is not commonly locked, if one exists.
    for (EntityId e = 0; e < params.num_entities; ++e) {
      if (!std::binary_search(common.begin(), common.end(), e)) {
        ExpectSameClosure(t1, t2, {common[0], e}, "non-common");
        break;
      }
    }
  }
  // The generator parameters above must actually produce conflicting pairs.
  EXPECT_GT(interesting, 10);
}

// The streaming Lemma 1 oracle against the materializing reference, at
// every budget from 0 to one past the pairs a decision needs: budgets that
// decide, run out mid-pair, and reject T1 or T2 outright.
TEST(FlatKernel, StreamedLemma1OracleMatchesMaterializingReference) {
  Rng rng(19);
  int unsafe = 0;
  int exhausted = 0;
  for (int trial = 0; trial < 40; ++trial) {
    WorkloadParams params;
    params.num_sites = 1 + static_cast<int>(rng.Uniform(4));
    params.num_entities = 2 + static_cast<int>(rng.Uniform(3));
    params.num_transactions = 2;
    params.lock_probability = 0.8;
    params.cross_site_arcs = static_cast<int>(rng.Uniform(4));
    Workload w = MakeRandomWorkload(params, &rng);
    const Transaction& t1 = w.system->txn(0);
    const Transaction& t2 = w.system->txn(1);
    auto full = reference::ExhaustivePairSafety(t1, t2, int64_t{1} << 16);
    const int64_t needed = full.ok() ? full->combinations_checked : 40;
    std::vector<int64_t> budgets = {int64_t{1} << 16};
    for (int64_t b = 0; b <= std::min<int64_t>(needed + 1, 64); ++b) {
      budgets.push_back(b);
    }
    for (int64_t max_pairs : budgets) {
      const std::string what = StrCat("trial ", trial, " max_pairs=",
                                      max_pairs, "\n", w.system->ToString());
      auto got = ExhaustivePairSafety(t1, t2, max_pairs);
      auto ref = reference::ExhaustivePairSafety(t1, t2, max_pairs);
      ASSERT_EQ(got.ok(), ref.ok()) << what;
      if (!got.ok()) {
        EXPECT_EQ(got.status().ToString(), ref.status().ToString()) << what;
        exhausted += got.status().code() == StatusCode::kResourceExhausted;
        continue;
      }
      EXPECT_EQ(got->safe, ref->safe) << what;
      EXPECT_EQ(got->combinations_checked, ref->combinations_checked)
          << what;
      ASSERT_EQ(got->certificate.has_value(), ref->certificate.has_value())
          << what;
      if (got->certificate.has_value()) {
        ++unsafe;
        EXPECT_EQ(CertificateToString(*got->certificate, *w.db),
                  CertificateToString(*ref->certificate, *w.db))
            << what;
      }
    }
  }
  // The sweep must reach both the unsafe and the over-budget paths.
  EXPECT_GT(unsafe, 5);
  EXPECT_GT(exhausted, 5);
}

TEST(FlatKernel, PairFingerprintMatchesReference) {
  Rng rng(18);
  for (int trial = 0; trial < 60; ++trial) {
    WorkloadParams params;
    params.num_sites = 1 + static_cast<int>(rng.Uniform(4));
    params.num_entities = 2 + static_cast<int>(rng.Uniform(7));
    params.num_transactions = 2;
    params.lock_probability = 0.7;
    params.shared_probability = trial % 3 == 0 ? 0.3 : 0.0;
    params.update_probability = trial % 2 == 0 ? 0.2 : 0.0;
    params.cross_site_arcs = static_cast<int>(rng.Uniform(4));
    Workload w = MakeRandomWorkload(params, &rng);
    const Transaction& t1 = w.system->txn(0);
    const Transaction& t2 = w.system->txn(1);
    EXPECT_EQ(PairFingerprint(t1, t2), reference::PairFingerprint(t1, t2))
        << "trial " << trial;
    EXPECT_EQ(PairFingerprint(t2, t1), reference::PairFingerprint(t2, t1))
        << "trial " << trial << " (swapped)";
  }
}

// ---------------------------------------------------------------------------
// Condition (b): the B_c kernel against the paper's literal B_c
// ---------------------------------------------------------------------------

Workload RandomSystem(int trial, Rng* rng) {
  WorkloadParams params;
  params.num_sites = 1 + static_cast<int>(rng->Uniform(3));
  params.num_entities = 3 + static_cast<int>(rng->Uniform(5));
  params.num_transactions = 2 + static_cast<int>(rng->Uniform(4));
  params.lock_probability = 0.6;
  params.shared_probability = trial % 2 == 0 ? 0.3 : 0.0;
  params.cross_site_arcs = static_cast<int>(rng->Uniform(3));
  return MakeRandomWorkload(params, rng);
}

TEST(FlatKernel, BcHasCycleMatchesLiteralBc) {
  Rng rng(22);
  int acyclic = 0;
  int cyclic = 0;
  int two_cycles = 0;
  for (int trial = 0; trial < 80; ++trial) {
    Workload w = RandomSystem(trial, &rng);
    SystemView view = w.system->View();
    Digraph g = BuildTransactionConflictGraph(view);
    std::vector<std::pair<int, int>> pairs;
    for (NodeId i = 0; i < g.NumNodes(); ++i) {
      for (NodeId j = i + 1; j < g.NumNodes(); ++j) {
        if (g.HasArc(i, j)) pairs.emplace_back(i, j);
      }
    }
    FlatCycleChecker checker(view, pairs);
    // Every directed cycle of G, 2-cycles included (the cycles
    // include_two_cycles adds to condition (b)).
    for (const auto& cycle : SimpleCycles(g, 1 << 12)) {
      std::vector<int> c(cycle.begin(), cycle.end());
      const bool expected =
          reference::HasCycle(reference::BuildCycleGraph(view, c));
      EXPECT_EQ(checker.BcHasCycle(c), expected) << "trial " << trial;
      (expected ? cyclic : acyclic) += 1;
      two_cycles += c.size() == 2 ? 1 : 0;
    }

    // The engine's condition (b) verdict with and without 2-cycles: when
    // every pair is safe, the failing cycle is the first (in enumeration
    // order) whose literal B_c is acyclic.
    for (bool include_two_cycles : {false, true}) {
      EngineConfig config;
      config.include_two_cycles = include_two_cycles;
      MultiSafetyReport report = AnalyzeMultiSafety(*w.system, config);
      if (report.failing_pair.has_value()) continue;
      std::vector<int> expected_failure;
      for (const auto& cycle : SimpleCycles(g, config.max_cycles)) {
        if (cycle.size() < (include_two_cycles ? 2u : 3u)) continue;
        std::vector<int> c(cycle.begin(), cycle.end());
        if (!reference::HasCycle(reference::BuildCycleGraph(view, c))) {
          expected_failure = c;
          break;
        }
      }
      EXPECT_EQ(report.failing_cycle, expected_failure)
          << "trial " << trial << " include_two_cycles=" << include_two_cycles;
    }
  }
  // The generator must exercise both verdicts and the 2-cycle case.
  EXPECT_GT(cyclic, 10);
  EXPECT_GT(acyclic, 10);
  EXPECT_GT(two_cycles, 10);
}

// ---------------------------------------------------------------------------
// Whole-engine determinism: serial vs 4 threads, with and without the
// verdict cache, the serialized report must be byte-identical.
// ---------------------------------------------------------------------------

EngineConfig GridConfig(int threads, bool cache) {
  EngineConfig config;
  config.max_cycles = 1 << 10;
  config.max_extension_pairs = 1 << 14;
  config.num_threads = threads;
  config.enable_cache = cache;
  return config;
}

TEST(FlatKernel, MultiReportsByteIdenticalAcrossThreadsAndCache) {
  Rng rng(19);
  for (int trial = 0; trial < 12; ++trial) {
    WorkloadParams params;
    params.num_sites = 1 + static_cast<int>(rng.Uniform(3));
    params.num_entities = 3 + static_cast<int>(rng.Uniform(5));
    params.num_transactions = 2 + static_cast<int>(rng.Uniform(4));
    params.lock_probability = 0.6;
    params.cross_site_arcs = static_cast<int>(rng.Uniform(3));
    Workload w = MakeRandomWorkload(params, &rng);
    MultiSafetyReport plain =
        AnalyzeMultiSafety(*w.system, GridConfig(1, false));
    for (bool cache : {false, true}) {
      MultiSafetyReport baseline =
          AnalyzeMultiSafety(*w.system, GridConfig(1, cache));
      std::string expected = MultiReportToJson(baseline, *w.system);
      // The cache only ever changes how a verdict was obtained, never the
      // verdict or the failing pair/cycle.
      EXPECT_EQ(baseline.verdict, plain.verdict) << "trial " << trial;
      EXPECT_EQ(baseline.failing_pair, plain.failing_pair);
      EXPECT_EQ(baseline.failing_cycle, plain.failing_cycle);
      MultiSafetyReport report =
          AnalyzeMultiSafety(*w.system, GridConfig(4, cache));
      EXPECT_EQ(MultiReportToJson(report, *w.system), expected)
          << "trial " << trial << " cache=" << cache;
    }
  }
}

TEST(FlatKernel, IncrementalEngineMatchesScratchAcrossThreadsAndCache) {
  Rng rng(20);
  WorkloadParams params;
  params.num_sites = 2;
  params.num_entities = 6;
  params.num_transactions = 5;
  params.lock_probability = 0.6;
  Workload w = MakeRandomWorkload(params, &rng);

  for (bool cache : {false, true}) {
    const std::string scratch = MultiReportToJson(
        AnalyzeMultiSafety(*w.system, GridConfig(1, cache)), *w.system);
    for (int threads : {1, 4}) {
      TransactionCatalog catalog(w.db.get());
      for (int i = 0; i < w.system->NumTransactions(); ++i) {
        EXPECT_TRUE(catalog.Add(w.system->txn(i)).ok());
      }
      EngineContext ctx(GridConfig(threads, cache));
      IncrementalSafetyEngine engine(&catalog, &ctx);
      MultiSafetyReport first = engine.Check();
      MultiSafetyReport second = engine.Check();  // exercises the reuse path
      first.delta.reset();
      second.delta.reset();
      CatalogSnapshot snap = catalog.Snapshot();
      EXPECT_EQ(MultiReportToJson(first, snap.View()), scratch)
          << "cache=" << cache << " threads=" << threads;
      EXPECT_EQ(MultiReportToJson(second, snap.View()), scratch)
          << "cache=" << cache << " threads=" << threads;
    }
  }
}

// The got kernels borrow the caller thread's ScratchArena via ArenaScope;
// after an analysis returns, the arena's bump state must be fully rewound —
// a leak here would couple successive checks' scratch memory.
TEST(FlatKernel, ScratchArenaStateRewindsBetweenChecks) {
  Rng rng(21);
  WorkloadParams params;
  params.num_sites = 2;
  params.num_entities = 5;
  params.num_transactions = 4;
  Workload w = MakeRandomWorkload(params, &rng);

  Arena* arena = ScratchArena();
  arena->Reset();
  EngineConfig config = GridConfig(/*threads=*/1, /*cache=*/false);
  MultiSafetyReport first = AnalyzeMultiSafety(*w.system, config);
  EXPECT_EQ(arena->BytesUsed(), 0u)
      << "got kernels leaked arena bytes past their scopes";
  // Steady state: a second identical analysis reuses the grown capacity
  // (no new blocks) and reproduces the report byte for byte.
  arena->Reset();
  size_t capacity = arena->BytesCapacity();
  MultiSafetyReport second = AnalyzeMultiSafety(*w.system, config);
  EXPECT_EQ(arena->BytesUsed(), 0u);
  EXPECT_EQ(arena->NumBlocks(), 1u);
  EXPECT_EQ(arena->BytesCapacity(), capacity);
  EXPECT_EQ(MultiReportToJson(first, *w.system),
            MultiReportToJson(second, *w.system));
}

}  // namespace
}  // namespace dislock
