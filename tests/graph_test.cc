// Unit tests for the graph substrate: digraph, SCC, topological sorts,
// reachability, cycle enumeration, dominator sets.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/csr.h"
#include "graph/cycles.h"
#include "graph/digraph.h"
#include "graph/dominator.h"
#include "graph/reachability.h"
#include "graph/scc.h"
#include "graph/topological.h"
#include "reference_kernels.h"
#include "util/arena.h"
#include "util/random.h"

namespace dislock {
namespace {

Digraph MakeGraph(int n, const std::vector<std::pair<int, int>>& arcs) {
  Digraph g(n);
  for (auto [u, v] : arcs) g.AddArc(u, v);
  return g;
}

// ---------------------------------------------------------------- Digraph

TEST(Digraph, BasicConstruction) {
  Digraph g(3);
  EXPECT_EQ(g.NumNodes(), 3);
  EXPECT_EQ(g.NumArcs(), 0);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  EXPECT_EQ(g.NumArcs(), 2);
  EXPECT_TRUE(g.HasArc(0, 1));
  EXPECT_FALSE(g.HasArc(1, 0));
  EXPECT_EQ(g.OutNeighbors(0).size(), 1u);
  EXPECT_EQ(g.InNeighbors(2).size(), 1u);
}

TEST(Digraph, AddArcUniqueDeduplicates) {
  Digraph g(2);
  g.AddArcUnique(0, 1);
  g.AddArcUnique(0, 1);
  EXPECT_EQ(g.NumArcs(), 1);
}

TEST(Digraph, AddNodeGrowsGraph) {
  Digraph g;
  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("b");
  g.AddArc(a, b);
  EXPECT_EQ(g.NumNodes(), 2);
  EXPECT_EQ(g.Label(a), "a");
}

TEST(Digraph, ToDotContainsNodesAndArcs) {
  Digraph g(2);
  g.SetLabel(0, "x");
  g.AddArc(0, 1);
  std::string dot = g.ToDot("T");
  EXPECT_NE(dot.find("digraph T"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"x\""), std::string::npos);
}

// -------------------------------------------------------------------- SCC

TEST(Scc, SingleNodeIsStronglyConnected) {
  EXPECT_TRUE(IsStronglyConnected(Digraph(1)));
  EXPECT_TRUE(IsStronglyConnected(Digraph(0)));
}

TEST(Scc, TwoNodesNeedBothArcs) {
  EXPECT_FALSE(IsStronglyConnected(MakeGraph(2, {{0, 1}})));
  EXPECT_TRUE(IsStronglyConnected(MakeGraph(2, {{0, 1}, {1, 0}})));
}

TEST(Scc, ComponentsOfTwoCyclesJoinedByArc) {
  // 0<->1 -> 2<->3
  Digraph g = MakeGraph(4, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}});
  Arena arena;
  FlatScc scc = SccOnCsr(BuildCsr(g, &arena), &arena);
  EXPECT_EQ(scc.num_components, 2);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(scc.component[2], scc.component[3]);
  EXPECT_NE(scc.component[0], scc.component[2]);
  // Tarjan numbering: arcs in the condensation go from higher to lower ids.
  EXPECT_GT(scc.component[0], scc.component[2]);
  reference::Scc ref = reference::StronglyConnectedComponents(g);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(scc.component[v], ref.component[v]);
}

TEST(Scc, CondensationIsAcyclicAndDeduplicated) {
  Digraph g = MakeGraph(4, {{0, 1}, {1, 0}, {0, 2}, {1, 2}, {2, 3}, {3, 2}});
  Arena arena;
  CsrGraph csr = BuildCsr(g, &arena);
  FlatScc scc = SccOnCsr(csr, &arena);
  CsrGraph cond_in = CondensationInArcsOnCsr(csr, scc, &arena);
  EXPECT_EQ(cond_in.NumNodes(), 2);
  EXPECT_EQ(cond_in.num_arcs, 1);  // the two cross arcs collapse to one
  // The one arc runs from {0,1} into {2,3}: acyclic.
  ASSERT_EQ(cond_in.OutDegree(scc.component[2]), 1);
  EXPECT_EQ(*cond_in.begin(scc.component[2]), scc.component[0]);
  EXPECT_EQ(cond_in.OutDegree(scc.component[0]), 0);
  Digraph ref =
      reference::Condensation(g, reference::StronglyConnectedComponents(g));
  EXPECT_EQ(ref.NumArcs(), cond_in.num_arcs);
  EXPECT_TRUE(IsAcyclic(ref));
}

TEST(Scc, LargeCycleIsOneComponent) {
  const int n = 500;
  Digraph g(n);
  for (int i = 0; i < n; ++i) g.AddArc(i, (i + 1) % n);
  EXPECT_TRUE(IsStronglyConnected(g));
}

TEST(Scc, LongPathHasNComponents) {
  const int n = 500;
  Digraph g(n);
  for (int i = 0; i + 1 < n; ++i) g.AddArc(i, i + 1);
  Arena arena;
  EXPECT_EQ(SccOnCsr(BuildCsr(g, &arena), &arena).num_components, n);
  EXPECT_FALSE(IsStronglyConnected(g));
}

// ------------------------------------------------------------ Topological

TEST(Topological, SortRespectsArcs) {
  Digraph g = MakeGraph(4, {{3, 1}, {1, 0}, {3, 2}, {2, 0}});
  auto order = TopologicalSort(g);
  ASSERT_TRUE(order.ok());
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[order.value()[i]] = i;
  EXPECT_LT(pos[3], pos[1]);
  EXPECT_LT(pos[1], pos[0]);
  EXPECT_LT(pos[2], pos[0]);
}

TEST(Topological, CycleIsRejected) {
  EXPECT_FALSE(TopologicalSort(MakeGraph(2, {{0, 1}, {1, 0}})).ok());
  EXPECT_FALSE(IsAcyclic(MakeGraph(3, {{0, 1}, {1, 2}, {2, 0}})));
}

TEST(Topological, PrioritySortPrefersPriorityNodes) {
  // 0 -> 2, 1 -> 2; prefer node 1 over node 0.
  Digraph g = MakeGraph(3, {{0, 2}, {1, 2}});
  auto order = PriorityTopologicalSort(
      g, [](NodeId a, NodeId b) { return a > b; });
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order.value()[0], 1);
}

TEST(Topological, AncestorFirstPullsExactlyAncestors) {
  // 0 -> 1 -> 4, 2 -> 4, 3 isolated. Priority [4]: ancestors {0,1,2} come
  // first, then 4, then 3.
  Digraph g = MakeGraph(5, {{0, 1}, {1, 4}, {2, 4}});
  auto order = AncestorFirstTopologicalSort(g, {4});
  ASSERT_TRUE(order.ok());
  std::vector<int> pos(5);
  for (int i = 0; i < 5; ++i) pos[order.value()[i]] = i;
  EXPECT_EQ(pos[4], 3);  // after its 3 ancestors
  EXPECT_GT(pos[3], pos[4]);
}

TEST(Topological, AncestorFirstIsAlwaysALinearExtension) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 12;
    Digraph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.Bernoulli(0.25)) g.AddArc(u, v);
      }
    }
    std::vector<NodeId> priority;
    for (int i = 0; i < 4; ++i) {
      priority.push_back(static_cast<NodeId>(rng.Uniform(n)));
    }
    auto order = AncestorFirstTopologicalSort(g, priority);
    ASSERT_TRUE(order.ok());
    std::vector<int> pos(n);
    for (int i = 0; i < n; ++i) pos[order.value()[i]] = i;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v : g.OutNeighbors(u)) EXPECT_LT(pos[u], pos[v]);
    }
  }
}

TEST(Topological, ReverseOfFlipsArcs) {
  Digraph g = MakeGraph(3, {{0, 1}, {1, 2}});
  Digraph rev = ReverseOf(g);
  EXPECT_TRUE(rev.HasArc(1, 0));
  EXPECT_TRUE(rev.HasArc(2, 1));
  EXPECT_FALSE(rev.HasArc(0, 1));
}

// ----------------------------------------------------------- Reachability

TEST(Reachability, TransitiveOnChain) {
  Digraph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  Reachability reach(g);
  EXPECT_TRUE(reach.Reaches(0, 3));
  EXPECT_TRUE(reach.Reaches(2, 2));
  EXPECT_FALSE(reach.Reaches(3, 0));
  EXPECT_TRUE(reach.StrictlyReaches(0, 1));
  EXPECT_FALSE(reach.StrictlyReaches(1, 1));
}

TEST(Reachability, ConcurrentNodes) {
  Digraph g = MakeGraph(3, {{0, 1}, {0, 2}});
  Reachability reach(g);
  EXPECT_TRUE(reach.Concurrent(1, 2));
  EXPECT_FALSE(reach.Concurrent(0, 1));
}

TEST(Reachability, WorksOnCyclicGraphs) {
  Digraph g = MakeGraph(3, {{0, 1}, {1, 0}, {1, 2}});
  Reachability reach(g);
  EXPECT_TRUE(reach.Reaches(0, 2));
  EXPECT_TRUE(reach.Reaches(1, 0));
  EXPECT_FALSE(reach.Reaches(2, 0));
}

TEST(Reachability, MatchesBfsOnRandomDags) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 20;
    Digraph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.Bernoulli(0.15)) g.AddArc(u, v);
      }
    }
    Reachability reach(g);
    std::vector<std::vector<bool>> ref = reference::Reachable(g);
    for (int s = 0; s < n; ++s) {
      for (int t = 0; t < n; ++t) EXPECT_EQ(reach.Reaches(s, t), ref[s][t]);
    }
  }
}

// ----------------------------------------------------------------- Cycles

TEST(Cycles, AcyclicGraphHasNone) {
  EXPECT_FALSE(HasCycle(MakeGraph(3, {{0, 1}, {1, 2}})));
  EXPECT_TRUE(SimpleCycles(MakeGraph(3, {{0, 1}, {1, 2}}), 100).empty());
}

TEST(Cycles, SelfLoopIsACycle) {
  EXPECT_TRUE(HasCycle(MakeGraph(1, {{0, 0}})));
  auto cycles = SimpleCycles(MakeGraph(1, {{0, 0}}), 100);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0], std::vector<NodeId>{0});
}

TEST(Cycles, EnumeratesAllCyclesOfK4Symmetric) {
  // Complete symmetric digraph on 4 nodes: simple cycles = for each subset
  // of size k >= 2, (k-1)!... : 2-cycles C(4,2)=6; 3-cycles C(4,3)*2=8;
  // 4-cycles 3! = 6. Total 20.
  Digraph g(4);
  for (int u = 0; u < 4; ++u) {
    for (int v = 0; v < 4; ++v) {
      if (u != v) g.AddArc(u, v);
    }
  }
  auto cycles = SimpleCycles(g, 1000);
  EXPECT_EQ(cycles.size(), 20u);
  // All reported cycles really are cycles.
  for (const auto& c : cycles) {
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_TRUE(g.HasArc(c[i], c[(i + 1) % c.size()]));
    }
    // Starts at its minimum node (Johnson convention).
    EXPECT_EQ(c[0], *std::min_element(c.begin(), c.end()));
  }
}

TEST(Cycles, RespectsCap) {
  Digraph g(4);
  for (int u = 0; u < 4; ++u) {
    for (int v = 0; v < 4; ++v) {
      if (u != v) g.AddArc(u, v);
    }
  }
  EXPECT_EQ(SimpleCycles(g, 5).size(), 5u);
}

// ------------------------------------------------------------- Dominators

TEST(Dominator, StronglyConnectedHasNone) {
  Digraph g = MakeGraph(2, {{0, 1}, {1, 0}});
  EXPECT_FALSE(FindDominator(g).ok());
  EXPECT_TRUE(AllDominators(g, 100).empty());
}

TEST(Dominator, PathGraphDominators) {
  // 0 -> 1 -> 2: dominators are the predecessor-closed proper sets {0},
  // {0,1}.
  Digraph g = MakeGraph(3, {{0, 1}, {1, 2}});
  auto doms = AllDominators(g, 100);
  ASSERT_EQ(doms.size(), 2u);
  std::set<std::vector<NodeId>> expected = {{0}, {0, 1}};
  EXPECT_TRUE(expected.count(doms[0]) > 0);
  EXPECT_TRUE(expected.count(doms[1]) > 0);
  auto minimal = FindDominator(g);
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal.value(), std::vector<NodeId>{0});
}

TEST(Dominator, IsDominatorChecksDefinition) {
  Digraph g = MakeGraph(3, {{0, 1}, {1, 2}});
  EXPECT_TRUE(IsDominator(g, {0}));
  EXPECT_TRUE(IsDominator(g, {0, 1}));
  EXPECT_FALSE(IsDominator(g, {1}));        // incoming arc from 0
  EXPECT_FALSE(IsDominator(g, {0, 1, 2}));  // not proper
  EXPECT_FALSE(IsDominator(g, {}));         // not nonempty
}

TEST(Dominator, TwoIndependentSourcesGiveThreeDominators) {
  // 0 -> 2 <- 1: dominators {0}, {1}, {0,1}.
  Digraph g = MakeGraph(3, {{0, 2}, {1, 2}});
  EXPECT_EQ(AllDominators(g, 100).size(), 3u);
}

TEST(Dominator, EveryEnumeratedDominatorSatisfiesIsDominator) {
  Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 8;
    Digraph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (u != v && rng.Bernoulli(0.2)) g.AddArc(u, v);
      }
    }
    for (const auto& dom : AllDominators(g, 1 << 10)) {
      EXPECT_TRUE(IsDominator(g, dom));
    }
  }
}

TEST(Dominator, CountMatchesBruteForceOnSmallGraphs) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 6;
    Digraph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (u != v && rng.Bernoulli(0.25)) g.AddArc(u, v);
      }
    }
    // Brute force over all subsets.
    int expected = 0;
    for (int mask = 1; mask < (1 << n) - 1; ++mask) {
      std::vector<NodeId> subset;
      for (int i = 0; i < n; ++i) {
        if (mask & (1 << i)) subset.push_back(i);
      }
      if (IsDominator(g, subset)) ++expected;
    }
    EXPECT_EQ(static_cast<int>(AllDominators(g, 1 << 12).size()), expected);
    EXPECT_EQ(AllDominators(g, 1 << 12), reference::AllDominators(g, 1 << 12));
  }
}

}  // namespace
}  // namespace dislock
