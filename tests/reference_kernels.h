// Naive reference implementations of the engine's graph and pair kernels,
// for differential tests only. Each is the textbook algorithm over
// Digraph/Transaction with no CSR, arena or bitset, written for obvious
// correctness rather than speed. The production kernels (graph/*.h,
// core/closure.h, cache/verdict_cache.h, FlatCycleChecker in core/multi.h)
// must reproduce them exactly — not just verdicts but component numbering,
// enumeration order and Status messages — because the engine's serial-scan
// replay folds those orders into user-visible counters. Like the Lemma 1
// oracle (core/brute_force.h), this is safety code: keep it small and
// keep it.

#ifndef DISLOCK_TESTS_REFERENCE_KERNELS_H_
#define DISLOCK_TESTS_REFERENCE_KERNELS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/closure.h"
#include "graph/digraph.h"
#include "txn/system.h"
#include "txn/transaction.h"
#include "util/status.h"

namespace dislock {
namespace reference {

/// Strongly connected components by recursive Tarjan: roots in ascending
/// id, arcs in adjacency order, so components come out in reverse
/// topological order of the condensation.
struct Scc {
  std::vector<int> component;  ///< node -> component id
  int num_components = 0;
  std::vector<std::vector<NodeId>> members;  ///< in pop order
};
Scc StronglyConnectedComponents(const Digraph& g);

/// The condensation: one node per component, deduplicated arcs between
/// distinct components.
Digraph Condensation(const Digraph& g, const Scc& scc);

/// reach[u][v]: a directed path from u to v exists (reflexive), by one
/// breadth-first search per node.
std::vector<std::vector<bool>> Reachable(const Digraph& g);

/// A directed cycle exists (self-loops count).
bool HasCycle(const Digraph& g);

/// The simple cycles by plain backtracking: self-loops first, then for each
/// start s ascending every simple path s -> ... -> s through nodes > s, in
/// adjacency order; stops after `max_cycles`. Johnson's blocking only
/// prunes paths that close no cycle, so this is Johnson's output order.
std::vector<std::vector<NodeId>> SimpleCycles(const Digraph& g,
                                              int64_t max_cycles);

/// The members (sorted) of the lowest-numbered source component of the
/// condensation, or NotFound when g has < 2 nodes or is strongly connected.
Result<std::vector<NodeId>> FindDominator(const Digraph& g);

/// Every dominator (nonempty proper predecessor-closed union of
/// components), up to `max_count`: components in topological order, each
/// first excluded, then included if its predecessors all are.
std::vector<std::vector<NodeId>> AllDominators(const Digraph& g,
                                               int64_t max_count);

/// The Lemma 2 fixpoint on the transactions themselves: find the first
/// violation (z, x, y) of Definition 3, add Uy < Ux to T1 and Ly < Lx to
/// T2, re-verify that X is a dominator of the new D(T1,T2), repeat.
Result<ClosureResult> CloseWithRespectTo(const Transaction& t1,
                                         const Transaction& t2,
                                         const std::vector<EntityId>& x_set);

/// The canonical pair fingerprint, with hash maps for the renaming and the
/// arc set sorted as pairs.
std::string PairFingerprint(const Transaction& t1, const Transaction& t2);

/// The paper's literal B_c for a directed cycle of transaction indices: the
/// union of the B_ijk along the cycle, nodes keyed by (unordered
/// transaction pair, entity) and arcs deduplicated.
Digraph BuildCycleGraph(const SystemView& view, const std::vector<int>& cycle);

/// The Lemma 1 pair oracle with every extension of t2 materialized up
/// front (with its position array), then t1's extensions streamed against
/// the stored list. core/brute_force.cc streams both and must match it in
/// visit order, combinations_checked, the unsafe pair, the certificate and
/// the Status strings.
Result<ExhaustiveResult> ExhaustivePairSafety(const Transaction& t1,
                                              const Transaction& t2,
                                              int64_t max_pairs);

}  // namespace reference
}  // namespace dislock

#endif  // DISLOCK_TESTS_REFERENCE_KERNELS_H_
