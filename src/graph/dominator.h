#ifndef DISLOCK_GRAPH_DOMINATOR_H_
#define DISLOCK_GRAPH_DOMINATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/digraph.h"
#include "util/status.h"

namespace dislock {

/// Dominators in the sense of Definition 2 of the paper: a *dominator* of a
/// digraph D = (V, A) is a nonempty proper subset X of V with no incoming
/// arcs from V - X. (Not the flow-graph "dominator tree" notion.)
///
/// A digraph has a dominator iff it is not strongly connected; dominators
/// are exactly the nonempty proper unions of condensation SCCs that are
/// closed under predecessors.

/// True iff `candidate` (a set of node ids) is a dominator of `g`.
bool IsDominator(const Digraph& g, const std::vector<NodeId>& candidate);

/// Returns a minimal dominator (the members of the lowest-numbered source
/// SCC of the condensation, sorted), or NotFound if `g` is strongly
/// connected (or has < 2 nodes, in which case no proper nonempty subset
/// qualifies as interesting).
Result<std::vector<NodeId>> FindDominator(const Digraph& g);

/// Visitor for EnumerateDominators: receives one dominator as a sorted
/// vector of node ids (valid only for the call); return false to stop.
using DominatorVisitor = std::function<bool(const std::vector<NodeId>&)>;

/// Streams the dominators of `g` to `visit`, one at a time. Dominators are
/// in bijection with the nonempty proper predecessor-closed unions of SCCs
/// (down-sets of the reversed condensation DAG); there can be exponentially
/// many, so the visitor owns the budget and stops the enumeration when it
/// is spent. Returns true iff the enumeration completed, i.e. the visitor
/// never returned false. Runs on a CSR lowering of `g` (graph/csr.h) with
/// arena scratch; the visitor may use the scratch arena itself.
///
/// Used by the Corollary 2 closure stage and the Theorem 3 machinery, where
/// dominators of D(T1(F), T2(F)) encode truth assignments (Fig. 8 of the
/// paper).
bool EnumerateDominators(const Digraph& g, const DominatorVisitor& visit);

/// The first `max_count` dominators of EnumerateDominators, collected.
std::vector<std::vector<NodeId>> AllDominators(const Digraph& g,
                                               int64_t max_count);

}  // namespace dislock

#endif  // DISLOCK_GRAPH_DOMINATOR_H_
