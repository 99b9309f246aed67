#ifndef DISLOCK_GRAPH_SCC_H_
#define DISLOCK_GRAPH_SCC_H_

#include "graph/digraph.h"

namespace dislock {

/// True iff `g` is strongly connected. By convention graphs with 0 or 1
/// nodes are strongly connected (this matches the safety semantics of
/// Theorem 1: with fewer than two commonly locked entities there is nothing
/// to separate). Lowers to CSR and runs the iterative arena-backed Tarjan
/// of graph/csr.h.
bool IsStronglyConnected(const Digraph& g);

}  // namespace dislock

#endif  // DISLOCK_GRAPH_SCC_H_
