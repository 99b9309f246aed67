#ifndef DISLOCK_GRAPH_CYCLES_H_
#define DISLOCK_GRAPH_CYCLES_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"

namespace dislock {

/// True iff `g` contains a directed cycle (self-loops count). Kahn peeling
/// on a CSR lowering of `g`.
bool HasCycle(const Digraph& g);

/// Enumerates the simple directed cycles of `g` (Johnson's algorithm on one
/// CSR lowering of `g`, with a masked arena-backed Tarjan per start node),
/// stopping after `max_cycles`. Each cycle is reported as its node sequence
/// (without repeating the first node at the end), starting at its smallest
/// node id.
///
/// Used to enumerate the directed cycles of the transaction conflict graph G
/// in the Proposition 2 safety test for many transactions. The number of
/// simple cycles can be exponential; callers must bound `max_cycles`.
std::vector<std::vector<NodeId>> SimpleCycles(const Digraph& g,
                                              int64_t max_cycles);

}  // namespace dislock

#endif  // DISLOCK_GRAPH_CYCLES_H_
