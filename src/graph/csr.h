#ifndef DISLOCK_GRAPH_CSR_H_
#define DISLOCK_GRAPH_CSR_H_

#include <cstdint>

#include "graph/digraph.h"
#include "util/arena.h"
#include "util/bitset.h"

namespace dislock {

/// An immutable compressed-sparse-row digraph: two flat arrays in an arena,
/// no per-node vectors, no labels. This is the representation every flat
/// kernel of the Proposition-2 hot path runs on — a `Digraph` (pointer-heavy,
/// mutable, labeled) is lowered to a CsrGraph once per pair/cycle check and
/// the SCC / reachability / dominator / cycle kernels then touch only these
/// two cache-resident arrays.
///
/// Node ids are the same dense [0, num_nodes) as the source Digraph and the
/// per-node adjacency ORDER is preserved exactly, so any algorithm whose
/// output depends on visitation order (Tarjan component numbering, Johnson
/// cycle enumeration) produces bit-identical results on either
/// representation.
struct CsrGraph {
  int32_t num_nodes = 0;
  int32_t num_arcs = 0;
  /// offsets[u] .. offsets[u+1] delimit u's out-arcs in `targets`.
  const int32_t* offsets = nullptr;  ///< arena-owned, size num_nodes + 1
  const NodeId* targets = nullptr;   ///< arena-owned, size num_arcs

  int NumNodes() const { return num_nodes; }
  int32_t OutDegree(NodeId u) const { return offsets[u + 1] - offsets[u]; }
  const NodeId* begin(NodeId u) const { return targets + offsets[u]; }
  const NodeId* end(NodeId u) const { return targets + offsets[u + 1]; }
};

/// Lowers `g`'s out-adjacency to CSR. O(V + E), two passes, arena-only.
CsrGraph BuildCsr(const Digraph& g, Arena* arena);

/// Lowers `g`'s in-adjacency to CSR (kept in the same in-neighbor order as
/// Digraph::InNeighbors).
CsrGraph BuildReverseCsr(const Digraph& g, Arena* arena);

/// Builds a CSR graph from parallel tail/head arrays. Arc order is
/// preserved per tail (counting sort by tail, stable). Used by the flat
/// B_c cycle-graph kernel, which generates arcs directly into arena arrays
/// with dense remapped node ids instead of materializing a Digraph.
CsrGraph BuildCsrFromArcs(int num_nodes, const NodeId* tails,
                          const NodeId* heads, int32_t num_arcs,
                          Arena* arena);

/// Strongly connected components on CSR: iterative Tarjan over flat arrays
/// (explicit frame stack, no recursion, no per-node std::vector). The
/// components are numbered in reverse topological order of the
/// condensation (Tarjan's order, roots in ascending id): if an arc leads
/// from component a to component b != a, then a > b.
struct FlatScc {
  int num_components = 0;
  /// component[v] = SCC index of v; arena-owned, size num_nodes.
  const int32_t* component = nullptr;
};

FlatScc SccOnCsr(const CsrGraph& g, Arena* arena);

/// Tarjan restricted to the subgraph induced by nodes >= min_node with
/// self-arcs dropped — the per-start subgraph of Johnson's cycle
/// enumeration, computed in place of materializing a sub-Digraph. Nodes
/// < min_node come back as isolated singleton components.
FlatScc SccOnCsrMasked(const CsrGraph& g, NodeId min_node, Arena* arena);

/// True iff `g` is strongly connected; graphs with 0 or 1 nodes count as
/// strongly connected (the Theorem 1 convention of graph/scc.h).
bool StronglyConnectedOnCsr(const CsrGraph& g, Arena* scratch);

/// SCC member lists, grouped: members of component c are
/// nodes[offsets[c] .. offsets[c+1]), in ascending node id (counting sort).
struct FlatSccMembers {
  const int32_t* offsets = nullptr;  ///< size num_components + 1
  const NodeId* nodes = nullptr;     ///< size num_nodes
};

FlatSccMembers GroupSccMembers(const FlatScc& scc, int num_nodes,
                               Arena* arena);

/// The condensation's IN-adjacency (predecessor components), deduplicated:
/// result.begin(c)/end(c) are the distinct components with an arc into c.
/// This is the only direction the dominator machinery consults.
CsrGraph CondensationInArcsOnCsr(const CsrGraph& g, const FlatScc& scc,
                                 Arena* arena);

/// Reflexive-transitive closure of `g` as flat bitset rows: row u is
/// rows[u * bits::WordsForBits(n)], one bit per node. Works on any digraph
/// (cyclic included) by closing over the condensation in reverse
/// topological order with word-parallel ORs, with no per-query BFS.
/// `rows` must hold
/// n * WordsForBits(n) words and be ZERO-INITIALIZED by the caller; the
/// function only ever ORs bits in (both call sites allocate zeroed
/// storage, so requiring it avoids a second zeroing pass here).
void ReachabilityWordsOnCsr(const CsrGraph& g, uint64_t* rows,
                            Arena* scratch);

/// True iff `g` has a directed cycle (self-loops count). Kahn peeling on
/// flat arrays — the kernel under every condition-(b) B_c check.
bool HasCycleOnCsr(const CsrGraph& g, Arena* scratch);

}  // namespace dislock

#endif  // DISLOCK_GRAPH_CSR_H_
