#ifndef DISLOCK_GRAPH_REACHABILITY_H_
#define DISLOCK_GRAPH_REACHABILITY_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "util/bitset.h"

namespace dislock {

/// Precomputed reachability (reflexive-transitive closure) of a digraph.
///
/// Transactions are partial orders given as DAGs; "Lx precedes Uy in T"
/// (Definition 1, Lemmas 2-3) is a reachability query on the transaction's
/// step DAG. The closure is stored as one flat bitset row per node in a
/// single contiguous buffer, built by a CSR lowering whose SCC condensation
/// is closed with word-parallel ORs in reverse topological order
/// (graph/csr.h): one pass, cyclic graphs included, no per-query BFS.
class Reachability {
 public:
  /// Builds the closure of `g`.
  explicit Reachability(const Digraph& g);

  /// True iff there is a directed path from u to v (including u == v).
  bool Reaches(NodeId u, NodeId v) const {
    return bits::TestBit(words_.data() + static_cast<size_t>(u) * words_per_row_,
                         static_cast<size_t>(v));
  }

  /// True iff u strictly precedes v (path exists and u != v).
  bool StrictlyReaches(NodeId u, NodeId v) const {
    return u != v && Reaches(u, v);
  }

  /// True iff u and v are incomparable (neither reaches the other).
  bool Concurrent(NodeId u, NodeId v) const {
    return !Reaches(u, v) && !Reaches(v, u);
  }

  int NumNodes() const { return num_nodes_; }

 private:
  int num_nodes_ = 0;
  size_t words_per_row_ = 0;
  std::vector<uint64_t> words_;  ///< num_nodes_ rows of words_per_row_ words
};

}  // namespace dislock

#endif  // DISLOCK_GRAPH_REACHABILITY_H_
