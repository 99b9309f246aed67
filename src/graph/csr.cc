#include "graph/csr.h"

#include <algorithm>
#include <cstring>

namespace dislock {

namespace {

CsrGraph MakeCsr(int32_t n, int32_t m, const int32_t* offsets,
                 const NodeId* targets) {
  CsrGraph g;
  g.num_nodes = n;
  g.num_arcs = m;
  g.offsets = offsets;
  g.targets = targets;
  return g;
}

}  // namespace

CsrGraph BuildCsr(const Digraph& g, Arena* arena) {
  const int32_t n = g.NumNodes();
  int32_t* offsets = arena->AllocateArray<int32_t>(static_cast<size_t>(n) + 1);
  int32_t m = 0;
  offsets[0] = 0;
  for (NodeId u = 0; u < n; ++u) {
    m += static_cast<int32_t>(g.OutNeighbors(u).size());
    offsets[u + 1] = m;
  }
  NodeId* targets = arena->AllocateArray<NodeId>(static_cast<size_t>(m));
  int32_t pos = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.OutNeighbors(u)) targets[pos++] = v;
  }
  return MakeCsr(n, m, offsets, targets);
}

CsrGraph BuildReverseCsr(const Digraph& g, Arena* arena) {
  const int32_t n = g.NumNodes();
  int32_t* offsets = arena->AllocateArray<int32_t>(static_cast<size_t>(n) + 1);
  int32_t m = 0;
  offsets[0] = 0;
  for (NodeId u = 0; u < n; ++u) {
    m += static_cast<int32_t>(g.InNeighbors(u).size());
    offsets[u + 1] = m;
  }
  NodeId* targets = arena->AllocateArray<NodeId>(static_cast<size_t>(m));
  int32_t pos = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.InNeighbors(u)) targets[pos++] = v;
  }
  return MakeCsr(n, m, offsets, targets);
}

CsrGraph BuildCsrFromArcs(int num_nodes, const NodeId* tails,
                          const NodeId* heads, int32_t num_arcs,
                          Arena* arena) {
  const int32_t n = num_nodes;
  int32_t* offsets =
      arena->AllocateZeroed<int32_t>(static_cast<size_t>(n) + 1);
  for (int32_t i = 0; i < num_arcs; ++i) ++offsets[tails[i] + 1];
  for (int32_t u = 0; u < n; ++u) offsets[u + 1] += offsets[u];
  NodeId* targets = arena->AllocateArray<NodeId>(static_cast<size_t>(num_arcs));
  int32_t* cursor = arena->AllocateArray<int32_t>(static_cast<size_t>(n));
  std::memcpy(cursor, offsets, static_cast<size_t>(n) * sizeof(int32_t));
  for (int32_t i = 0; i < num_arcs; ++i) {
    targets[cursor[tails[i]]++] = heads[i];  // stable: preserves input order
  }
  return MakeCsr(n, num_arcs, offsets, targets);
}

namespace {

/// Iterative Tarjan over CSR arrays: roots in ascending id, adjacency in
/// CSR order == Digraph order, so the component numbering is the classic
/// recursive Tarjan's (tests/reference_kernels.h pins it). When
/// `min_node > 0`, the traversal is restricted to the subgraph induced by
/// nodes >= min_node with self-arcs dropped (Johnson's per-start subgraph);
/// excluded nodes become singleton components.
FlatScc TarjanOnCsr(const CsrGraph& g, NodeId min_node, Arena* arena) {
  const int32_t n = g.num_nodes;
  FlatScc result;
  int32_t* component = arena->AllocateArray<int32_t>(static_cast<size_t>(n));
  result.component = component;
  if (n == 0) return result;

  struct Frame {
    NodeId v;
    int32_t arc;  ///< absolute position in g.targets
  };
  int32_t* index = arena->AllocateArray<int32_t>(static_cast<size_t>(n));
  int32_t* lowlink = arena->AllocateArray<int32_t>(static_cast<size_t>(n));
  uint8_t* on_stack = arena->AllocateZeroed<uint8_t>(static_cast<size_t>(n));
  NodeId* stack = arena->AllocateArray<NodeId>(static_cast<size_t>(n));
  Frame* frames = arena->AllocateArray<Frame>(static_cast<size_t>(n));
  std::memset(index, -1, static_cast<size_t>(n) * sizeof(int32_t));
  int32_t stack_top = 0;
  int32_t frame_top = 0;
  int32_t next_index = 0;
  int32_t num_components = 0;

  for (NodeId root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    if (root < min_node) {
      // Outside the induced subgraph: isolated singleton component.
      index[root] = next_index++;
      component[root] = num_components++;
      continue;
    }
    frames[frame_top++] = {root, g.offsets[root]};
    index[root] = lowlink[root] = next_index++;
    stack[stack_top++] = root;
    on_stack[root] = 1;

    while (frame_top > 0) {
      Frame& frame = frames[frame_top - 1];
      const NodeId v = frame.v;
      const int32_t arc_end = g.offsets[v + 1];
      bool descended = false;
      while (frame.arc < arc_end) {
        NodeId w = g.targets[frame.arc++];
        // Self-arcs are skipped in both modes: in Tarjan they only produce
        // lowlink[v] = min(lowlink[v], index[v]), a no-op, so the component
        // numbering is unaffected.
        if (w < min_node || w == v) continue;
        if (index[w] == -1) {
          index[w] = lowlink[w] = next_index++;
          stack[stack_top++] = w;
          on_stack[w] = 1;
          frames[frame_top++] = {w, g.offsets[w]};
          descended = true;
          break;
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      }
      if (descended) continue;
      if (frame.arc == arc_end) {
        if (lowlink[v] == index[v]) {
          NodeId w;
          do {
            w = stack[--stack_top];
            on_stack[w] = 0;
            component[w] = num_components;
          } while (w != v);
          ++num_components;
        }
        --frame_top;
        if (frame_top > 0) {
          NodeId parent = frames[frame_top - 1].v;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }
  result.num_components = num_components;
  return result;
}

}  // namespace

FlatScc SccOnCsr(const CsrGraph& g, Arena* arena) {
  return TarjanOnCsr(g, /*min_node=*/0, arena);
}

FlatScc SccOnCsrMasked(const CsrGraph& g, NodeId min_node, Arena* arena) {
  return TarjanOnCsr(g, min_node < 0 ? 0 : min_node, arena);
}

bool StronglyConnectedOnCsr(const CsrGraph& g, Arena* scratch) {
  if (g.num_nodes <= 1) return true;
  ArenaScope scope(scratch);
  return SccOnCsr(g, scratch).num_components == 1;
}

FlatSccMembers GroupSccMembers(const FlatScc& scc, int num_nodes,
                               Arena* arena) {
  const int32_t n = num_nodes;
  const int32_t c = scc.num_components;
  FlatSccMembers out;
  int32_t* offsets =
      arena->AllocateZeroed<int32_t>(static_cast<size_t>(c) + 1);
  NodeId* nodes = arena->AllocateArray<NodeId>(static_cast<size_t>(n));
  for (int32_t v = 0; v < n; ++v) ++offsets[scc.component[v] + 1];
  for (int32_t i = 0; i < c; ++i) offsets[i + 1] += offsets[i];
  int32_t* cursor = arena->AllocateArray<int32_t>(static_cast<size_t>(c));
  std::memcpy(cursor, offsets, static_cast<size_t>(c) * sizeof(int32_t));
  for (NodeId v = 0; v < n; ++v) {
    nodes[cursor[scc.component[v]]++] = v;  // ascending node id per component
  }
  out.offsets = offsets;
  out.nodes = nodes;
  return out;
}

CsrGraph CondensationInArcsOnCsr(const CsrGraph& g, const FlatScc& scc,
                                 Arena* arena) {
  const int32_t c = scc.num_components;
  // Pack each cross arc u->v as (comp[v] << 32) | comp[u]: sorting groups by
  // target component and puts duplicates adjacent for the dedup pass. The
  // scratch pairs array stays live until the caller's enclosing ArenaScope
  // ends — a scope here would also rewind the result arrays below.
  int64_t* pairs =
      arena->AllocateArray<int64_t>(static_cast<size_t>(g.num_arcs));
  int32_t num_pairs = 0;
  for (NodeId u = 0; u < g.num_nodes; ++u) {
    const int32_t cu = scc.component[u];
    for (const NodeId* it = g.begin(u); it != g.end(u); ++it) {
      const int32_t cv = scc.component[*it];
      if (cu != cv) {
        pairs[num_pairs++] =
            (static_cast<int64_t>(cv) << 32) | static_cast<uint32_t>(cu);
      }
    }
  }
  std::sort(pairs, pairs + num_pairs);
  num_pairs =
      static_cast<int32_t>(std::unique(pairs, pairs + num_pairs) - pairs);

  int32_t* offsets = arena->AllocateZeroed<int32_t>(static_cast<size_t>(c) + 1);
  NodeId* targets =
      arena->AllocateArray<NodeId>(static_cast<size_t>(num_pairs));
  for (int32_t i = 0; i < num_pairs; ++i) {
    ++offsets[(pairs[i] >> 32) + 1];
    targets[i] = static_cast<NodeId>(pairs[i] & 0xffffffff);
  }
  for (int32_t i = 0; i < c; ++i) offsets[i + 1] += offsets[i];
  return MakeCsr(c, num_pairs, offsets, targets);
}

namespace {

/// Reverse-topological OR sweep over zero-initialized rows. The row width is
/// a template parameter so the W <= 4 size classes (n <= 256 — every
/// realistic transaction step order) compile to straight-line loads/ORs/
/// stores per arc instead of a counted loop.
template <size_t W>
void SweepDagRows(const CsrGraph& g, const NodeId* order, uint64_t* rows) {
  for (int32_t i = g.num_nodes - 1; i >= 0; --i) {
    const NodeId u = order[i];
    uint64_t* row = rows + static_cast<size_t>(u) * W;
    // Accumulate in a local array: u's row cannot alias any target's row
    // (a DAG has no self-arcs), but the compiler cannot prove it, so OR-ing
    // into `row` directly would reload and store all W words on every arc.
    uint64_t acc[W];
    for (size_t k = 0; k < W; ++k) acc[k] = row[k];
    for (const NodeId* it = g.begin(u); it != g.end(u); ++it) {
      const uint64_t* src = rows + static_cast<size_t>(*it) * W;
      for (size_t k = 0; k < W; ++k) acc[k] |= src[k];
    }
    for (size_t k = 0; k < W; ++k) row[k] = acc[k];
  }
}

void SweepDagRowsGeneric(const CsrGraph& g, const NodeId* order,
                         uint64_t* rows, size_t w) {
  for (int32_t i = g.num_nodes - 1; i >= 0; --i) {
    const NodeId u = order[i];
    uint64_t* row = rows + static_cast<size_t>(u) * w;
    for (const NodeId* it = g.begin(u); it != g.end(u); ++it) {
      bits::OrWordsInto(row, rows + static_cast<size_t>(*it) * w, w);
    }
  }
}

}  // namespace

void ReachabilityWordsOnCsr(const CsrGraph& g, uint64_t* rows,
                            Arena* scratch) {
  const int32_t n = g.num_nodes;
  if (n == 0) return;
  const size_t w = bits::WordsForBits(static_cast<size_t>(n));
  ArenaScope scope(scratch);

  // Fast path: Kahn. Transaction step orders — the rows computed on every
  // pair check — are always DAGs, so first try a plain topological sort and
  // sweep reverse-topologically straight into `rows`. This skips Tarjan and
  // the component grouping entirely; only cyclic graphs fall through to the
  // SCC-based path below.
  {
    int32_t* indegree =
        scratch->AllocateZeroed<int32_t>(static_cast<size_t>(n));
    for (int32_t i = 0; i < g.num_arcs; ++i) ++indegree[g.targets[i]];
    NodeId* order = scratch->AllocateArray<NodeId>(static_cast<size_t>(n));
    int32_t head = 0, tail = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (indegree[v] == 0) order[tail++] = v;
    }
    while (head < tail) {
      const NodeId u = order[head++];
      for (const NodeId* it = g.begin(u); it != g.end(u); ++it) {
        if (--indegree[*it] == 0) order[tail++] = *it;
      }
    }
    if (tail == n) {  // acyclic: targets are complete before their sources
      for (NodeId v = 0; v < n; ++v) {
        bits::SetBit(rows + static_cast<size_t>(v) * w,
                     static_cast<size_t>(v));
      }
      switch (w) {
        case 1: SweepDagRows<1>(g, order, rows); break;
        case 2: SweepDagRows<2>(g, order, rows); break;
        case 3: SweepDagRows<3>(g, order, rows); break;
        case 4: SweepDagRows<4>(g, order, rows); break;
        default: SweepDagRowsGeneric(g, order, rows, w); break;
      }
      return;
    }
  }

  FlatScc scc = SccOnCsr(g, scratch);
  FlatSccMembers members = GroupSccMembers(scc, n, scratch);
  const int32_t c = scc.num_components;

  // Each component's row is computed IN PLACE in the output row of its
  // first member (its representative); the remaining members take a copy
  // at the end of the component's turn. On a DAG every component is a
  // singleton, so there is no scratch matrix and no copying at all — the
  // sweep writes the final rows directly, matching the memory traffic of
  // a plain reverse-topological sweep.
  auto rep_row = [&](int32_t comp) {
    return rows +
           static_cast<size_t>(members.nodes[members.offsets[comp]]) * w;
  };
  // Ascending component id = reverse topological order (Tarjan numbering),
  // so every cross-arc target component's rep row is already final when it
  // is ORed in.
  for (int32_t comp = 0; comp < c; ++comp) {
    uint64_t* row = rep_row(comp);
    for (int32_t i = members.offsets[comp]; i < members.offsets[comp + 1];
         ++i) {
      bits::SetBit(row, static_cast<size_t>(members.nodes[i]));
    }
    for (int32_t i = members.offsets[comp]; i < members.offsets[comp + 1];
         ++i) {
      const NodeId u = members.nodes[i];
      for (const NodeId* it = g.begin(u); it != g.end(u); ++it) {
        const int32_t cv = scc.component[*it];
        if (cv != comp) bits::OrWordsInto(row, rep_row(cv), w);
      }
    }
    for (int32_t i = members.offsets[comp] + 1;
         i < members.offsets[comp + 1]; ++i) {
      std::memcpy(rows + static_cast<size_t>(members.nodes[i]) * w, row,
                  w * sizeof(uint64_t));
    }
  }
}

bool HasCycleOnCsr(const CsrGraph& g, Arena* scratch) {
  const int32_t n = g.num_nodes;
  if (n == 0) return false;
  ArenaScope scope(scratch);
  int32_t* indegree = scratch->AllocateZeroed<int32_t>(static_cast<size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId* it = g.begin(u); it != g.end(u); ++it) {
      if (*it == u) return true;  // self-loop
      ++indegree[*it];
    }
  }
  NodeId* queue = scratch->AllocateArray<NodeId>(static_cast<size_t>(n));
  int32_t head = 0, tail = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (indegree[v] == 0) queue[tail++] = v;
  }
  while (head < tail) {
    const NodeId u = queue[head++];
    for (const NodeId* it = g.begin(u); it != g.end(u); ++it) {
      if (--indegree[*it] == 0) queue[tail++] = *it;
    }
  }
  return tail < n;  // some node never reached indegree 0 => cycle
}

}  // namespace dislock
