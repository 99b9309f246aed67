#include "graph/dominator.h"

#include <algorithm>

#include "graph/csr.h"
#include "util/arena.h"

namespace dislock {

bool IsDominator(const Digraph& g, const std::vector<NodeId>& candidate) {
  const int n = g.NumNodes();
  if (candidate.empty() || static_cast<int>(candidate.size()) >= n) {
    return false;
  }
  std::vector<bool> in_x(n, false);
  for (NodeId v : candidate) {
    if (!g.ValidNode(v) || in_x[v]) return false;  // invalid or duplicate
    in_x[v] = true;
  }
  for (NodeId u = 0; u < n; ++u) {
    if (in_x[u]) continue;
    for (NodeId v : g.OutNeighbors(u)) {
      if (in_x[v]) return false;  // incoming arc from V - X
    }
  }
  return true;
}

Result<std::vector<NodeId>> FindDominator(const Digraph& g) {
  if (g.NumNodes() < 2) {
    return Status::NotFound("graph has < 2 nodes; no dominator");
  }
  Arena* arena = ScratchArena();
  ArenaScope scope(arena);
  CsrGraph csr = BuildCsr(g, arena);
  FlatScc scc = SccOnCsr(csr, arena);
  if (scc.num_components == 1) {
    return Status::NotFound("graph is strongly connected; no dominator");
  }
  FlatSccMembers members = GroupSccMembers(scc, g.NumNodes(), arena);
  CsrGraph cond_in = CondensationInArcsOnCsr(csr, scc, arena);
  for (int32_t c = 0; c < scc.num_components; ++c) {
    if (cond_in.OutDegree(c) == 0) {  // cond_in stores IN-neighbors: a
                                      // component with none is a source
      // Members come back in ascending node id from the counting sort, so
      // the dominator is already sorted.
      return std::vector<NodeId>(members.nodes + members.offsets[c],
                                 members.nodes + members.offsets[c + 1]);
    }
  }
  return Status::Internal("condensation DAG has no source component");
}

namespace {

/// Enumerates predecessor-closed component subsets: components are visited
/// in descending id (= topological order of the condensation, so a
/// component's predecessors are decided before it), and each is first
/// excluded, then included if every predecessor is chosen. The emitted
/// dominator sequence is therefore a function of the component numbering.
struct EnumCtx {
  const CsrGraph* cond_in;  ///< condensation IN-adjacency
  FlatSccMembers members;
  int num_components;
  uint8_t* chosen;
  std::vector<NodeId> x;  ///< the dominator handed to the visitor
  const DominatorVisitor* visit;
};

/// False once the visitor has stopped the enumeration.
bool EnumerateDownSets(EnumCtx& ctx, int pos, int num_chosen) {
  const int kC = ctx.num_components;
  if (pos == kC) {
    if (num_chosen == 0 || num_chosen == kC) return true;  // nonempty, proper
    ctx.x.clear();
    for (int c = 0; c < kC; ++c) {
      if (ctx.chosen[c]) {
        ctx.x.insert(ctx.x.end(), ctx.members.nodes + ctx.members.offsets[c],
                     ctx.members.nodes + ctx.members.offsets[c + 1]);
      }
    }
    std::sort(ctx.x.begin(), ctx.x.end());
    return (*ctx.visit)(ctx.x);
  }
  const int c = kC - 1 - pos;  // descending id = topological order
  if (!EnumerateDownSets(ctx, pos + 1, num_chosen)) return false;
  for (const NodeId* p = ctx.cond_in->begin(c); p != ctx.cond_in->end(c);
       ++p) {
    if (!ctx.chosen[*p]) return true;  // a predecessor is excluded
  }
  ctx.chosen[c] = 1;
  const bool more = EnumerateDownSets(ctx, pos + 1, num_chosen + 1);
  ctx.chosen[c] = 0;
  return more;
}

}  // namespace

bool EnumerateDominators(const Digraph& g, const DominatorVisitor& visit) {
  if (g.NumNodes() < 2) return true;
  Arena* arena = ScratchArena();
  ArenaScope scope(arena);
  CsrGraph csr = BuildCsr(g, arena);
  FlatScc scc = SccOnCsr(csr, arena);
  if (scc.num_components == 1) return true;
  CsrGraph cond_in = CondensationInArcsOnCsr(csr, scc, arena);
  EnumCtx ctx;
  ctx.cond_in = &cond_in;
  ctx.members = GroupSccMembers(scc, g.NumNodes(), arena);
  ctx.num_components = scc.num_components;
  ctx.chosen =
      arena->AllocateZeroed<uint8_t>(static_cast<size_t>(scc.num_components));
  ctx.visit = &visit;
  return EnumerateDownSets(ctx, 0, 0);
}

std::vector<std::vector<NodeId>> AllDominators(const Digraph& g,
                                                   int64_t max_count) {
  std::vector<std::vector<NodeId>> out;
  if (max_count <= 0) return out;
  EnumerateDominators(g, [&](const std::vector<NodeId>& x) {
    out.push_back(x);
    return static_cast<int64_t>(out.size()) < max_count;
  });
  return out;
}

}  // namespace dislock
