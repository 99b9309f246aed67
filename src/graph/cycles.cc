#include "graph/cycles.h"

#include <cstring>

#include "graph/csr.h"
#include "util/arena.h"

namespace dislock {

namespace {

/// Johnson's enumeration on a CsrGraph: the graph is lowered once, the
/// per-start SCC restriction runs as a masked Tarjan on the same CSR (no
/// sub-Digraph materialization), and block maps are intrusive linked lists
/// over one growable pool. The Circuit recursion walks CSR rows in Digraph
/// adjacency order, so the emitted cycle sequence is a function of the
/// graph's arc order alone.
class JohnsonOnCsr {
 public:
  JohnsonOnCsr(CsrGraph g, int64_t max_cycles,
               std::vector<std::vector<NodeId>>* out, Arena* arena)
      : g_(g), max_cycles_(max_cycles), out_(out), arena_(arena) {
    const size_t n = static_cast<size_t>(g.num_nodes);
    blocked_ = arena->AllocateZeroed<uint8_t>(n);
    in_scope_ = arena->AllocateZeroed<uint8_t>(n);
    block_head_ = arena->AllocateArray<int32_t>(n);
  }

  void Run() {
    const int32_t n = g_.num_nodes;
    for (NodeId u = 0; u < n && !Full(); ++u) {
      for (const NodeId* it = g_.begin(u); it != g_.end(u); ++it) {
        if (*it == u) {
          out_->push_back({u});  // self-loops are simple cycles too
          break;
        }
      }
    }
    for (start_ = 0; start_ < n && !Full(); ++start_) {
      ArenaScope scope(arena_);
      FlatScc scc = SccOnCsrMasked(g_, start_, arena_);
      const int32_t comp = scc.component[start_];
      int32_t comp_size = 0;
      for (NodeId u = 0; u < n; ++u) {
        in_scope_[u] = u >= start_ && scc.component[u] == comp;
        if (in_scope_[u]) ++comp_size;
      }
      if (comp_size < 2) continue;
      std::memset(blocked_, 0, static_cast<size_t>(n));
      std::memset(block_head_, -1, static_cast<size_t>(n) * sizeof(int32_t));
      block_pool_.clear();
      Circuit(start_);
    }
  }

 private:
  struct BlockEntry {
    NodeId node;
    int32_t next;  ///< index into block_pool_, -1 = end
  };

  bool Full() const {
    return static_cast<int64_t>(out_->size()) >= max_cycles_;
  }

  void Unblock(NodeId u) {
    blocked_[u] = 0;
    int32_t e = block_head_[u];
    block_head_[u] = -1;
    while (e != -1) {
      const BlockEntry entry = block_pool_[static_cast<size_t>(e)];
      if (blocked_[entry.node]) Unblock(entry.node);
      e = entry.next;
    }
  }

  void BlockMapAdd(NodeId w, NodeId v) {
    for (int32_t e = block_head_[w]; e != -1;
         e = block_pool_[static_cast<size_t>(e)].next) {
      if (block_pool_[static_cast<size_t>(e)].node == v) return;
    }
    block_pool_.push_back({v, block_head_[w]});
    block_head_[w] = static_cast<int32_t>(block_pool_.size()) - 1;
  }

  bool Circuit(NodeId v) {
    bool found = false;
    path_.push_back(v);
    blocked_[v] = 1;
    for (const NodeId* it = g_.begin(v); it != g_.end(v); ++it) {
      const NodeId w = *it;
      if (!in_scope_[w] || w == v) continue;
      if (Full()) break;
      if (w == start_) {
        out_->push_back(path_);
        found = true;
      } else if (!blocked_[w]) {
        if (Circuit(w)) found = true;
      }
    }
    if (found) {
      Unblock(v);
    } else {
      for (const NodeId* it = g_.begin(v); it != g_.end(v); ++it) {
        if (!in_scope_[*it] || *it == v) continue;
        BlockMapAdd(*it, v);
      }
    }
    path_.pop_back();
    return found;
  }

  const CsrGraph g_;  ///< by value: a CsrGraph is a trivially copyable view
  int64_t max_cycles_;
  std::vector<std::vector<NodeId>>* out_;
  Arena* arena_;
  NodeId start_ = 0;
  uint8_t* blocked_ = nullptr;
  uint8_t* in_scope_ = nullptr;
  int32_t* block_head_ = nullptr;
  std::vector<BlockEntry> block_pool_;
  std::vector<NodeId> path_;
};

}  // namespace

bool HasCycle(const Digraph& g) {
  Arena* arena = ScratchArena();
  ArenaScope scope(arena);
  return HasCycleOnCsr(BuildCsr(g, arena), arena);
}

std::vector<std::vector<NodeId>> SimpleCycles(const Digraph& g,
                                              int64_t max_cycles) {
  std::vector<std::vector<NodeId>> cycles;
  if (max_cycles <= 0) return cycles;
  Arena* arena = ScratchArena();
  ArenaScope scope(arena);
  JohnsonOnCsr state(BuildCsr(g, arena), max_cycles, &cycles, arena);
  state.Run();
  return cycles;
}

}  // namespace dislock
