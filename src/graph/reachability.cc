#include "graph/reachability.h"

#include "graph/csr.h"
#include "util/arena.h"

namespace dislock {

Reachability::Reachability(const Digraph& g) {
  const int n = g.NumNodes();
  num_nodes_ = n;
  words_per_row_ = bits::WordsForBits(static_cast<size_t>(n));
  words_.assign(static_cast<size_t>(n) * words_per_row_, 0);
  if (n == 0) return;
  Arena* arena = ScratchArena();
  ArenaScope scope(arena);
  ReachabilityWordsOnCsr(BuildCsr(g, arena), words_.data(), arena);
}

}  // namespace dislock
