#include "graph/scc.h"

#include "graph/csr.h"
#include "util/arena.h"

namespace dislock {

bool IsStronglyConnected(const Digraph& g) {
  if (g.NumNodes() <= 1) return true;
  Arena* arena = ScratchArena();
  ArenaScope scope(arena);
  return StronglyConnectedOnCsr(BuildCsr(g, arena), arena);
}

}  // namespace dislock
