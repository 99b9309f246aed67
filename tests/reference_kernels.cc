#include "reference_kernels.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "core/conflict_graph.h"
#include "graph/dominator.h"
#include "txn/linear_extension.h"

namespace dislock {
namespace reference {

Scc StronglyConnectedComponents(const Digraph& g) {
  const int n = g.NumNodes();
  Scc scc;
  scc.component.assign(static_cast<size_t>(n), -1);
  std::vector<int> index(static_cast<size_t>(n), -1);
  std::vector<int> low(static_cast<size_t>(n), 0);
  std::vector<bool> on_stack(static_cast<size_t>(n), false);
  std::vector<NodeId> stack;
  int next_index = 0;
  std::function<void(NodeId)> visit = [&](NodeId v) {
    index[v] = low[v] = next_index++;
    stack.push_back(v);
    on_stack[v] = true;
    for (NodeId w : g.OutNeighbors(v)) {
      if (index[w] == -1) {
        visit(w);
        low[v] = std::min(low[v], low[w]);
      } else if (on_stack[w]) {
        low[v] = std::min(low[v], index[w]);
      }
    }
    if (low[v] != index[v]) return;
    scc.members.emplace_back();
    NodeId w;
    do {
      w = stack.back();
      stack.pop_back();
      on_stack[w] = false;
      scc.component[w] = scc.num_components;
      scc.members.back().push_back(w);
    } while (w != v);
    ++scc.num_components;
  };
  for (NodeId v = 0; v < n; ++v) {
    if (index[v] == -1) visit(v);
  }
  return scc;
}

Digraph Condensation(const Digraph& g, const Scc& scc) {
  Digraph cond(scc.num_components);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) {
      if (scc.component[u] != scc.component[v]) {
        cond.AddArcUnique(scc.component[u], scc.component[v]);
      }
    }
  }
  return cond;
}

std::vector<std::vector<bool>> Reachable(const Digraph& g) {
  const int n = g.NumNodes();
  std::vector<std::vector<bool>> reach(
      static_cast<size_t>(n), std::vector<bool>(static_cast<size_t>(n)));
  for (NodeId s = 0; s < n; ++s) {
    std::deque<NodeId> queue{s};
    reach[s][s] = true;
    while (!queue.empty()) {
      NodeId u = queue.front();
      queue.pop_front();
      for (NodeId v : g.OutNeighbors(u)) {
        if (!reach[s][v]) {
          reach[s][v] = true;
          queue.push_back(v);
        }
      }
    }
  }
  return reach;
}

bool HasCycle(const Digraph& g) {
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (g.HasArc(u, u)) return true;
  }
  for (const auto& members : StronglyConnectedComponents(g).members) {
    if (members.size() > 1) return true;
  }
  return false;
}

std::vector<std::vector<NodeId>> SimpleCycles(const Digraph& g,
                                              int64_t max_cycles) {
  std::vector<std::vector<NodeId>> out;
  auto full = [&] { return static_cast<int64_t>(out.size()) >= max_cycles; };
  const int n = g.NumNodes();
  for (NodeId u = 0; u < n && !full(); ++u) {
    if (g.HasArc(u, u)) out.push_back({u});
  }
  std::vector<NodeId> path;
  std::vector<bool> on_path(static_cast<size_t>(n), false);
  NodeId start = 0;
  std::function<void(NodeId)> extend = [&](NodeId v) {
    path.push_back(v);
    on_path[v] = true;
    for (NodeId w : g.OutNeighbors(v)) {
      if (w < start || w == v) continue;
      if (full()) break;
      if (w == start) {
        out.push_back(path);
      } else if (!on_path[w]) {
        extend(w);
      }
    }
    on_path[v] = false;
    path.pop_back();
  };
  for (start = 0; start < n && !full(); ++start) extend(start);
  return out;
}

Result<std::vector<NodeId>> FindDominator(const Digraph& g) {
  if (g.NumNodes() < 2) {
    return Status::NotFound("graph has < 2 nodes; no dominator");
  }
  Scc scc = StronglyConnectedComponents(g);
  if (scc.num_components == 1) {
    return Status::NotFound("graph is strongly connected; no dominator");
  }
  Digraph cond = Condensation(g, scc);
  for (int c = 0; c < scc.num_components; ++c) {
    if (cond.InNeighbors(c).empty()) {
      std::vector<NodeId> x = scc.members[static_cast<size_t>(c)];
      std::sort(x.begin(), x.end());
      return x;
    }
  }
  return Status::Internal("condensation DAG has no source component");
}

std::vector<std::vector<NodeId>> AllDominators(const Digraph& g,
                                               int64_t max_count) {
  std::vector<std::vector<NodeId>> out;
  if (g.NumNodes() < 2 || max_count <= 0) return out;
  Scc scc = StronglyConnectedComponents(g);
  const int num = scc.num_components;
  if (num == 1) return out;
  Digraph cond = Condensation(g, scc);
  std::vector<bool> chosen(static_cast<size_t>(num), false);
  // Tarjan numbers components in reverse topological order, so descending
  // id is a topological order.
  std::function<void(int, int)> enumerate = [&](int pos, int num_chosen) {
    if (static_cast<int64_t>(out.size()) >= max_count) return;
    if (pos == num) {
      if (num_chosen == 0 || num_chosen == num) return;
      std::vector<NodeId> x;
      for (int c = 0; c < num; ++c) {
        if (!chosen[static_cast<size_t>(c)]) continue;
        const auto& m = scc.members[static_cast<size_t>(c)];
        x.insert(x.end(), m.begin(), m.end());
      }
      std::sort(x.begin(), x.end());
      out.push_back(std::move(x));
      return;
    }
    const int c = num - 1 - pos;
    enumerate(pos + 1, num_chosen);
    for (NodeId p : cond.InNeighbors(c)) {
      if (!chosen[static_cast<size_t>(p)]) return;
    }
    chosen[static_cast<size_t>(c)] = true;
    enumerate(pos + 1, num_chosen + 1);
    chosen[static_cast<size_t>(c)] = false;
  };
  enumerate(0, 0);
  return out;
}

namespace {

/// X is a dominator of D(t1, t2); entities outside V are an error.
Result<bool> XIsDominator(const Transaction& t1, const Transaction& t2,
                          const std::vector<EntityId>& x_set) {
  ConflictGraph d = BuildConflictGraph(t1, t2);
  std::vector<NodeId> nodes;
  for (EntityId e : x_set) {
    auto it = d.node_of.find(e);
    if (it == d.node_of.end()) {
      return Status::InvalidArgument("entity '" + t1.db().NameOf(e) +
                                     "' is not commonly locked");
    }
    nodes.push_back(it->second);
  }
  return IsDominator(d.graph, nodes);
}

}  // namespace

Result<ClosureResult> CloseWithRespectTo(const Transaction& t1,
                                         const Transaction& t2,
                                         const std::vector<EntityId>& x_set) {
  ClosureResult result{t1, t2, 0, 0};
  const std::set<EntityId> xs(x_set.begin(), x_set.end());
  const std::vector<EntityId> common = ConflictingEntities(t1, t2);
  DISLOCK_ASSIGN_OR_RETURN(bool dominator, XIsDominator(t1, t2, x_set));
  if (!dominator) {
    return Status::InvalidArgument("X is not a dominator of D(T1,T2)");
  }
  const int max_rounds =
      4 * static_cast<int>(common.size() * common.size()) + 8;
  for (int round = 0; round < max_rounds; ++round) {
    ++result.iterations;
    Transaction& c1 = result.t1;
    Transaction& c2 = result.t2;
    // The first (z, x, y) with Lz <1 Ux and Ly <2 Uz whose Definition 3
    // consequent (x != y, Uy <1 Ux, Ly <2 Lx) fails.
    bool found = false;
    EntityId vx = 0, vy = 0;
    for (EntityId z : common) {
      if (xs.count(z) > 0) continue;
      for (EntityId x : xs) {
        if (!c1.Precedes(c1.LockStep(z), c1.UnlockStep(x))) continue;
        for (EntityId y : xs) {
          if (!c2.Precedes(c2.LockStep(y), c2.UnlockStep(z))) continue;
          if (x != y && c1.Precedes(c1.UnlockStep(y), c1.UnlockStep(x)) &&
              c2.Precedes(c2.LockStep(y), c2.LockStep(x))) {
            continue;
          }
          found = true;
          vx = x;
          vy = y;
          break;
        }
        if (found) break;
      }
      if (found) break;
    }
    if (!found) return result;
    if (vx == vy) {
      return Status::Undecided(
          "Lemma 2 antecedent holds with x == y: X is no longer a dominator "
          "(possible only with three or more sites)");
    }
    if (c1.Precedes(c1.UnlockStep(vx), c1.UnlockStep(vy)) ||
        c2.Precedes(c2.LockStep(vx), c2.LockStep(vy))) {
      return Status::Undecided(
          "Lemma 2 inference contradicts the existing partial orders "
          "(possible only with three or more sites)");
    }
    if (!c1.Precedes(c1.UnlockStep(vy), c1.UnlockStep(vx))) {
      c1.AddPrecedence(c1.UnlockStep(vy), c1.UnlockStep(vx));
      ++result.precedences_added;
    }
    if (!c2.Precedes(c2.LockStep(vy), c2.LockStep(vx))) {
      c2.AddPrecedence(c2.LockStep(vy), c2.LockStep(vx));
      ++result.precedences_added;
    }
    if (!XIsDominator(c1, c2, x_set).value()) {
      return Status::Undecided(
          "X stopped being a dominator during closure (possible only with "
          "three or more sites)");
    }
  }
  return Status::Internal("closure did not converge within its round bound");
}

std::string PairFingerprint(const Transaction& t1, const Transaction& t2) {
  std::unordered_map<EntityId, int> entity_index;
  std::unordered_map<SiteId, int> site_index;
  std::string out;
  for (const Transaction* t : {&t1, &t2}) {
    out += 't';
    for (StepId s = 0; s < t->NumSteps(); ++s) {
      const Step& step = t->GetStep(s);
      const SiteId site = t->db().SiteOf(step.entity);
      const int next_entity = static_cast<int>(entity_index.size());
      if (entity_index.emplace(step.entity, next_entity).second) {
        site_index.emplace(site, static_cast<int>(site_index.size()));
      }
      out += step.kind == StepKind::kLock     ? "L"
             : step.kind == StepKind::kUnlock ? "U"
                                              : "u";
      if (step.shared) out += 's';
      out += std::to_string(entity_index.at(step.entity)) + "@" +
             std::to_string(site_index.at(site)) + ";";
    }
    std::set<std::pair<NodeId, NodeId>> arcs;
    for (NodeId u = 0; u < t->order().NumNodes(); ++u) {
      for (NodeId v : t->order().OutNeighbors(u)) arcs.emplace(u, v);
    }
    out += '|';
    for (const auto& [u, v] : arcs) {
      out += std::to_string(u) + ">" + std::to_string(v) + ";";
    }
  }
  return out;
}

Digraph BuildCycleGraph(const SystemView& view,
                        const std::vector<int>& cycle) {
  const int len = static_cast<int>(cycle.size());
  Digraph b;
  std::map<std::tuple<int, int, EntityId>, NodeId> node_of;
  auto node = [&](int ti, int tj, EntityId e) {
    auto key = std::make_tuple(std::min(ti, tj), std::max(ti, tj), e);
    auto it = node_of.find(key);
    if (it != node_of.end()) return it->second;
    return node_of.emplace(key, b.AddNode()).first->second;
  };
  // One B_ijk per directed two-path (Ti, Tj, Tk) of the cycle, all arcs
  // read off the middle transaction Tj.
  for (int p = 0; p < len; ++p) {
    const int i = cycle[static_cast<size_t>((p + len - 1) % len)];
    const int j = cycle[static_cast<size_t>(p)];
    const int k = cycle[static_cast<size_t>((p + 1) % len)];
    const Transaction& tj = view.txn(j);
    const std::vector<EntityId> in = ConflictingEntities(view.txn(i), tj);
    const std::vector<EntityId> out = ConflictingEntities(tj, view.txn(k));
    for (EntityId x : in) {
      for (EntityId y : out) {  // (x_ij, y_jk) iff Lx < Uy
        if (tj.Precedes(tj.LockStep(x), tj.UnlockStep(y))) {
          b.AddArcUnique(node(i, j, x), node(j, k, y));
        }
      }
      for (EntityId x2 : in) {  // (x_ij, x'_ij) iff Lx < Lx'
        if (x != x2 && tj.Precedes(tj.LockStep(x), tj.LockStep(x2))) {
          b.AddArcUnique(node(i, j, x), node(i, j, x2));
        }
      }
    }
    for (EntityId y : out) {
      for (EntityId y2 : out) {  // (y_jk, y'_jk) iff Uy < Uy'
        if (y != y2 && tj.Precedes(tj.UnlockStep(y), tj.UnlockStep(y2))) {
          b.AddArcUnique(node(j, k, y), node(j, k, y2));
        }
      }
    }
  }
  return b;
}

Result<ExhaustiveResult> ExhaustivePairSafety(const Transaction& t1,
                                              const Transaction& t2,
                                              int64_t max_pairs) {
  auto positions = [](const std::vector<StepId>& order) {
    std::vector<int> pos(order.size(), 0);
    for (size_t i = 0; i < order.size(); ++i) {
      pos[order[i]] = static_cast<int>(i);
    }
    return pos;
  };
  const std::vector<EntityId> common = ConflictingEntities(t1, t2);
  const int k = static_cast<int>(common.size());
  // A totally ordered pair is safe iff its D graph is strongly connected.
  auto pair_safe = [&](const std::vector<int>& pos1,
                       const std::vector<int>& pos2) {
    if (k <= 1) return true;
    Digraph d(k);
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < k; ++j) {
        if (i != j && pos1[t1.LockStep(common[i])] <
                          pos1[t1.UnlockStep(common[j])] &&
            pos2[t2.LockStep(common[j])] < pos2[t2.UnlockStep(common[i])]) {
          d.AddArc(i, j);
        }
      }
    }
    return StronglyConnectedComponents(d).num_components == 1;
  };

  std::vector<std::vector<StepId>> ext2;
  std::vector<std::vector<int>> pos2;
  DISLOCK_RETURN_NOT_OK(EnumerateLinearExtensions(
      t2, max_pairs, [&](const std::vector<StepId>& order) {
        ext2.push_back(order);
        pos2.push_back(positions(order));
        return true;
      }));

  ExhaustiveResult result;
  result.safe = true;
  bool exhausted = false;
  std::vector<StepId> unsafe_order1, unsafe_order2;
  DISLOCK_RETURN_NOT_OK(EnumerateLinearExtensions(
      t1, max_pairs, [&](const std::vector<StepId>& order1) {
        std::vector<int> pos1 = positions(order1);
        for (size_t i = 0; i < ext2.size(); ++i) {
          if (result.combinations_checked >= max_pairs) {
            exhausted = true;
            return false;
          }
          ++result.combinations_checked;
          if (pair_safe(pos1, pos2[i])) continue;
          result.safe = false;
          unsafe_order1 = order1;
          unsafe_order2 = ext2[i];
          return false;
        }
        return true;
      }));
  if (!result.safe) {
    DISLOCK_ASSIGN_OR_RETURN(
        result.certificate,
        BuildCertificateFromExtensions(t1, t2, unsafe_order1, unsafe_order2));
    return result;
  }
  if (exhausted) {
    return Status::ResourceExhausted(
        "extension-pair budget exhausted before a decision");
  }
  return result;
}

}  // namespace reference
}  // namespace dislock
