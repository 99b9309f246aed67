#include "txn/schedule.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "graph/topological.h"
#include "txn/lock_table.h"
#include "util/string_util.h"

namespace dislock {

std::string Schedule::ToString(const TransactionSystem& system) const {
  std::ostringstream out;
  bool first = true;
  for (const SysStep& ev : events_) {
    if (!first) out << " ";
    out << system.txn(ev.txn).StepString(ev.step) << "_" << (ev.txn + 1);
    first = false;
  }
  return out.str();
}

Status CheckScheduleLegal(const TransactionSystem& system,
                          const Schedule& schedule) {
  const int k = system.NumTransactions();
  // Position of each step in the schedule; -1 = not seen.
  std::vector<std::vector<int>> pos(k);
  for (int i = 0; i < k; ++i) pos[i].assign(system.txn(i).NumSteps(), -1);

  int expected = 0;
  for (int i = 0; i < k; ++i) expected += system.txn(i).NumSteps();
  if (static_cast<int>(schedule.size()) != expected) {
    return Status::InvalidArgument(
        StrCat("schedule has ", schedule.size(), " events, system has ",
               expected, " steps"));
  }

  for (size_t idx = 0; idx < schedule.size(); ++idx) {
    const SysStep& ev = schedule.at(idx);
    if (ev.txn < 0 || ev.txn >= k ||
        !system.txn(ev.txn).ValidStep(ev.step)) {
      return Status::InvalidArgument(
          StrCat("event ", idx, " refers to an unknown step"));
    }
    if (pos[ev.txn][ev.step] != -1) {
      return Status::InvalidArgument(
          StrCat("step ", system.txn(ev.txn).StepString(ev.step), " of T",
                 ev.txn + 1, " occurs twice"));
    }
    pos[ev.txn][ev.step] = static_cast<int>(idx);
  }

  // Partial orders.
  for (int i = 0; i < k; ++i) {
    const Transaction& t = system.txn(i);
    for (StepId s = 0; s < t.NumSteps(); ++s) {
      for (NodeId v : t.order().OutNeighbors(s)) {
        if (pos[i][s] > pos[i][v]) {
          return Status::InvalidArgument(
              StrCat("schedule violates ", t.name(), "'s precedence ",
                     t.StepString(s), " -> ", t.StepString(v)));
        }
      }
    }
  }

  // Lock semantics: replay with a reader/writer lock table. Exclusive
  // locks exclude everything; shared locks exclude only writers.
  const int n_entities = system.db().NumEntities();
  std::vector<int> writer(n_entities, -1);
  std::vector<int> reader_count(n_entities, 0);
  std::vector<std::vector<char>> reading(
      n_entities, std::vector<char>(k, 0));
  for (size_t idx = 0; idx < schedule.size(); ++idx) {
    const SysStep& ev = schedule.at(idx);
    const Step& step = system.txn(ev.txn).GetStep(ev.step);
    if (step.kind == StepKind::kLock) {
      if (writer[step.entity] != -1) {
        return Status::InvalidArgument(
            StrCat("event ", idx, ": T", ev.txn + 1, " locks '",
                   system.db().NameOf(step.entity),
                   "' exclusively held by T", writer[step.entity] + 1));
      }
      if (step.shared) {
        reading[step.entity][ev.txn] = 1;
        ++reader_count[step.entity];
      } else {
        if (reader_count[step.entity] != 0) {
          return Status::InvalidArgument(
              StrCat("event ", idx, ": T", ev.txn + 1,
                     " write-locks '", system.db().NameOf(step.entity),
                     "' while it has readers"));
        }
        writer[step.entity] = ev.txn;
      }
    } else if (step.kind == StepKind::kUnlock) {
      if (step.shared) {
        if (!reading[step.entity][ev.txn]) {
          return Status::InvalidArgument(
              StrCat("event ", idx, ": T", ev.txn + 1,
                     " releases a read lock on '",
                     system.db().NameOf(step.entity),
                     "' it does not hold"));
        }
        reading[step.entity][ev.txn] = 0;
        --reader_count[step.entity];
      } else {
        if (writer[step.entity] != ev.txn) {
          return Status::InvalidArgument(
              StrCat("event ", idx, ": T", ev.txn + 1, " unlocks '",
                     system.db().NameOf(step.entity),
                     "' which it does not hold"));
        }
        writer[step.entity] = -1;
      }
    }
  }
  return Status::OK();
}

namespace {

/// [first, last] schedule positions of one transaction's access section on
/// one entity. `shared` marks read sections, which do not conflict with
/// each other.
struct Section {
  int txn;
  int begin;
  int end;
  bool shared;
};

}  // namespace

SerializabilityAnalysis AnalyzeSerializability(
    const TransactionSystem& system, const Schedule& schedule) {
  const int k = system.NumTransactions();
  SerializabilityAnalysis out;
  out.precedence = Digraph(k);

  // Position lookup.
  std::vector<std::vector<int>> pos(k);
  for (int i = 0; i < k; ++i) pos[i].assign(system.txn(i).NumSteps(), -1);
  for (size_t idx = 0; idx < schedule.size(); ++idx) {
    const SysStep& ev = schedule.at(idx);
    pos[ev.txn][ev.step] = static_cast<int>(idx);
  }

  // Build access sections per entity, then precedence arcs.
  for (EntityId e = 0; e < system.db().NumEntities(); ++e) {
    std::vector<Section> sections;
    for (int i = 0; i < k; ++i) {
      const Transaction& t = system.txn(i);
      StepId l = t.LockStep(e);
      StepId u = t.UnlockStep(e);
      if (l != kInvalidStep && u != kInvalidStep) {
        sections.push_back({i, pos[i][l], pos[i][u], t.IsSharedSection(e)});
        continue;
      }
      std::vector<StepId> updates = t.UpdateSteps(e);
      if (!updates.empty()) {
        int lo = pos[i][updates[0]];
        int hi = lo;
        for (StepId s : updates) {
          lo = std::min(lo, pos[i][s]);
          hi = std::max(hi, pos[i][s]);
        }
        sections.push_back({i, lo, hi, /*shared=*/false});
      }
    }
    for (size_t a = 0; a < sections.size(); ++a) {
      for (size_t b = a + 1; b < sections.size(); ++b) {
        const Section& sa = sections[a];
        const Section& sb = sections[b];
        if (sa.shared && sb.shared) continue;  // reads never conflict
        if (sa.end < sb.begin) {
          out.precedence.AddArcUnique(sa.txn, sb.txn);
        } else if (sb.end < sa.begin) {
          out.precedence.AddArcUnique(sb.txn, sa.txn);
        } else {
          // Overlapping sections (unlocked updates): conflicts both ways.
          out.precedence.AddArcUnique(sa.txn, sb.txn);
          out.precedence.AddArcUnique(sb.txn, sa.txn);
        }
      }
    }
  }

  auto order = TopologicalSort(out.precedence);
  if (order.ok()) {
    out.serializable = true;
    out.serial_order.assign(order.value().begin(), order.value().end());
  } else {
    out.serializable = false;
    // Extract one cycle by walking arcs within a non-trivial SCC.
    // A DFS from any node of a cyclic graph that revisits its stack works;
    // simplest here: find i -> ... -> i via DFS.
    std::vector<int> state(k, 0);  // 0 unvisited, 1 on stack, 2 done
    std::vector<int> parent(k, -1);
    std::function<bool(int)> dfs = [&](int u) -> bool {
      state[u] = 1;
      for (NodeId v : out.precedence.OutNeighbors(u)) {
        if (state[v] == 1) {
          // Found a back arc u -> v: unwind the stack from u to v.
          out.conflict_cycle.clear();
          int w = u;
          while (w != v) {
            out.conflict_cycle.push_back(w);
            w = parent[w];
          }
          out.conflict_cycle.push_back(v);
          std::reverse(out.conflict_cycle.begin(), out.conflict_cycle.end());
          return true;
        }
        if (state[v] == 0) {
          parent[v] = u;
          if (dfs(v)) return true;
        }
      }
      state[u] = 2;
      return false;
    };
    for (int i = 0; i < k; ++i) {
      if (state[i] == 0 && dfs(i)) break;
    }
  }
  return out;
}

bool IsSerializable(const TransactionSystem& system,
                    const Schedule& schedule) {
  return AnalyzeSerializability(system, schedule).serializable;
}

Result<Schedule> SerialSchedule(const TransactionSystem& system,
                                const std::vector<int>& txn_order) {
  if (static_cast<int>(txn_order.size()) != system.NumTransactions()) {
    return Status::InvalidArgument("txn_order size mismatch");
  }
  Schedule out;
  std::vector<bool> seen(system.NumTransactions(), false);
  for (int i : txn_order) {
    if (i < 0 || i >= system.NumTransactions() || seen[i]) {
      return Status::InvalidArgument("txn_order is not a permutation");
    }
    seen[i] = true;
    auto topo = TopologicalSort(system.txn(i).order());
    if (!topo.ok()) {
      return Status::InvalidModel(
          StrCat("transaction ", system.txn(i).name(), " is cyclic"));
    }
    for (NodeId s : topo.value()) out.Append(i, s);
  }
  return out;
}

namespace {

/// DFS state for exhaustive schedule enumeration.
class ScheduleEnumerator {
 public:
  ScheduleEnumerator(const TransactionSystem& system, int64_t max_schedules,
                     const ScheduleVisitor& visit)
      : system_(system),
        budget_(max_schedules),
        visit_(visit),
        locks_(system.db().NumEntities(), system.NumTransactions()) {
    const int k = system.NumTransactions();
    indegree_.resize(k);
    total_steps_ = 0;
    for (int i = 0; i < k; ++i) {
      const Digraph& g = system.txn(i).order();
      indegree_[i].assign(g.NumNodes(), 0);
      for (NodeId u = 0; u < g.NumNodes(); ++u) {
        for (NodeId v : g.OutNeighbors(u)) ++indegree_[i][v];
      }
      total_steps_ += g.NumNodes();
    }
  }

  /// Returns false when stopped early (visitor said stop, or budget hit).
  bool Run() { return Dfs(); }

  bool exhausted() const { return exhausted_; }
  int64_t deadlock_dead_ends() const { return deadlocks_; }

 private:
  bool Dfs() {
    if (static_cast<int>(prefix_.size()) == total_steps_) {
      if (budget_ <= 0) {
        exhausted_ = true;
        return false;
      }
      --budget_;
      return visit_(Schedule(prefix_));
    }
    bool any = false;
    for (int i = 0; i < system_.NumTransactions(); ++i) {
      const Transaction& t = system_.txn(i);
      for (StepId s = 0; s < t.NumSteps(); ++s) {
        const Step& step = t.GetStep(s);
        if (indegree_[i][s] != 0 || !locks_.MayFire(i, step)) continue;
        any = true;
        // Emit step s of txn i.
        locks_.Fire(i, step);
        indegree_[i][s] = -1;
        for (NodeId v : t.order().OutNeighbors(s)) --indegree_[i][v];
        prefix_.push_back({i, s});

        bool keep_going = Dfs();

        prefix_.pop_back();
        for (NodeId v : t.order().OutNeighbors(s)) ++indegree_[i][v];
        indegree_[i][s] = 0;
        locks_.Unfire(i, step);
        if (!keep_going) return false;
      }
    }
    if (!any) ++deadlocks_;  // stuck before completion: lock deadlock
    return true;
  }

  const TransactionSystem& system_;
  int64_t budget_;
  const ScheduleVisitor& visit_;
  std::vector<std::vector<int>> indegree_;
  LockTable locks_;
  std::vector<SysStep> prefix_;
  int total_steps_ = 0;
  int64_t deadlocks_ = 0;
  bool exhausted_ = false;
};

}  // namespace

Status EnumerateSchedules(const TransactionSystem& system,
                          int64_t max_schedules, const ScheduleVisitor& visit,
                          int64_t* deadlock_dead_ends) {
  ScheduleEnumerator enumerator(system, max_schedules, visit);
  enumerator.Run();
  if (deadlock_dead_ends != nullptr) {
    *deadlock_dead_ends = enumerator.deadlock_dead_ends();
  }
  if (enumerator.exhausted()) {
    return Status::ResourceExhausted(
        "more legal schedules than the configured cap");
  }
  return Status::OK();
}

}  // namespace dislock
