#include "core/deadlock.h"

#include <algorithm>
#include <deque>
#include <string>
#include <unordered_map>

#include "txn/lock_table.h"
#include "util/string_util.h"

namespace dislock {

namespace {

/// Compact encoding of an execution state: one bit per step, transactions
/// concatenated.
std::string EncodeState(const std::vector<std::vector<bool>>& executed) {
  std::string key;
  uint8_t byte = 0;
  int bits = 0;
  for (const auto& txn : executed) {
    for (bool b : txn) {
      byte = static_cast<uint8_t>((byte << 1) | (b ? 1 : 0));
      if (++bits == 8) {
        key.push_back(static_cast<char>(byte));
        byte = 0;
        bits = 0;
      }
    }
  }
  if (bits > 0) key.push_back(static_cast<char>(byte));
  return key;
}

/// Loads into `locks` the lock table implied by an execution: every lock
/// whose Lx ran and whose Ux did not is held by its transaction, in its
/// mode.
void LoadHeldLocks(const TransactionSystem& system,
                   const std::vector<std::vector<bool>>& executed,
                   LockTable* locks) {
  locks->Reset();
  for (int i = 0; i < system.NumTransactions(); ++i) {
    const Transaction& t = system.txn(i);
    for (EntityId e : t.LockedEntities()) {
      StepId l = t.LockStep(e);
      if (executed[i][l] && !executed[i][t.UnlockStep(e)]) {
        locks->Fire(i, t.GetStep(l));
      }
    }
  }
}

/// Steps of transaction i whose predecessors are all executed but which are
/// themselves unexecuted ("order-ready").
std::vector<StepId> OrderReadySteps(const Transaction& t,
                                    const std::vector<bool>& executed) {
  std::vector<StepId> ready;
  for (StepId s = 0; s < t.NumSteps(); ++s) {
    if (executed[s]) continue;
    bool all_preds_done = true;
    for (NodeId p : t.order().InNeighbors(s)) {
      if (!executed[p]) {
        all_preds_done = false;
        break;
      }
    }
    if (all_preds_done) ready.push_back(s);
  }
  return ready;
}

/// Walks the order-ready steps of every transaction in (transaction, step)
/// order. Calls `on_enabled(i, s)` for each step the lock table lets fire,
/// stopping (and returning false) as soon as it returns false. Every
/// transaction with a step the table does not let fire is appended to
/// `blocked_txns`, with the entity of its last such step in `waited`.
template <typename OnEnabled>
bool ScanReadySteps(const TransactionSystem& system,
                    const std::vector<std::vector<bool>>& executed,
                    const LockTable& locks, std::vector<int>* blocked_txns,
                    std::vector<EntityId>* waited, OnEnabled on_enabled) {
  for (int i = 0; i < system.NumTransactions(); ++i) {
    const Transaction& t = system.txn(i);
    EntityId waited_entity = kInvalidEntity;
    for (StepId s : OrderReadySteps(t, executed[i])) {
      if (!locks.MayFire(i, t.GetStep(s))) {
        waited_entity = t.GetStep(s).entity;
        continue;
      }
      if (!on_enabled(i, s)) return false;
    }
    if (waited_entity != kInvalidEntity) {
      blocked_txns->push_back(i);
      waited->push_back(waited_entity);
    }
  }
  return true;
}

}  // namespace

Result<DeadlockReport> AnalyzeDeadlockFreedom(const TransactionSystem& system,
                                              int64_t max_states) {
  DeadlockReport report;
  const int k = system.NumTransactions();
  int total_steps = system.TotalSteps();

  struct Node {
    std::vector<std::vector<bool>> executed;
    int64_t parent;
    SysStep move;
    int executed_count;
  };
  std::vector<Node> nodes;
  std::unordered_map<std::string, int64_t> seen;

  std::vector<std::vector<bool>> initial(k);
  for (int i = 0; i < k; ++i) {
    initial[i].assign(system.txn(i).NumSteps(), false);
  }
  nodes.push_back({initial, -1, {-1, kInvalidStep}, 0});
  seen.emplace(EncodeState(initial), 0);

  // One lock table for the whole search, reloaded per dequeued state.
  LockTable locks(system.db().NumEntities(), k);
  std::deque<int64_t> frontier{0};
  while (!frontier.empty()) {
    int64_t cur = frontier.front();
    frontier.pop_front();
    ++report.states_explored;

    // Copy what we need: nodes may reallocate while we append.
    std::vector<std::vector<bool>> executed = nodes[cur].executed;
    int executed_count = nodes[cur].executed_count;
    LoadHeldLocks(system, executed, &locks);

    bool any_enabled = false;
    std::vector<int> blocked_txns;
    std::vector<EntityId> waited;
    bool within_budget = ScanReadySteps(
        system, executed, locks, &blocked_txns, &waited,
        [&](int i, StepId s) {
          any_enabled = true;
          // Successor state.
          std::vector<std::vector<bool>> next = executed;
          next[i][s] = true;
          auto [it, inserted] = seen.emplace(EncodeState(next), nodes.size());
          if (inserted) {
            if (static_cast<int64_t>(nodes.size()) >= max_states) {
              return false;
            }
            nodes.push_back({std::move(next), cur, {i, s},
                             executed_count + 1});
            frontier.push_back(it->second);
          }
          return true;
        });
    if (!within_budget) {
      return Status::ResourceExhausted(
          StrCat("deadlock search exceeded ", max_states, " states"));
    }

    if (!any_enabled && executed_count < total_steps) {
      // Dead state: reconstruct the prefix.
      std::vector<SysStep> prefix;
      for (int64_t n = cur; nodes[n].parent != -1; n = nodes[n].parent) {
        prefix.push_back(nodes[n].move);
      }
      std::reverse(prefix.begin(), prefix.end());
      report.deadlock_free = false;
      report.dead_prefix = Schedule(std::move(prefix));
      report.blocked_txns = std::move(blocked_txns);
      report.waited_entities = std::move(waited);
      return report;
    }
  }
  report.deadlock_free = true;
  return report;
}

DeadlockCertificate MakeDeadlockCertificate(const DeadlockReport& report) {
  DeadlockCertificate cert;
  cert.prefix = report.dead_prefix.value();
  cert.blocked_txns = report.blocked_txns;
  cert.waited_entities = report.waited_entities;
  return cert;
}

Status VerifyDeadlockWitness(const TransactionSystem& system,
                             const DeadlockCertificate& cert) {
  const int k = system.NumTransactions();
  std::vector<std::vector<bool>> executed(k);
  int executed_count = 0;
  for (int i = 0; i < k; ++i) {
    executed[i].assign(system.txn(i).NumSteps(), false);
  }
  LockTable locks(system.db().NumEntities(), k);
  // Replay: each event must be a fresh, order-ready, enabled step.
  for (size_t e = 0; e < cert.prefix.size(); ++e) {
    const SysStep& event = cert.prefix.at(e);
    if (event.txn < 0 || event.txn >= k) {
      return Status::InvalidArgument(
          StrCat("witness event ", e, ": invalid transaction ", event.txn));
    }
    const Transaction& t = system.txn(event.txn);
    if (!t.ValidStep(event.step)) {
      return Status::InvalidArgument(
          StrCat("witness event ", e, ": invalid step ", event.step));
    }
    if (executed[event.txn][event.step]) {
      return Status::InvalidArgument(
          StrCat("witness event ", e, ": step executed twice"));
    }
    for (NodeId p : t.order().InNeighbors(event.step)) {
      if (!executed[event.txn][p]) {
        return Status::InvalidArgument(
            StrCat("witness event ", e, ": predecessor step ", p,
                   " of ", t.name(), " not yet executed"));
      }
    }
    const Step& step = t.GetStep(event.step);
    if (!locks.MayFire(event.txn, step)) {
      return Status::InvalidArgument(
          StrCat("witness event ", e, ": step not enabled (lock held)"));
    }
    locks.Fire(event.txn, step);
    executed[event.txn][event.step] = true;
    ++executed_count;
  }
  if (executed_count >= system.TotalSteps()) {
    return Status::InvalidArgument(
        "witness prefix is a complete schedule, not a dead state");
  }
  // The reached state must be dead, with exactly the claimed waits.
  std::vector<int> blocked_txns;
  std::vector<EntityId> waited;
  SysStep enabled{-1, kInvalidStep};
  bool dead = ScanReadySteps(system, executed, locks, &blocked_txns, &waited,
                             [&](int i, StepId s) {
                               enabled = {i, s};
                               return false;
                             });
  if (!dead) {
    return Status::InvalidArgument(
        StrCat("state after prefix is not dead: step ", enabled.step, " of ",
               system.txn(enabled.txn).name(), " is enabled"));
  }
  if (blocked_txns != cert.blocked_txns) {
    return Status::InvalidArgument(
        "blocked-transaction list does not match the dead state");
  }
  if (waited != cert.waited_entities) {
    return Status::InvalidArgument(
        "waited-entity list does not match the dead state");
  }
  return Status::OK();
}

std::string DeadlockCertificateToString(const DeadlockCertificate& cert,
                                        const TransactionSystem& system) {
  std::string out = StrCat("prefix: ", cert.prefix.ToString(system));
  for (size_t i = 0; i < cert.blocked_txns.size(); ++i) {
    out += StrCat("\n", system.txn(cert.blocked_txns[i]).name(),
                  " waits for '",
                  system.db().NameOf(cert.waited_entities[i]), "'");
  }
  return out;
}

std::optional<OpposingLockOrder> FindOpposingLockOrder(const Transaction& ti,
                                                       const Transaction& tj) {
  std::vector<EntityId> common;
  for (EntityId e : ti.LockedEntities()) {
    if (tj.LockStep(e) != kInvalidStep && tj.UnlockStep(e) != kInvalidStep) {
      common.push_back(e);
    }
  }
  for (size_t a = 0; a < common.size(); ++a) {
    for (size_t b = a + 1; b < common.size(); ++b) {
      EntityId x = common[a];
      EntityId y = common[b];
      // Ti may lock x before y unless Ly strictly precedes Lx.
      bool i_x_first = !ti.Precedes(ti.LockStep(y), ti.LockStep(x));
      bool i_y_first = !ti.Precedes(ti.LockStep(x), ti.LockStep(y));
      bool j_x_first = !tj.Precedes(tj.LockStep(y), tj.LockStep(x));
      bool j_y_first = !tj.Precedes(tj.LockStep(x), tj.LockStep(y));
      if (i_x_first && j_y_first) return OpposingLockOrder{x, y};
      if (i_y_first && j_x_first) return OpposingLockOrder{y, x};
    }
  }
  return std::nullopt;
}

bool OrderedLockAcquisition(const TransactionSystem& system) {
  const int k = system.NumTransactions();
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      if (FindOpposingLockOrder(system.txn(i), system.txn(j)).has_value()) {
        return false;
      }
    }
  }
  return true;
}

Result<Digraph> BuildWaitsForGraph(
    const TransactionSystem& system,
    const std::vector<std::vector<StepId>>& executed) {
  const int k = system.NumTransactions();
  if (static_cast<int>(executed.size()) != k) {
    return Status::InvalidArgument("executed must have one list per txn");
  }
  std::vector<std::vector<bool>> done(k);
  for (int i = 0; i < k; ++i) {
    const Transaction& t = system.txn(i);
    done[i].assign(t.NumSteps(), false);
    for (StepId s : executed[i]) {
      if (!t.ValidStep(s)) {
        return Status::InvalidArgument("invalid step id in executed");
      }
      done[i][s] = true;
    }
    // Down-closure check.
    for (StepId s = 0; s < t.NumSteps(); ++s) {
      if (!done[i][s]) continue;
      for (NodeId p : t.order().InNeighbors(s)) {
        if (!done[i][p]) {
          return Status::InvalidArgument(
              StrCat("executed set of ", t.name(), " is not down-closed"));
        }
      }
    }
  }
  LockTable locks(system.db().NumEntities(), k);
  LoadHeldLocks(system, done, &locks);
  Digraph waits(k);
  for (int i = 0; i < k; ++i) {
    const Transaction& t = system.txn(i);
    waits.SetLabel(i, t.name());
    for (StepId s : OrderReadySteps(t, done[i])) {
      const Step& step = t.GetStep(s);
      if (step.kind != StepKind::kLock) continue;
      int w = locks.WriterOf(step.entity);
      if (w != LockTable::kFree && w != i) waits.AddArcUnique(i, w);
      if (!step.shared) {
        // An exclusive request waits on every reader.
        for (int j = 0; j < k; ++j) {
          if (j != i && locks.IsReading(step.entity, j)) {
            waits.AddArcUnique(i, j);
          }
        }
      }
    }
  }
  return waits;
}

}  // namespace dislock
