#ifndef DISLOCK_TXN_LOCK_TABLE_H_
#define DISLOCK_TXN_LOCK_TABLE_H_

#include <algorithm>
#include <vector>

#include "txn/step.h"

namespace dislock {

/// The reader/writer lock table of an execution (Section 2, plus the
/// shared-lock variant of Section 1): per entity, the exclusive holder, the
/// number of shared holders and which transactions hold it shared. A lock
/// step may fire only when the entity is free in its mode (no writer; for an
/// exclusive lock, no readers either); an unlock only when its transaction
/// holds the entity in that mode; an update always.
///
/// This is the one lock semantics every schedule generator runs on: the
/// deadlock search, its witness verifier and waits-for graph, the schedule
/// enumerator and the simulator. CheckScheduleLegal (txn/schedule.h) keeps
/// its own replay on purpose — it is the independent checker of what these
/// generators produce.
///
/// One table is one lock manager for the whole database. A per-site split
/// would arbitrate nothing more: every entity lives at exactly one site, so
/// a per-site table only ever sees its own entities.
class LockTable {
 public:
  static constexpr int kFree = -1;

  LockTable(int num_entities, int num_txns)
      : num_txns_(num_txns),
        writer_(num_entities, kFree),
        reader_count_(num_entities, 0),
        reading_(static_cast<size_t>(num_entities) * num_txns, 0) {}

  /// May step `step` of transaction `txn` fire against the table now?
  bool MayFire(int txn, const Step& step) const {
    switch (step.kind) {
      case StepKind::kLock:
        return writer_[step.entity] == kFree &&
               (step.shared || reader_count_[step.entity] == 0);
      case StepKind::kUnlock:
        return step.shared ? IsReading(step.entity, txn)
                           : writer_[step.entity] == txn;
      case StepKind::kUpdate:
        return true;
    }
    return true;
  }

  /// Applies `step` (which must be allowed to fire): a lock takes the
  /// entity in its mode, an unlock releases it, an update changes nothing.
  void Fire(int txn, const Step& step) {
    if (step.kind == StepKind::kLock) {
      Take(txn, step);
    } else if (step.kind == StepKind::kUnlock) {
      Release(txn, step);
    }
  }

  /// Undoes Fire(txn, step): a fired lock is released again, a fired unlock
  /// is taken again.
  void Unfire(int txn, const Step& step) {
    if (step.kind == StepKind::kLock) {
      Release(txn, step);
    } else if (step.kind == StepKind::kUnlock) {
      Take(txn, step);
    }
  }

  /// Frees every entity, in place (no reallocation).
  void Reset() {
    std::fill(writer_.begin(), writer_.end(), kFree);
    std::fill(reader_count_.begin(), reader_count_.end(), 0);
    std::fill(reading_.begin(), reading_.end(), 0);
  }

  /// Exclusive holder of `e`, or kFree.
  int WriterOf(EntityId e) const { return writer_[e]; }
  int ReaderCount(EntityId e) const { return reader_count_[e]; }
  bool IsReading(EntityId e, int txn) const {
    return reading_[static_cast<size_t>(e) * num_txns_ + txn] != 0;
  }

 private:
  void Take(int txn, const Step& step) {
    if (step.shared) {
      reading_[static_cast<size_t>(step.entity) * num_txns_ + txn] = 1;
      ++reader_count_[step.entity];
    } else {
      writer_[step.entity] = txn;
    }
  }

  void Release(int txn, const Step& step) {
    if (step.shared) {
      reading_[static_cast<size_t>(step.entity) * num_txns_ + txn] = 0;
      --reader_count_[step.entity];
    } else {
      writer_[step.entity] = kFree;
    }
  }

  int num_txns_;
  std::vector<int> writer_;
  std::vector<int> reader_count_;
  std::vector<char> reading_;  // entity-major, num_txns_ per entity
};

}  // namespace dislock

#endif  // DISLOCK_TXN_LOCK_TABLE_H_
