#ifndef DISLOCK_TXN_CATALOG_H_
#define DISLOCK_TXN_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "txn/system.h"
#include "txn/transaction.h"
#include "txn/validate.h"
#include "util/status.h"

namespace dislock {

/// Stable handle to a transaction in a TransactionCatalog. Ids are assigned
/// once, never reused, and survive Replace (a replaced transaction keeps
/// its id — it is the same logical transaction with a new definition).
using TxnId = int64_t;

inline constexpr TxnId kInvalidTxnId = -1;

/// An immutable, cheaply copyable picture of a catalog at one generation:
/// the dense transaction order the analyses see, plus the stable TxnId of
/// each slot. Shares the transaction objects with the catalog (shared_ptr),
/// so a snapshot stays valid across later catalog edits.
class CatalogSnapshot {
 public:
  CatalogSnapshot(const DistributedDatabase* db, int64_t generation,
                  std::vector<TxnId> ids,
                  std::vector<std::shared_ptr<const Transaction>> txns)
      : db_(db),
        generation_(generation),
        ids_(std::move(ids)),
        txns_(std::move(txns)) {}

  int64_t generation() const { return generation_; }
  int NumTransactions() const { return static_cast<int>(txns_.size()); }
  const Transaction& txn(int i) const { return *txns_[static_cast<size_t>(i)]; }
  const std::shared_ptr<const Transaction>& txn_ptr(int i) const {
    return txns_[static_cast<size_t>(i)];
  }
  TxnId id(int i) const { return ids_[static_cast<size_t>(i)]; }
  /// id(i) for every dense index i.
  const std::vector<TxnId>& ids() const { return ids_; }
  const DistributedDatabase& db() const { return *db_; }

  /// A borrowed dense view for the analysis entry points; valid while this
  /// snapshot is alive.
  SystemView View() const;

  /// Deep-copies into a batch TransactionSystem in the same dense order
  /// (so a from-scratch analysis of the materialization is comparable
  /// index-for-index with an incremental analysis of the snapshot).
  TransactionSystem Materialize() const;

  int TotalSteps() const;

 private:
  const DistributedDatabase* db_;
  int64_t generation_;
  std::vector<TxnId> ids_;
  std::vector<std::shared_ptr<const Transaction>> txns_;
};

/// The mutable, versioned replacement for "rebuild a TransactionSystem and
/// start over": a catalog of live transactions supporting Add / Remove /
/// Replace with stable TxnIds and a generation counter that bumps on every
/// successful mutation. Real lock-managed workloads change one transaction
/// at a time; the IncrementalSafetyEngine (core/incremental/engine.h)
/// watches a catalog through snapshots and re-analyzes only what an edit
/// dirtied.
///
/// Invariants enforced at the mutation boundary (validation errors, never
/// CHECKs): every transaction validates under the Section 2 rules, is over
/// the catalog's database object, and transaction names are unique — two
/// transactions named "T1" would make diagnostics ambiguous.
///
/// Not thread-safe; external synchronization is required between a writer
/// and readers, as for any container. Snapshots, once taken, are immutable
/// and safe to read from any thread.
class TransactionCatalog {
 public:
  /// Creates an empty catalog over `db`; `db` must outlive the catalog.
  explicit TransactionCatalog(const DistributedDatabase* db);

  /// Adds a transaction; returns its freshly assigned id. Fails with
  /// InvalidModel on a duplicate name or a validation error, and with
  /// InvalidArgument if the transaction is over a different database
  /// object. On error the catalog is unchanged.
  Result<TxnId> Add(Transaction txn,
                    const ValidateOptions& options = ValidateOptions());

  /// Removes a live transaction. NotFound if `id` is not live.
  Status Remove(TxnId id);
  /// Removes by name. NotFound if no live transaction has that name.
  Status RemoveByName(const std::string& name);

  /// Replaces the definition of a live transaction in place: the id and the
  /// dense position are preserved, the generation bumps. The new definition
  /// may change the name (subject to uniqueness against the others). Fails
  /// like Add; on error the catalog is unchanged.
  Status Replace(TxnId id, Transaction txn,
                 const ValidateOptions& options = ValidateOptions());
  /// Replace addressed by current name.
  Status ReplaceByName(const std::string& name, Transaction txn);

  int NumTransactions() const { return static_cast<int>(entries_.size()); }
  /// Monotonic version counter: 0 when empty-constructed, +1 per
  /// successful Add/Remove/Replace. Equal generations imply equal contents.
  int64_t generation() const { return generation_; }
  const DistributedDatabase& db() const { return *db_; }

  /// The live transaction with this id, or nullptr.
  std::shared_ptr<const Transaction> Find(TxnId id) const;
  /// The id of the live transaction with this name, if any.
  std::optional<TxnId> FindByName(const std::string& name) const;

  /// Immutable picture of the current contents (dense order = insertion
  /// order, with Replace keeping its slot).
  CatalogSnapshot Snapshot() const;

  /// Deep copy into a batch TransactionSystem, for from-scratch analyses.
  TransactionSystem Materialize() const { return Snapshot().Materialize(); }

  int TotalSteps() const;
  std::string ToString() const;

 private:
  struct Entry {
    TxnId id;
    std::shared_ptr<const Transaction> txn;
  };

  Status CheckInsertable(const Transaction& txn, const ValidateOptions& options,
                         TxnId replacing) const;

  const DistributedDatabase* db_;
  std::vector<Entry> entries_;  ///< live transactions, dense order
  std::map<std::string, TxnId> by_name_;
  TxnId next_id_ = 0;
  int64_t generation_ = 0;
};

}  // namespace dislock

#endif  // DISLOCK_TXN_CATALOG_H_
