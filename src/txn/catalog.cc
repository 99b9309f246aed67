#include "txn/catalog.h"

#include <algorithm>
#include <utility>

#include "util/string_util.h"

namespace dislock {

SystemView CatalogSnapshot::View() const {
  std::vector<const Transaction*> ptrs;
  ptrs.reserve(txns_.size());
  for (const auto& t : txns_) ptrs.push_back(t.get());
  return SystemView(db_, std::move(ptrs));
}

TransactionSystem CatalogSnapshot::Materialize() const {
  TransactionSystem system(db_);
  for (const auto& t : txns_) {
    // Catalog invariants (unique names, same db) make Add infallible here.
    DISLOCK_CHECK(system.Add(*t).ok());
  }
  return system;
}

int CatalogSnapshot::TotalSteps() const {
  int n = 0;
  for (const auto& t : txns_) n += t->NumSteps();
  return n;
}

TransactionCatalog::TransactionCatalog(const DistributedDatabase* db)
    : db_(db) {
  DISLOCK_CHECK(db != nullptr);
}

Status TransactionCatalog::CheckInsertable(const Transaction& txn,
                                           const ValidateOptions& options,
                                           TxnId replacing) const {
  if (&txn.db() != db_) {
    return Status::InvalidArgument(
        StrCat("transaction '", txn.name(),
               "' is over a different database object"));
  }
  auto named = by_name_.find(txn.name());
  if (named != by_name_.end() && named->second != replacing) {
    return Status::InvalidModel(
        StrCat("duplicate transaction name '", txn.name(), "'"));
  }
  return ValidateTransaction(txn, options);
}

Result<TxnId> TransactionCatalog::Add(Transaction txn,
                                      const ValidateOptions& options) {
  DISLOCK_RETURN_NOT_OK(CheckInsertable(txn, options, kInvalidTxnId));
  TxnId id = next_id_++;
  by_name_.emplace(txn.name(), id);
  entries_.push_back(
      {id, std::make_shared<const Transaction>(std::move(txn))});
  ++generation_;
  return id;
}

Status TransactionCatalog::Remove(TxnId id) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [id](const Entry& e) { return e.id == id; });
  if (it == entries_.end()) {
    return Status::NotFound(StrCat("no live transaction with id ", id));
  }
  by_name_.erase(it->txn->name());
  entries_.erase(it);
  ++generation_;
  return Status::OK();
}

Status TransactionCatalog::RemoveByName(const std::string& name) {
  auto named = by_name_.find(name);
  if (named == by_name_.end()) {
    return Status::NotFound(StrCat("no transaction named '", name, "'"));
  }
  return Remove(named->second);
}

Status TransactionCatalog::Replace(TxnId id, Transaction txn,
                                   const ValidateOptions& options) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [id](const Entry& e) { return e.id == id; });
  if (it == entries_.end()) {
    return Status::NotFound(StrCat("no live transaction with id ", id));
  }
  DISLOCK_RETURN_NOT_OK(CheckInsertable(txn, options, id));
  by_name_.erase(it->txn->name());
  by_name_.emplace(txn.name(), id);
  it->txn = std::make_shared<const Transaction>(std::move(txn));
  ++generation_;
  return Status::OK();
}

Status TransactionCatalog::ReplaceByName(const std::string& name,
                                         Transaction txn) {
  auto named = by_name_.find(name);
  if (named == by_name_.end()) {
    return Status::NotFound(StrCat("no transaction named '", name, "'"));
  }
  return Replace(named->second, std::move(txn));
}

std::shared_ptr<const Transaction> TransactionCatalog::Find(TxnId id) const {
  for (const Entry& e : entries_) {
    if (e.id == id) return e.txn;
  }
  return nullptr;
}

std::optional<TxnId> TransactionCatalog::FindByName(
    const std::string& name) const {
  auto named = by_name_.find(name);
  if (named == by_name_.end()) return std::nullopt;
  return named->second;
}

CatalogSnapshot TransactionCatalog::Snapshot() const {
  std::vector<TxnId> ids;
  std::vector<std::shared_ptr<const Transaction>> txns;
  ids.reserve(entries_.size());
  txns.reserve(entries_.size());
  for (const Entry& e : entries_) {
    ids.push_back(e.id);
    txns.push_back(e.txn);
  }
  return CatalogSnapshot(db_, generation_, std::move(ids), std::move(txns));
}

int TransactionCatalog::TotalSteps() const {
  int n = 0;
  for (const Entry& e : entries_) n += e.txn->NumSteps();
  return n;
}

std::string TransactionCatalog::ToString() const {
  std::string out;
  for (const Entry& e : entries_) out += e.txn->ToString();
  return out;
}

}  // namespace dislock
