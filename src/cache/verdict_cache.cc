#include "cache/verdict_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "cache/verdict_store.h"
#include "util/arena.h"

namespace dislock {

namespace {

/// Appends one transaction's structure to `out` under the shared canonical
/// renaming (dense arrays, -1 = unassigned): each step in id order as its
/// kind, shared flag, canonical entity '@' canonical site, then the
/// deduplicated precedence arc set, sorted as packed (u << 32 | v) keys.
/// Sorting makes the fingerprint independent of construction order; arc-set
/// equality is finer than equality of the induced partial orders, so this
/// can only cause extra misses, never a wrong hit.
void AppendStructure(const Transaction& t, int* entity_canon,
                     int* site_canon, int* next_entity, int* next_site,
                     Arena* arena, std::string* out) {
  const DistributedDatabase& db = t.db();
  out->push_back('t');
  for (StepId s = 0; s < t.NumSteps(); ++s) {
    const Step& step = t.GetStep(s);
    char kind = step.kind == StepKind::kLock     ? 'L'
                : step.kind == StepKind::kUnlock ? 'U'
                                                 : 'u';
    const SiteId site = db.SiteOf(step.entity);
    int& ce = entity_canon[step.entity];
    if (ce < 0) {
      ce = (*next_entity)++;
      // First appearance of the entity also pins its site (no-op when the
      // site was pinned by an earlier entity).
      if (site_canon[site] < 0) site_canon[site] = (*next_site)++;
    }
    out->push_back(kind);
    if (step.shared) out->push_back('s');
    *out += std::to_string(ce);
    out->push_back('@');
    *out += std::to_string(site_canon[site]);
    out->push_back(';');
  }
  const Digraph& order = t.order();
  const int n = order.NumNodes();
  size_t num_arcs = 0;
  for (NodeId u = 0; u < n; ++u) num_arcs += order.OutNeighbors(u).size();
  uint64_t* arcs = arena->AllocateArray<uint64_t>(num_arcs);
  size_t pos = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : order.OutNeighbors(u)) {
      arcs[pos++] = (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
                    static_cast<uint32_t>(v);
    }
  }
  std::sort(arcs, arcs + num_arcs);
  uint64_t* arcs_end = std::unique(arcs, arcs + num_arcs);
  out->push_back('|');
  for (const uint64_t* a = arcs; a != arcs_end; ++a) {
    *out += std::to_string(static_cast<NodeId>(*a >> 32));
    out->push_back('>');
    *out += std::to_string(static_cast<NodeId>(*a & 0xffffffff));
    out->push_back(';');
  }
}

}  // namespace

std::string PairFingerprint(const Transaction& t1, const Transaction& t2) {
  std::string out;
  out.reserve(static_cast<size_t>(t1.NumSteps() + t2.NumSteps()) * 8 + 16);
  Arena* arena = ScratchArena();
  ArenaScope scope(arena);
  const int num_entities = t1.db().NumEntities();
  const int num_sites = t1.db().NumSites();
  int* entity_canon =
      arena->AllocateArray<int>(static_cast<size_t>(num_entities));
  int* site_canon = arena->AllocateArray<int>(static_cast<size_t>(num_sites));
  std::memset(entity_canon, -1,
              static_cast<size_t>(num_entities) * sizeof(int));
  std::memset(site_canon, -1, static_cast<size_t>(num_sites) * sizeof(int));
  int next_entity = 0;
  int next_site = 0;
  AppendStructure(t1, entity_canon, site_canon, &next_entity, &next_site,
                      arena, &out);
  AppendStructure(t2, entity_canon, site_canon, &next_entity, &next_site,
                      arena, &out);
  return out;
}

void PairVerdictCache::set_store(cache::VerdictStore* store) {
  std::lock_guard<std::mutex> lock(mu_);
  store_ = store;
}

cache::VerdictStore* PairVerdictCache::store() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_;
}

std::optional<CachedPairVerdict> PairVerdictCache::Lookup(
    const std::string& fingerprint) {
  cache::VerdictStore* store = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(fingerprint);
    if (it != map_.end()) {
      ++stats_.hits;
      return it->second;
    }
    ++stats_.misses;
    store = store_;
  }
  if (store == nullptr) return std::nullopt;
  // Tier-2 fallthrough, outside the memo mutex: the store serializes
  // itself. A hit is promoted into the memo so the next lookup of this
  // fingerprint never touches the store again.
  std::optional<CachedPairVerdict> from_disk = store->Lookup(fingerprint);
  if (from_disk.has_value()) {
    std::lock_guard<std::mutex> lock(mu_);
    map_.emplace(fingerprint, *from_disk);
  }
  return from_disk;
}

void PairVerdictCache::Insert(const std::string& fingerprint,
                              const PairSafetyReport& report) {
  CachedPairVerdict entry;
  entry.verdict = report.verdict;
  entry.method = report.method;
  entry.sites_spanned = report.sites_spanned;
  cache::VerdictStore* store = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    map_.emplace(fingerprint, entry);
    store = store_;
  }
  if (store != nullptr) store->Put(fingerprint, entry);
}

PairVerdictCache::Stats PairVerdictCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

int64_t PairVerdictCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(map_.size());
}

void PairVerdictCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  stats_ = Stats();
}

}  // namespace dislock
