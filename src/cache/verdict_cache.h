#ifndef DISLOCK_CACHE_VERDICT_CACHE_H_
#define DISLOCK_CACHE_VERDICT_CACHE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/safety.h"
#include "txn/transaction.h"

namespace dislock {

namespace cache {
class VerdictStore;
}  // namespace cache

/// Canonical structural fingerprint of the ordered pair (T1, T2).
///
/// Entities are renamed by first appearance in T1's step sequence then
/// T2's, and sites by first appearance of their entities, so two pairs get
/// the same fingerprint iff they are isomorphic as locked-transaction
/// pairs: identical step sequences (kind, canonical entity, shared flag),
/// identical precedence arc sets, and an identical entity-to-site pattern.
/// Everything AnalyzePairSafety looks at — the conflict digraph D(T1,T2),
/// the number of sites spanned, dominators, closures and the Lemma 1
/// extension enumeration — is invariant under that renaming, so
/// fingerprint-equal pairs provably receive the same verdict. Names play no
/// role; generated ring/dense workloads and dislock_stress trials produce
/// many fingerprint-equal pairs over differently named entities. The same
/// invariance is what makes a fingerprint valid across processes and runs:
/// the persistent cache::VerdictStore keys its records by these bytes.
///
/// The renaming runs on dense arena-backed index arrays over
/// [0, NumEntities()) / [0, NumSites()), and the string is assembled in one
/// pass into a single preallocated buffer.
std::string PairFingerprint(const Transaction& t1, const Transaction& t2);

/// What the cache remembers about a decided pair. The full PairSafetyReport
/// is NOT cached: its conflict graph and certificate reference the concrete
/// entities and transactions of the pair that produced it, which a
/// structurally identical pair over other entities cannot reuse. Verdicts
/// (and the method/site summary) transfer; certificates are re-derived on
/// the concrete pair when a caller needs one (see AnalyzeMultiSafety).
struct CachedPairVerdict {
  SafetyVerdict verdict = SafetyVerdict::kUnknown;
  DecisionMethod method = DecisionMethod::kNone;
  int sites_spanned = 0;
};

/// Tier 1 of the verdict cache: a thread-safe in-memory memo of pair
/// verdicts keyed by PairFingerprint. One cache can serve many
/// AnalyzeMultiSafety calls (the dislock_bench trajectory runs) or a long
/// dislock_stress session; the parallel safety engine consults it from
/// worker threads.
///
/// Attaching a cache::VerdictStore (tier 2, docs/caching.md) makes memory
/// misses fall through to the persistent store: a store hit is promoted
/// into the memo and every memo insert is forwarded to the store's pending
/// buffer. The store is borrowed, never owned, and null means tier 1
/// behaves exactly as before the store existed.
class PairVerdictCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    double HitRate() const {
      return hits + misses == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(hits +
                                                                   misses);
    }
  };

  /// Attaches (or detaches, with nullptr) the persistent tier-2 store.
  /// Not owned; the caller keeps it alive for the lifetime of the cache.
  void set_store(cache::VerdictStore* store);
  cache::VerdictStore* store() const;

  /// The cached verdict for `fingerprint`, recording a hit or miss. A
  /// memory miss with a store attached consults the store; its verdict (if
  /// any) is promoted into the memo and returned. Store consultations are
  /// counted in the store's own disk_hits/disk_misses, while `stats()`
  /// keeps its historical meaning: hits/misses of the in-memory memo.
  std::optional<CachedPairVerdict> Lookup(const std::string& fingerprint);

  /// Memoizes the verdict of `report` under `fingerprint` (first insert
  /// wins; re-inserting an existing fingerprint is a no-op, which keeps
  /// concurrent inserts of fingerprint-equal pairs benign). With a store
  /// attached the verdict is also forwarded to the store's pending buffer;
  /// it reaches disk at the next VerdictStore::Flush.
  void Insert(const std::string& fingerprint,
              const PairSafetyReport& report);

  Stats stats() const;
  int64_t size() const;

  /// Drops the in-memory memo and resets stats(). The attached store (and
  /// anything already on disk) is untouched.
  void Clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, CachedPairVerdict> map_;
  Stats stats_;
  cache::VerdictStore* store_ = nullptr;
};

}  // namespace dislock

#endif  // DISLOCK_CACHE_VERDICT_CACHE_H_
