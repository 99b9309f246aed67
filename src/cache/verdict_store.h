#ifndef DISLOCK_CACHE_VERDICT_STORE_H_
#define DISLOCK_CACHE_VERDICT_STORE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/verdict_cache.h"
#include "util/mmap_file.h"

namespace dislock {
namespace cache {

/// On-disk format version of the verdict store (docs/caching.md). Bump on
/// any change to the header or record layout; a store stamped with a
/// different version warm-loads as empty and is rebuilt.
inline constexpr uint32_t kVerdictStoreSchemaVersion = 1;

/// Kernel/wire-format generation tag. A cached verdict is only as durable
/// as the semantics that produced it, so this constant must be bumped
/// whenever the PairFingerprint canonicalization, the SafetyVerdict /
/// DecisionMethod numbering, or the decision procedure's verdict contract
/// changes. A store stamped with a different generation warm-loads as
/// empty — stale verdicts are dropped wholesale, never reinterpreted.
inline constexpr uint32_t kVerdictStoreGeneration = 2;

/// File names inside the cache directory, for tools and tests that need to
/// inspect (or deliberately corrupt) a store from outside.
inline constexpr char kVerdictLogFileName[] = "verdicts.dlc";
inline constexpr char kVerdictIndexFileName[] = "verdicts.idx";
inline constexpr char kVerdictLockFileName[] = "verdicts.lock";

/// Tier 2 of the verdict cache: a persistent fingerprint -> verdict store
/// shared across runs, processes, and a long-running dislock_serve.
///
/// Layout inside the cache directory (docs/caching.md has the diagram):
///   verdicts.dlc   append-only log: 16-byte header (magic "DLKC",
///                  schema_version, generation), then one checksummed
///                  record per fingerprint.
///   verdicts.idx   mmap'd open-addressing index over the log: 40-byte
///                  header (magic "DLKI", schema_version, generation, the
///                  log size it covers, capacity, count), then
///                  power-of-two-capacity slots of (fnv64 hash, log offset
///                  + 1). A pure cache of the log — rebuilt from it
///                  whenever stale or damaged.
///   verdicts.lock  advisory flock taken by appenders (Flush) and by Open
///                  when it needs to repair files. Readers never lock.
///
/// Crash safety: every record carries an FNV-1a checksum over its payload;
/// Open replays the log and stops at the first record that is truncated or
/// fails its checksum, so a torn tail (killed writer, full disk) silently
/// shrinks the store instead of poisoning it. A header whose magic,
/// schema_version, or generation does not match — including a zero-byte or
/// garbage file — warm-loads as empty and the files are rebuilt on the
/// next Flush. Open never fails on corrupt content, only on real I/O
/// errors (e.g. the directory cannot be created).
///
/// Concurrency: one mutex serializes the in-process API (the engine calls
/// Lookup from pool workers). Across processes, appenders serialize through
/// the flock and re-scan the log before appending, so concurrent flushes
/// lose no records and write no duplicates; lock-free readers are safe
/// because records become visible only after their bytes (checksum
/// included) are written.
///
/// Determinism: the store memoizes verdicts of a pure function, so serving
/// a verdict from disk can never change what the engine would have
/// computed — only how fast. See docs/caching.md for the exact
/// byte-identity contract.
class VerdictStore {
 public:
  struct Stats {
    int64_t disk_hits = 0;        ///< lookups served by the store
    int64_t disk_misses = 0;      ///< lookups the store could not serve
    int64_t records_loaded = 0;   ///< valid records found by Open
    int64_t records_dropped = 0;  ///< corrupt tails/records dropped by Open
    int64_t records_flushed = 0;  ///< records appended by Flush calls
  };

  VerdictStore() = default;
  ~VerdictStore() = default;

  VerdictStore(const VerdictStore&) = delete;
  VerdictStore& operator=(const VerdictStore&) = delete;

  /// Opens (creating if necessary) the store rooted at directory `dir`.
  /// Corrupt or stale content loads as empty (see class comment); false is
  /// returned only for real I/O failures, with a one-line reason in
  /// *error. A closed store is inert: Lookup always misses, Put and Flush
  /// are no-ops.
  bool Open(const std::string& dir, std::string* error = nullptr);

  bool is_open() const;
  const std::string& dir() const { return dir_; }

  /// The verdict stored for `fingerprint` — from the mmap'd index (with
  /// the full fingerprint verified against the log before trusting a
  /// probe) or from the pending not-yet-flushed buffer. Counts a disk hit
  /// or miss.
  std::optional<CachedPairVerdict> Lookup(const std::string& fingerprint);

  /// Buffers `entry` for the next Flush. No-op if the fingerprint is
  /// already on disk or already pending (first insert wins, matching the
  /// tier-1 memo).
  void Put(const std::string& fingerprint, const CachedPairVerdict& entry);

  /// Appends the pending records to the log under the appender flock,
  /// rebuilds the index, and remaps both. Records another process flushed
  /// since our Open are detected by re-scanning the log and are never
  /// duplicated. Returns the number of records this call appended.
  int64_t Flush();

  Stats stats() const;

  /// Records currently on disk (not counting the pending buffer).
  int64_t disk_records() const;
  int64_t pending_records() const;

  /// The generation tag this store was opened under (wire key
  /// cache_file_generation).
  uint32_t generation() const { return kVerdictStoreGeneration; }

 private:
  struct RecordRef {
    uint64_t hash = 0;
    uint64_t offset = 0;  ///< record start in verdicts.dlc
  };

  /// Scans the mapped log, filling `records` with the valid prefix.
  /// Returns the byte size of that prefix and counts dropped tails.
  uint64_t ScanLog(const MappedFile& log, std::vector<RecordRef>* records,
                   int64_t* dropped) const;

  /// Reads the record at `offset` of the mapped log; returns nullopt (and
  /// never a verdict) on any inconsistency.
  std::optional<CachedPairVerdict> ReadRecord(
      uint64_t offset, const std::string& fingerprint) const;

  /// Probes the mmap'd index (or the in-memory fallback) for
  /// `fingerprint`. Caller holds mu_.
  std::optional<CachedPairVerdict> Probe(
      const std::string& fingerprint) const;

  /// Writes a fresh index file covering `records`, then remaps it. Caller
  /// holds mu_ and the appender flock.
  bool RebuildIndex(const std::vector<RecordRef>& records,
                    uint64_t log_size);

  mutable std::mutex mu_;
  bool open_ = false;
  std::string dir_;
  std::string log_path_;
  std::string idx_path_;
  std::string lock_path_;

  MappedFile log_map_;
  MappedFile idx_map_;
  uint64_t log_valid_size_ = 0;  ///< checksum-verified prefix of the log
  int64_t disk_records_ = 0;

  /// Fallback index used when the index file cannot be rebuilt (e.g. the
  /// directory is read-only): every valid record's (hash, offset), probed
  /// linearly per hash bucket. Empty when the mmap'd index is live.
  std::unordered_multimap<uint64_t, uint64_t> fallback_index_;
  bool use_fallback_ = false;

  std::unordered_map<std::string, CachedPairVerdict> pending_;
  Stats stats_;
};

}  // namespace cache
}  // namespace dislock

#endif  // DISLOCK_CACHE_VERDICT_STORE_H_
