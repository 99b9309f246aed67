// Tests for the persistent tier-2 verdict store (cache/verdict_store.h):
// the roundtrip through disk, the pending-buffer dedup rules, every
// corruption-recovery path (torn tails, bit flips, stale headers, zero-byte
// and garbage files — all must warm-load cleanly as empty or as the valid
// prefix, never poison a verdict), the two-appenders-one-directory
// protocol, tier-1 fallthrough/promotion, and the byte-identity contract:
// enabling the store never changes a normalized report at any warmth or
// thread count.

#include "cache/verdict_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/verdict_cache.h"
#include "core/multi.h"
#include "core/report.h"
#include "core/safety.h"
#include "sim/workload.h"
#include "txn/builder.h"
#include "txn/database.h"
#include "util/random.h"

namespace dislock {
namespace {

// Fresh per-test directory under gtest's temp root. Tests that reopen the
// same store use the same name across opens; a leading remove keeps runs
// independent.
std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/verdict_store_test_" + name;
  for (const char* file :
       {cache::kVerdictLogFileName, cache::kVerdictIndexFileName,
        cache::kVerdictLockFileName}) {
    std::remove((dir + "/" + file).c_str());
  }
  return dir;
}

std::string LogPath(const std::string& dir) {
  return dir + "/" + cache::kVerdictLogFileName;
}

std::string IdxPath(const std::string& dir) {
  return dir + "/" + cache::kVerdictIndexFileName;
}

std::vector<char> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void TruncateFile(const std::string& path, size_t size) {
  std::vector<char> bytes = ReadFile(path);
  ASSERT_LE(size, bytes.size());
  bytes.resize(size);
  WriteFile(path, bytes);
}

CachedPairVerdict SafeVerdict(int sites = 2) {
  CachedPairVerdict v;
  v.verdict = SafetyVerdict::kSafe;
  v.method = DecisionMethod::kTheorem1;
  v.sites_spanned = sites;
  return v;
}

CachedPairVerdict UnsafeVerdict() {
  CachedPairVerdict v;
  v.verdict = SafetyVerdict::kUnsafe;
  v.method = DecisionMethod::kExhaustive;
  v.sites_spanned = 3;
  return v;
}

void ExpectSame(const std::optional<CachedPairVerdict>& got,
                const CachedPairVerdict& want) {
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->verdict, want.verdict);
  EXPECT_EQ(got->method, want.method);
  EXPECT_EQ(got->sites_spanned, want.sites_spanned);
}

// ---- Basic lifecycle ------------------------------------------------------

TEST(VerdictStore, ClosedStoreIsInert) {
  cache::VerdictStore store;
  EXPECT_FALSE(store.is_open());
  EXPECT_FALSE(store.Lookup("fp").has_value());
  store.Put("fp", SafeVerdict());
  EXPECT_EQ(store.pending_records(), 0);
  EXPECT_EQ(store.Flush(), 0);
  cache::VerdictStore::Stats stats = store.stats();
  EXPECT_EQ(stats.disk_hits, 0);
  EXPECT_EQ(stats.disk_misses, 0);
}

TEST(VerdictStore, RoundTripAcrossReopen) {
  const std::string dir = FreshDir("roundtrip");
  {
    cache::VerdictStore store;
    ASSERT_TRUE(store.Open(dir));
    EXPECT_EQ(store.disk_records(), 0);
    store.Put("fp-safe", SafeVerdict());
    store.Put("fp-unsafe", UnsafeVerdict());
    EXPECT_EQ(store.pending_records(), 2);
    EXPECT_EQ(store.Flush(), 2);
    EXPECT_EQ(store.pending_records(), 0);
    EXPECT_EQ(store.disk_records(), 2);
    EXPECT_EQ(store.stats().records_flushed, 2);
  }
  cache::VerdictStore reopened;
  ASSERT_TRUE(reopened.Open(dir));
  EXPECT_EQ(reopened.disk_records(), 2);
  EXPECT_EQ(reopened.stats().records_loaded, 2);
  EXPECT_EQ(reopened.stats().records_dropped, 0);
  ExpectSame(reopened.Lookup("fp-safe"), SafeVerdict());
  ExpectSame(reopened.Lookup("fp-unsafe"), UnsafeVerdict());
  EXPECT_FALSE(reopened.Lookup("fp-absent").has_value());
  cache::VerdictStore::Stats stats = reopened.stats();
  EXPECT_EQ(stats.disk_hits, 2);
  EXPECT_EQ(stats.disk_misses, 1);
}

TEST(VerdictStore, PendingBufferServesAndDedups) {
  const std::string dir = FreshDir("pending");
  cache::VerdictStore store;
  ASSERT_TRUE(store.Open(dir));
  store.Put("fp", SafeVerdict());
  store.Put("fp", UnsafeVerdict());  // first insert wins, like tier 1
  EXPECT_EQ(store.pending_records(), 1);
  ExpectSame(store.Lookup("fp"), SafeVerdict());  // served before any Flush
  EXPECT_EQ(store.stats().disk_hits, 1);

  EXPECT_EQ(store.Flush(), 1);
  store.Put("fp", UnsafeVerdict());  // already durable: not re-buffered
  EXPECT_EQ(store.pending_records(), 0);
  EXPECT_EQ(store.Flush(), 0);
  EXPECT_EQ(store.disk_records(), 1);
  ExpectSame(store.Lookup("fp"), SafeVerdict());
}

TEST(VerdictStore, SitesSpannedSurvivesTheU16Encoding) {
  const std::string dir = FreshDir("sites");
  cache::VerdictStore store;
  ASSERT_TRUE(store.Open(dir));
  store.Put("fp-wide", SafeVerdict(/*sites=*/300));  // needs both bytes
  ASSERT_EQ(store.Flush(), 1);
  cache::VerdictStore reopened;
  ASSERT_TRUE(reopened.Open(dir));
  ExpectSame(reopened.Lookup("fp-wide"), SafeVerdict(300));
}

// ---- Corruption recovery --------------------------------------------------

// Record layout (docs/caching.md): 16-byte log header, then per record a
// 12-byte fixed part (u32 checksum, u32 fp_len, u8 verdict, u8 method,
// u16 sites) followed by the fingerprint bytes.
constexpr size_t kLogHeaderSize = 16;
constexpr size_t kRecordFixedSize = 12;

TEST(VerdictStore, TruncatedTailLoadsTheValidPrefix) {
  const std::string dir = FreshDir("torn_tail");
  {
    cache::VerdictStore store;
    ASSERT_TRUE(store.Open(dir));
    store.Put("aaaa", SafeVerdict());
    store.Put("bbbb", UnsafeVerdict());
    ASSERT_EQ(store.Flush(), 2);
  }
  // Tear the last record mid-fingerprint, as a killed writer would.
  const size_t full = ReadFile(LogPath(dir)).size();
  TruncateFile(LogPath(dir), full - 2);

  cache::VerdictStore store;
  ASSERT_TRUE(store.Open(dir));
  EXPECT_EQ(store.stats().records_loaded, 1);
  EXPECT_EQ(store.stats().records_dropped, 1);
  // Flush-order is sorted by fingerprint, so "aaaa" is the surviving one.
  ExpectSame(store.Lookup("aaaa"), SafeVerdict());
  EXPECT_FALSE(store.Lookup("bbbb").has_value());
  // Open physically dropped the torn tail; the valid prefix is all that
  // remains on disk.
  EXPECT_EQ(ReadFile(LogPath(dir)).size(),
            kLogHeaderSize + kRecordFixedSize + 4);  // header + "aaaa" record
}

TEST(VerdictStore, BitFlippedRecordIsDroppedNotServed) {
  const std::string dir = FreshDir("bit_flip");
  {
    cache::VerdictStore store;
    ASSERT_TRUE(store.Open(dir));
    store.Put("aaaa", SafeVerdict());
    store.Put("bbbb", SafeVerdict());
    ASSERT_EQ(store.Flush(), 2);
  }
  // Flip the verdict byte of the second record without updating its
  // checksum — the checksum must catch it.
  std::vector<char> bytes = ReadFile(LogPath(dir));
  const size_t second = kLogHeaderSize + kRecordFixedSize + 4;
  bytes[second + 8] ^= 0x1;
  WriteFile(LogPath(dir), bytes);

  cache::VerdictStore store;
  ASSERT_TRUE(store.Open(dir));
  EXPECT_EQ(store.stats().records_loaded, 1);
  EXPECT_EQ(store.stats().records_dropped, 1);
  ExpectSame(store.Lookup("aaaa"), SafeVerdict());
  EXPECT_FALSE(store.Lookup("bbbb").has_value());
}

TEST(VerdictStore, GarbledLengthFieldStopsTheScan) {
  const std::string dir = FreshDir("bad_length");
  {
    cache::VerdictStore store;
    ASSERT_TRUE(store.Open(dir));
    store.Put("aaaa", SafeVerdict());
    ASSERT_EQ(store.Flush(), 1);
  }
  std::vector<char> bytes = ReadFile(LogPath(dir));
  const uint32_t huge = 0x7fffffff;  // larger than any plausible fingerprint
  std::memcpy(bytes.data() + kLogHeaderSize + 4, &huge, sizeof(huge));
  WriteFile(LogPath(dir), bytes);

  cache::VerdictStore store;
  ASSERT_TRUE(store.Open(dir));
  EXPECT_EQ(store.stats().records_loaded, 0);
  EXPECT_EQ(store.stats().records_dropped, 1);
  EXPECT_FALSE(store.Lookup("aaaa").has_value());
}

// A store whose log header is bad — wrong magic, wrong schema_version,
// wrong generation, zero bytes, or plain garbage — warm-loads as empty and
// is rebuilt, never reinterpreted. The case name is a std::string so the
// printed parameter (part of the discovered ctest name) is its value, not a
// pointer that address-space randomisation changes on every run.
class VerdictStoreBadHeader
    : public testing::TestWithParam<std::pair<std::string, int>> {};

TEST_P(VerdictStoreBadHeader, LoadsEmptyAndRebuilds) {
  const auto [name, patch_offset] = GetParam();
  const std::string dir = FreshDir("hdr_" + name);
  {
    cache::VerdictStore store;
    ASSERT_TRUE(store.Open(dir));
    store.Put("fp", SafeVerdict());
    ASSERT_EQ(store.Flush(), 1);
  }
  if (patch_offset < 0) {
    WriteFile(LogPath(dir), {});  // zero-byte log
  } else {
    std::vector<char> bytes = ReadFile(LogPath(dir));
    bytes[static_cast<size_t>(patch_offset)] ^= 0x40;
    WriteFile(LogPath(dir), bytes);
  }

  cache::VerdictStore store;
  std::string error;
  ASSERT_TRUE(store.Open(dir, &error)) << error;
  EXPECT_EQ(store.stats().records_loaded, 0);
  EXPECT_EQ(store.disk_records(), 0);
  EXPECT_FALSE(store.Lookup("fp").has_value());

  // The rebuilt store is fully usable.
  store.Put("fp2", UnsafeVerdict());
  EXPECT_EQ(store.Flush(), 1);
  cache::VerdictStore reopened;
  ASSERT_TRUE(reopened.Open(dir));
  ExpectSame(reopened.Lookup("fp2"), UnsafeVerdict());
  EXPECT_FALSE(reopened.Lookup("fp").has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Corruption, VerdictStoreBadHeader,
    testing::Values(std::pair<std::string, int>{"magic", 0},
                    std::pair<std::string, int>{"schema", 4},
                    std::pair<std::string, int>{"generation", 8},
                    std::pair<std::string, int>{"zero_byte", -1}),
    [](const testing::TestParamInfo<std::pair<std::string, int>>& info) {
      return info.param.first;
    });

TEST(VerdictStore, ZeroByteAndGarbageIndexAreRebuilt) {
  const std::string dir = FreshDir("bad_idx");
  {
    cache::VerdictStore store;
    ASSERT_TRUE(store.Open(dir));
    store.Put("fp", SafeVerdict());
    ASSERT_EQ(store.Flush(), 1);
  }
  for (const std::vector<char>& junk :
       {std::vector<char>{},
        std::vector<char>{'j', 'u', 'n', 'k', 'j', 'u', 'n', 'k'}}) {
    WriteFile(IdxPath(dir), junk);
    cache::VerdictStore store;
    ASSERT_TRUE(store.Open(dir));
    // The log is intact, so nothing is lost: the index is a pure cache.
    EXPECT_EQ(store.stats().records_loaded, 1);
    EXPECT_EQ(store.stats().records_dropped, 0);
    ExpectSame(store.Lookup("fp"), SafeVerdict());
  }
}

TEST(VerdictStore, StaleIndexFromAnOlderLogIsRebuilt) {
  const std::string dir = FreshDir("stale_idx");
  {
    cache::VerdictStore store;
    ASSERT_TRUE(store.Open(dir));
    store.Put("fp1", SafeVerdict());
    ASSERT_EQ(store.Flush(), 1);
  }
  // Keep the index from the 1-record log, then grow the log behind its
  // back — the index header's covered-log-size check must reject it.
  const std::vector<char> stale_idx = ReadFile(IdxPath(dir));
  {
    cache::VerdictStore store;
    ASSERT_TRUE(store.Open(dir));
    store.Put("fp2", UnsafeVerdict());
    ASSERT_EQ(store.Flush(), 1);
  }
  WriteFile(IdxPath(dir), stale_idx);

  cache::VerdictStore store;
  ASSERT_TRUE(store.Open(dir));
  EXPECT_EQ(store.stats().records_loaded, 2);
  ExpectSame(store.Lookup("fp1"), SafeVerdict());
  ExpectSame(store.Lookup("fp2"), UnsafeVerdict());
}

// ---- Two appenders, one directory -----------------------------------------

TEST(VerdictStore, TwoStoresShareOneDirectoryWithoutDuplicates) {
  const std::string dir = FreshDir("two_appenders");
  cache::VerdictStore a;
  cache::VerdictStore b;
  ASSERT_TRUE(a.Open(dir));
  ASSERT_TRUE(b.Open(dir));

  // Each appender contributes its own verdict plus one both computed.
  a.Put("only-a", SafeVerdict());
  a.Put("shared", SafeVerdict());
  b.Put("only-b", UnsafeVerdict());
  b.Put("shared", SafeVerdict());

  EXPECT_EQ(a.Flush(), 2);
  // B re-scans the log under the appender lock: A's records survive and
  // the shared fingerprint is not appended twice.
  EXPECT_EQ(b.Flush(), 1);
  EXPECT_EQ(b.disk_records(), 3);

  // B sees A's flush (its Flush remapped the grown log); a third opener
  // sees everything exactly once.
  ExpectSame(b.Lookup("only-a"), SafeVerdict());
  cache::VerdictStore c;
  ASSERT_TRUE(c.Open(dir));
  EXPECT_EQ(c.stats().records_loaded, 3);
  ExpectSame(c.Lookup("only-a"), SafeVerdict());
  ExpectSame(c.Lookup("only-b"), UnsafeVerdict());
  ExpectSame(c.Lookup("shared"), SafeVerdict());
}

TEST(VerdictStore, FlushBytesAreAFunctionOfContentNotInsertOrder) {
  const std::string dir1 = FreshDir("order1");
  const std::string dir2 = FreshDir("order2");
  cache::VerdictStore s1;
  cache::VerdictStore s2;
  ASSERT_TRUE(s1.Open(dir1));
  ASSERT_TRUE(s2.Open(dir2));
  s1.Put("x", SafeVerdict());
  s1.Put("y", UnsafeVerdict());
  s2.Put("y", UnsafeVerdict());  // reversed insert order
  s2.Put("x", SafeVerdict());
  EXPECT_EQ(s1.Flush(), 2);
  EXPECT_EQ(s2.Flush(), 2);
  EXPECT_EQ(ReadFile(LogPath(dir1)), ReadFile(LogPath(dir2)));
}

// ---- Tier-1 fallthrough and promotion -------------------------------------

TEST(VerdictStore, MemoMissFallsThroughToStoreAndPromotes) {
  const std::string dir = FreshDir("fallthrough");
  cache::VerdictStore store;
  ASSERT_TRUE(store.Open(dir));

  PairSafetyReport report;
  report.verdict = SafetyVerdict::kSafe;
  report.method = DecisionMethod::kTheorem1;
  report.sites_spanned = 2;
  {
    PairVerdictCache warm_cache;
    warm_cache.set_store(&store);
    EXPECT_EQ(warm_cache.store(), &store);
    warm_cache.Insert("fp", report);  // forwarded to the pending buffer
  }
  EXPECT_EQ(store.pending_records(), 1);

  PairVerdictCache fresh;
  fresh.set_store(&store);
  auto hit = fresh.Lookup("fp");  // memory miss -> store hit, promoted
  ExpectSame(hit, SafeVerdict());
  EXPECT_EQ(fresh.size(), 1);
  EXPECT_EQ(store.stats().disk_hits, 1);
  // The memo now answers by itself; the store sees no second consultation.
  ASSERT_TRUE(fresh.Lookup("fp").has_value());
  EXPECT_EQ(store.stats().disk_hits, 1);
  EXPECT_EQ(fresh.stats().hits, 1);    // the promoted second lookup
  EXPECT_EQ(fresh.stats().misses, 1);  // the memo miss that fell through

  // Detached, the memo behaves exactly as before the store existed.
  PairVerdictCache detached;
  detached.set_store(nullptr);
  EXPECT_FALSE(detached.Lookup("fp").has_value());
}

// ---- Byte-identity of reports ---------------------------------------------

// Normalizes away exactly what warmth may change: where a pair was decided
// (checked vs cached) and stage/delta timing counters. Everything else —
// verdict, diagnostics, certificates, cycle counts — must be byte-equal
// across {off, cold, warm} at any thread count (docs/caching.md).
std::string NormalizedJson(MultiSafetyReport report,
                           const TransactionSystem& system) {
  report.pairs_checked += report.pairs_cached;
  report.pairs_cached = 0;
  report.pipeline = PipelineStats();
  report.delta.reset();
  return MultiReportToJson(report, system);
}

TEST(VerdictStore, StoreNeverChangesANormalizedReport) {
  Rng rng(20260808);
  WorkloadParams params;
  params.num_sites = 3;
  params.num_entities = 6;
  params.num_transactions = 5;
  for (int trial = 0; trial < 4; ++trial) {
    Workload w = MakeRandomWorkload(params, &rng);
    for (int threads : {1, 4}) {
      MultiSafetyOptions off;
      off.num_threads = threads;
      const std::string off_json =
          NormalizedJson(AnalyzeMultiSafety(*w.system, off), *w.system);

      const std::string dir = FreshDir(
          "identity_t" + std::to_string(trial) + "_n" +
          std::to_string(threads));
      cache::VerdictStore cold_store;
      ASSERT_TRUE(cold_store.Open(dir));
      MultiSafetyOptions with_store = off;
      with_store.store = &cold_store;
      const std::string cold_json = NormalizedJson(
          AnalyzeMultiSafety(*w.system, with_store), *w.system);
      cold_store.Flush();

      cache::VerdictStore warm_store;
      ASSERT_TRUE(warm_store.Open(dir));
      with_store.store = &warm_store;
      const std::string warm_json = NormalizedJson(
          AnalyzeMultiSafety(*w.system, with_store), *w.system);

      EXPECT_EQ(off_json, cold_json)
          << "trial " << trial << " threads " << threads;
      EXPECT_EQ(off_json, warm_json)
          << "trial " << trial << " threads " << threads;
    }
  }
}

TEST(VerdictStore, WarmFromDiskEqualsWarmInMemory) {
  Rng rng(77);
  WorkloadParams params;
  params.num_sites = 2;
  params.num_entities = 5;
  params.num_transactions = 6;
  Workload w = MakeRandomWorkload(params, &rng);

  // Warm in memory: one shared tier-1 memo across two analyses.
  PairVerdictCache memo;
  MultiSafetyOptions in_memory;
  in_memory.cache = &memo;
  AnalyzeMultiSafety(*w.system, in_memory);
  const std::string memory_json =
      NormalizedJson(AnalyzeMultiSafety(*w.system, in_memory), *w.system);

  // Warm from disk: flush a cold run, then analyze with a fresh store.
  const std::string dir = FreshDir("warm_equiv");
  {
    cache::VerdictStore store;
    ASSERT_TRUE(store.Open(dir));
    MultiSafetyOptions cold;
    cold.store = &store;
    AnalyzeMultiSafety(*w.system, cold);
    store.Flush();
  }
  cache::VerdictStore store;
  ASSERT_TRUE(store.Open(dir));
  MultiSafetyOptions warm;
  warm.store = &store;
  const std::string disk_json =
      NormalizedJson(AnalyzeMultiSafety(*w.system, warm), *w.system);

  EXPECT_EQ(memory_json, disk_json);
}

// The fingerprints the engine writes are portable: a verdict computed for
// one pair is served for a renamed isomorphic pair in another process (the
// reopened store stands in for the other process).
TEST(VerdictStore, IsomorphicPairsShareOneRecordAcrossProcesses) {
  DistributedDatabase db(3);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 1);
  db.MustAddEntity("p", 2);
  db.MustAddEntity("q", 1);
  auto make_pair = [&](const std::string& ea, const std::string& eb) {
    std::vector<Transaction> txns;
    for (const char* name : {"T1", "T2"}) {
      TransactionBuilder b(&db, name);
      StepId la = b.Lock(ea);
      StepId lb = b.Lock(eb);
      StepId ua = b.Unlock(ea);
      StepId ub = b.Unlock(eb);
      b.Edge(la, ub);
      b.Edge(lb, ua);
      txns.push_back(b.Build());
    }
    return txns;
  };
  std::vector<Transaction> original = make_pair("x", "y");
  std::vector<Transaction> renamed = make_pair("p", "q");

  const std::string dir = FreshDir("isomorphic");
  {
    cache::VerdictStore store;
    ASSERT_TRUE(store.Open(dir));
    PairVerdictCache memo;
    memo.set_store(&store);
    memo.Insert(PairFingerprint(original[0], original[1]),
                AnalyzePairSafety(original[0], original[1]));
    EXPECT_EQ(store.Flush(), 1);
  }
  cache::VerdictStore store;
  ASSERT_TRUE(store.Open(dir));
  auto hit = store.Lookup(PairFingerprint(renamed[0], renamed[1]));
  ASSERT_TRUE(hit.has_value());
  PairSafetyReport recomputed = AnalyzePairSafety(renamed[0], renamed[1]);
  EXPECT_EQ(hit->verdict, recomputed.verdict);
  EXPECT_EQ(hit->method, recomputed.method);
  EXPECT_EQ(hit->sites_spanned, recomputed.sites_spanned);
}

}  // namespace
}  // namespace dislock
