// IncrementalSafetyEngine: the equivalence contract (any edit sequence +
// Check matches a from-scratch AnalyzeMultiSafety of the final catalog, at
// any thread count, with and without the verdict cache) plus directed
// DeltaStats accounting — the full first check, total reuse on a no-op
// check, and the degree+1 recomputation bound for a single-transaction
// Replace.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cache/verdict_store.h"
#include "core/decision/context.h"
#include "core/incremental/engine.h"
#include "core/multi.h"
#include "core/policy.h"
#include "core/report.h"
#include "sim/workload.h"
#include "txn/catalog.h"
#include "txn/system.h"
#include "util/random.h"
#include "util/string_util.h"

namespace dislock {
namespace {

struct RingFixture {
  explicit RingFixture(int k) : db(std::make_shared<DistributedDatabase>(1)) {
    std::vector<EntityId> entities;
    for (int i = 0; i < k; ++i) {
      entities.push_back(db->MustAddEntity(StrCat("e", i), 0));
    }
    for (int i = 0; i < k; ++i) {
      txns.push_back(MakeTwoPhaseTransaction(
          db.get(), StrCat("T", i),
          {entities[static_cast<size_t>(i)],
           entities[static_cast<size_t>((i + 1) % k)]}));
    }
  }
  std::shared_ptr<DistributedDatabase> db;
  std::vector<Transaction> txns;
};

EngineConfig TestConfig(int num_threads) {
  EngineConfig config;
  config.max_cycles = 1 << 10;
  config.max_extension_pairs = 1 << 14;
  config.num_threads = num_threads;
  return config;
}

// Renders a report without its delta block, against the snapshot's names.
std::string JsonSansDelta(MultiSafetyReport report,
                          const CatalogSnapshot& snap) {
  report.delta.reset();
  return MultiReportToJson(report, snap.View());
}

// The incremental report must equal the batch report of the materialized
// catalog under a fresh context with the same config, modulo `delta`.
void ExpectMatchesScratch(const MultiSafetyReport& report,
                          const TransactionCatalog& catalog,
                          const EngineConfig& config, const char* where) {
  CatalogSnapshot snap = catalog.Snapshot();
  TransactionSystem scratch_system = snap.Materialize();
  MultiSafetyReport scratch = AnalyzeMultiSafety(scratch_system, config);
  EXPECT_FALSE(scratch.delta.has_value());
  EXPECT_EQ(JsonSansDelta(report, snap),
            MultiReportToJson(scratch, scratch_system))
      << where << " (generation " << catalog.generation() << ")";
}

TEST(IncrementalEngine, FirstCheckIsFullAndMatchesScratch) {
  RingFixture ring(8);
  TransactionCatalog catalog(ring.db.get());
  for (const Transaction& t : ring.txns) ASSERT_TRUE(catalog.Add(t).ok());

  EngineConfig config = TestConfig(1);
  EngineContext ctx(config);
  IncrementalSafetyEngine engine(&catalog, &ctx);

  MultiSafetyReport report = engine.Check();
  ASSERT_TRUE(report.delta.has_value());
  EXPECT_TRUE(report.delta->full);
  // A full check does not itemize edits; txns_* stay 0.
  EXPECT_EQ(report.delta->txns_added, 0);
  // Ring of 8: every adjacent pair conflicts, nothing is reusable yet.
  EXPECT_EQ(report.delta->pairs_recomputed, 8);
  EXPECT_EQ(report.delta->pairs_reused, 0);
  EXPECT_EQ(report.delta->cycles_reused, 0);
  EXPECT_EQ(engine.PairStoreSize(), 8);
  EXPECT_EQ(engine.totals().checks, 1);
  ExpectMatchesScratch(report, catalog, config, "first check");
}

TEST(IncrementalEngine, NoEditCheckReusesEverything) {
  RingFixture ring(8);
  TransactionCatalog catalog(ring.db.get());
  for (const Transaction& t : ring.txns) ASSERT_TRUE(catalog.Add(t).ok());

  EngineConfig config = TestConfig(1);
  EngineContext ctx(config);
  IncrementalSafetyEngine engine(&catalog, &ctx);

  MultiSafetyReport first = engine.Check();
  MultiSafetyReport second = engine.Check();
  ASSERT_TRUE(second.delta.has_value());
  EXPECT_FALSE(second.delta->full);
  EXPECT_EQ(second.delta->txns_added, 0);
  EXPECT_EQ(second.delta->txns_removed, 0);
  EXPECT_EQ(second.delta->txns_replaced, 0);
  EXPECT_EQ(second.delta->pairs_recomputed, 0);
  EXPECT_EQ(second.delta->pairs_reused, 8);
  EXPECT_EQ(second.delta->cycles_recomputed, 0);

  // Identical verdict and counters either way.
  CatalogSnapshot snap = catalog.Snapshot();
  EXPECT_EQ(JsonSansDelta(first, snap), JsonSansDelta(second, snap));
  ExpectMatchesScratch(second, catalog, config, "no-op check");
}

TEST(IncrementalEngine, ReplaceRecomputesAtMostDegreePlusOne) {
  RingFixture ring(16);
  TransactionCatalog catalog(ring.db.get());
  std::vector<TxnId> ids;
  for (const Transaction& t : ring.txns) {
    auto id = catalog.Add(t);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  EngineConfig config = TestConfig(1);
  EngineContext ctx(config);
  IncrementalSafetyEngine engine(&catalog, &ctx);
  engine.Check();

  // Re-lock T5's entities in the opposite order: a real definition change
  // that keeps the same conflict edges.
  const int slot = 5;
  std::vector<EntityId> locked = ring.txns[slot].LockedEntities();
  std::vector<EntityId> reversed(locked.rbegin(), locked.rend());
  ASSERT_TRUE(
      catalog.Replace(ids[slot], MakeTwoPhaseTransaction(ring.db.get(), "T5",
                                                         reversed))
          .ok());

  MultiSafetyReport report = engine.Check();
  ASSERT_TRUE(report.delta.has_value());
  EXPECT_FALSE(report.delta->full);
  EXPECT_EQ(report.delta->txns_replaced, 1);

  CatalogSnapshot snap = catalog.Snapshot();
  Digraph g = BuildTransactionConflictGraph(snap.View());
  int64_t degree = static_cast<int64_t>(g.OutNeighbors(slot).size());
  EXPECT_EQ(degree, 2);  // ring: conflicts with its two neighbors only
  EXPECT_LE(report.delta->pairs_recomputed, degree + 1);
  EXPECT_EQ(report.delta->pairs_reused, 16 - report.delta->pairs_recomputed);
  ExpectMatchesScratch(report, catalog, config, "after replace");
}

TEST(IncrementalEngine, AddAndRemoveAccounting) {
  RingFixture ring(6);
  TransactionCatalog catalog(ring.db.get());
  std::vector<TxnId> ids;
  for (int i = 0; i < 5; ++i) {
    auto id = catalog.Add(ring.txns[static_cast<size_t>(i)]);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  EngineConfig config = TestConfig(1);
  EngineContext ctx(config);
  IncrementalSafetyEngine engine(&catalog, &ctx);
  engine.Check();

  // Adding the closing transaction dirties only its own conflict edges.
  auto id5 = catalog.Add(ring.txns[5]);
  ASSERT_TRUE(id5.ok());
  MultiSafetyReport after_add = engine.Check();
  ASSERT_TRUE(after_add.delta.has_value());
  EXPECT_EQ(after_add.delta->txns_added, 1);
  EXPECT_EQ(after_add.delta->pairs_recomputed, 2);  // T5-T4 and T5-T0
  EXPECT_EQ(after_add.delta->pairs_reused, 4);
  ExpectMatchesScratch(after_add, catalog, config, "after add");

  // Removal invalidates without computing anything new.
  ASSERT_TRUE(catalog.Remove(ids[2]).ok());
  MultiSafetyReport after_remove = engine.Check();
  ASSERT_TRUE(after_remove.delta.has_value());
  EXPECT_EQ(after_remove.delta->txns_removed, 1);
  EXPECT_EQ(after_remove.delta->pairs_recomputed, 0);
  EXPECT_EQ(after_remove.delta->pairs_reused, 4);
  ExpectMatchesScratch(after_remove, catalog, config, "after remove");

  EXPECT_EQ(engine.totals().checks, 3);
}

TEST(IncrementalEngine, ResetForcesFullRecheckWithSameReport) {
  RingFixture ring(8);
  TransactionCatalog catalog(ring.db.get());
  for (const Transaction& t : ring.txns) ASSERT_TRUE(catalog.Add(t).ok());

  EngineConfig config = TestConfig(1);
  EngineContext ctx(config);
  IncrementalSafetyEngine engine(&catalog, &ctx);
  MultiSafetyReport before = engine.Check();
  engine.Reset();
  EXPECT_EQ(engine.PairStoreSize(), 0);
  EXPECT_EQ(engine.CycleStoreSize(), 0);
  MultiSafetyReport after = engine.Check();
  ASSERT_TRUE(after.delta.has_value());
  EXPECT_TRUE(after.delta->full);
  CatalogSnapshot snap = catalog.Snapshot();
  EXPECT_EQ(JsonSansDelta(before, snap), JsonSansDelta(after, snap));
}

// An empty directory under gtest's temp root for a tier-2 verdict store.
std::string EmptyStoreDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/incremental_test_" + name;
  for (const char* file :
       {cache::kVerdictLogFileName, cache::kVerdictIndexFileName,
        cache::kVerdictLockFileName}) {
    std::remove((dir + "/" + file).c_str());
  }
  return dir;
}

// The satellite property test: a random add/remove/replace sequence with a
// Check after every edit equals from-scratch analysis of the then-current
// system — same verdict, same failing pair/cycle, same pipeline stats —
// serially, at 4 threads, with the engine-owned verdict cache on, and with
// a cold tier-2 store (which the check writes but never reads; its scratch
// comparison gets its own cold store). The DeltaStats themselves must also
// be thread-count invariant.
TEST(IncrementalProperty, RandomEditSequencesMatchScratch) {
  Rng rng(0xD15C0'1CE);
  constexpr int kTrials = 12;
  constexpr int kPoolSize = 8;
  constexpr int kEditsPerTrial = 10;

  for (int trial = 0; trial < kTrials; ++trial) {
    WorkloadParams params;
    params.num_sites = 1 + static_cast<int>(rng.Uniform(3));
    params.num_entities = 2 + static_cast<int>(rng.Uniform(3));
    params.num_transactions = kPoolSize;
    params.lock_probability = 0.5 + 0.5 * rng.UniformDouble();
    params.update_probability = 1.0;
    params.shared_probability = rng.Bernoulli(0.3) ? 0.4 : 0.0;
    params.cross_site_arcs = static_cast<int>(rng.Uniform(3));
    Workload pool = MakeRandomWorkload(params, &rng);
    ASSERT_TRUE(pool.system->Validate().ok());

    EngineConfig serial_config = TestConfig(1);
    EngineConfig parallel_config = TestConfig(4);
    EngineConfig cached_config = TestConfig(1);
    cached_config.enable_cache = true;

    cache::VerdictStore engine_store;
    ASSERT_TRUE(engine_store.Open(EmptyStoreDir("engine")));
    EngineConfig stored_config = TestConfig(1);
    stored_config.store = &engine_store;
    // Never flushed, so every store opened on it starts cold.
    const std::string scratch_store_dir = EmptyStoreDir("scratch");

    TransactionCatalog catalog(pool.db.get());
    EngineContext serial_ctx(serial_config);
    EngineContext parallel_ctx(parallel_config);
    EngineContext cached_ctx(cached_config);
    EngineContext stored_ctx(stored_config);
    IncrementalSafetyEngine serial(&catalog, &serial_ctx);
    IncrementalSafetyEngine parallel(&catalog, &parallel_ctx);
    IncrementalSafetyEngine cached(&catalog, &cached_ctx);
    IncrementalSafetyEngine stored(&catalog, &stored_ctx);

    int name_counter = 0;
    auto add_from_pool = [&]() {
      Transaction t =
          pool.system->txn(static_cast<int>(rng.Uniform(kPoolSize)));
      t.set_name(StrCat("A", name_counter++));
      ASSERT_TRUE(catalog.Add(std::move(t)).ok());
    };

    auto check_all = [&](const char* where) {
      MultiSafetyReport serial_report = serial.Check();
      MultiSafetyReport parallel_report = parallel.Check();
      MultiSafetyReport cached_report = cached.Check();
      MultiSafetyReport stored_report = stored.Check();
      ASSERT_TRUE(serial_report.delta.has_value());
      ASSERT_TRUE(parallel_report.delta.has_value());
      // Reuse accounting is part of the determinism contract.
      EXPECT_EQ(DeltaStatsToJson(*serial_report.delta),
                DeltaStatsToJson(*parallel_report.delta))
          << where << " trial " << trial;
      ExpectMatchesScratch(serial_report, catalog, serial_config, where);
      ExpectMatchesScratch(parallel_report, catalog, parallel_config, where);
      ExpectMatchesScratch(cached_report, catalog, cached_config, where);
      cache::VerdictStore scratch_store;
      ASSERT_TRUE(scratch_store.Open(scratch_store_dir));
      EngineConfig scratch_config = stored_config;
      scratch_config.store = &scratch_store;
      ExpectMatchesScratch(stored_report, catalog, scratch_config, where);
    };

    for (int i = 0; i < 3; ++i) add_from_pool();
    check_all("initial");

    for (int edit = 0; edit < kEditsPerTrial; ++edit) {
      CatalogSnapshot snap = catalog.Snapshot();
      int n = snap.NumTransactions();
      uint64_t op = rng.Uniform(3);
      if (op == 0 || n <= 2) {
        add_from_pool();
      } else if (op == 1) {
        ASSERT_TRUE(
            catalog.Remove(snap.id(static_cast<int>(rng.Uniform(
                               static_cast<uint64_t>(n)))))
                .ok());
      } else {
        int slot = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
        Transaction t =
            pool.system->txn(static_cast<int>(rng.Uniform(kPoolSize)));
        t.set_name(snap.txn(slot).name());  // replace keeps the name
        ASSERT_TRUE(catalog.Replace(snap.id(slot), std::move(t)).ok());
      }
      check_all("after edit");
    }
    // The checks fed the store: every decided pair reaches disk.
    EXPECT_GT(engine_store.Flush(), 0) << "trial " << trial;
  }
}

}  // namespace
}  // namespace dislock
