// Tests for the dislock-analyze subsystem: the rule catalog, the pass
// registry / PassManager, each built-in pass (DL001-DL103), the emitters,
// and the differential audit that cross-checks analyzer output against the
// decision procedures — including the property that every reported unsafe
// pair's certificate schedule is legal and non-serializable.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "analysis/emit.h"
#include "analysis/pass.h"
#include "analysis/passes.h"
#include "core/brute_force.h"
#include "core/certificate.h"
#include "core/paper.h"
#include "core/policy.h"
#include "core/safety.h"
#include "sim/workload.h"
#include "txn/builder.h"
#include "txn/schedule.h"
#include "txn/text_format.h"

namespace dislock {
namespace {

std::vector<const Diagnostic*> WithRule(const AnalysisResult& result,
                                        const std::string& rule) {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.rule == rule) out.push_back(&d);
  }
  return out;
}

/// Three entities on three distinct sites; T1 visits x, y, z sequentially
/// (each section closed before the next opens) and T2 visits them in the
/// reverse order. D(T1, T2) is the DAG x -> y -> z (plus x -> z), not
/// strongly connected, and the classic "T2 runs inside T1's gap" schedule
/// is non-serializable — an unsafe pair spanning three sites.
TransactionSystem MakeThreeSiteUnsafeSystem(DistributedDatabase* db) {
  TransactionSystem system(db);
  // Entities live on distinct sites, so auto-chaining orders nothing
  // across sections; chain the sections explicitly.
  auto add_seq = [&](const char* name,
                     std::initializer_list<const char*> order) {
    TransactionBuilder b(db, name);
    StepId prev = kInvalidStep;
    for (const char* entity : order) {
      StepId lock = b.Lock(entity);
      b.Update(entity);
      StepId unlock = b.Unlock(entity);
      if (prev != kInvalidStep) b.Edge(prev, lock);
      prev = unlock;
    }
    system.Add(b.Build());
  };
  add_seq("T1", {"x", "y", "z"});
  add_seq("T2", {"z", "y", "x"});
  return system;
}

// ------------------------------------------------------------- catalog --

TEST(RuleCatalog, IdsAreUniqueSortedAndDocumented) {
  const std::vector<AnalysisRule>& rules = AnalysisRules();
  ASSERT_FALSE(rules.empty());
  std::set<std::string> ids;
  for (const AnalysisRule& rule : rules) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate id " << rule.id;
    EXPECT_STRNE(rule.name, "");
    EXPECT_STRNE(rule.citation, "");
    EXPECT_STRNE(rule.summary, "");
  }
  EXPECT_TRUE(std::is_sorted(
      rules.begin(), rules.end(),
      [](const AnalysisRule& a, const AnalysisRule& b) {
        return std::string(a.id) < b.id;
      }));
}

TEST(RuleCatalog, FindKnownAndUnknown) {
  const AnalysisRule* rule = FindAnalysisRule("DL002");
  ASSERT_NE(rule, nullptr);
  EXPECT_STREQ(rule->name, "unsafe-pair");
  EXPECT_EQ(FindAnalysisRule("DL999"), nullptr);
  EXPECT_EQ(FindAnalysisRule(""), nullptr);
}

// ------------------------------------------------------------ registry --

TEST(PassRegistry, BuiltinsRegisteredInPipelineOrder) {
  std::vector<std::string> names = RegisteredAnalysisPasses();
  ASSERT_GE(names.size(), 4u);
  EXPECT_EQ(names[0], "two-phase");
  EXPECT_EQ(names[1], "pair-safety");
  EXPECT_EQ(names[2], "system-safety");
  EXPECT_EQ(names[3], "lints");
}

TEST(PassRegistry, MakeByNameAndUnknown) {
  auto pass = MakeAnalysisPass("pair-safety");
  ASSERT_TRUE(pass.ok());
  EXPECT_STREQ((*pass)->name(), "pair-safety");
  EXPECT_FALSE(MakeAnalysisPass("no-such-pass").ok());
}

TEST(PassManager, SelectedPassesRunInGivenOrder) {
  PassManager manager;
  ASSERT_TRUE(manager.Add("lints").ok());
  ASSERT_TRUE(manager.Add("two-phase").ok());
  EXPECT_FALSE(manager.Add("bogus").ok());
  EXPECT_EQ(manager.PipelineNames(),
            (std::vector<std::string>{"lints", "two-phase"}));

  PaperInstance inst = MakeFig1Instance();
  AnalysisResult result = manager.Run(*inst.system);
  EXPECT_EQ(result.passes_run,
            (std::vector<std::string>{"lints", "two-phase"}));
  // No pair-safety pass in the pipeline => no safety verdict diagnostics.
  EXPECT_TRUE(WithRule(result, "DL002").empty());
  EXPECT_FALSE(WithRule(result, "DL001").empty());
}

// ----------------------------------------------------- two-phase (DL001) --

TEST(TwoPhasePass, FlagsSequentialSectionsOncePerTransaction) {
  PaperInstance inst = MakeFig1Instance();  // both txns unlock then re-lock
  AnalysisResult result = AnalyzeSystem(*inst.system);
  auto notes = WithRule(result, "DL001");
  ASSERT_EQ(notes.size(), 2u);
  EXPECT_EQ(notes[0]->severity, DiagSeverity::kNote);
  EXPECT_EQ(notes[0]->location.txn, 0);
  EXPECT_EQ(notes[1]->location.txn, 1);
  EXPECT_NE(notes[0]->fix_hint, "");
}

TEST(TwoPhasePass, SilentOnTwoPhaseTransactions) {
  DistributedDatabase db(1);
  EntityId a = db.MustAddEntity("a", 0);
  EntityId b = db.MustAddEntity("b", 0);
  TransactionSystem system(&db);
  system.Add(MakeTwoPhaseTransaction(&db, "T1", {a, b}));
  system.Add(MakeTwoPhaseTransaction(&db, "T2", {a, b}));
  AnalysisResult result = AnalyzeSystem(system);
  EXPECT_TRUE(WithRule(result, "DL001").empty());
}

TEST(TwoPhasePass, OverlappingSectionsOfFig4AreTwoPhase) {
  PaperInstance inst = MakeFig4Instance();
  AnalysisResult result = AnalyzeSystem(*inst.system);
  EXPECT_TRUE(WithRule(result, "DL001").empty());
}

// --------------------------------------------- pair safety (DL002-DL005) --

TEST(PairSafetyPass, UnsafeTwoSitePairGetsDl002WithCertificate) {
  PaperInstance inst = MakeFig1Instance();
  AnalysisResult result = AnalyzeSystem(*inst.system);
  auto errors = WithRule(result, "DL002");
  ASSERT_EQ(errors.size(), 1u);
  const Diagnostic& d = *errors[0];
  EXPECT_EQ(d.severity, DiagSeverity::kError);
  EXPECT_EQ(d.location.txn, 0);
  EXPECT_EQ(d.location.other_txn, 1);
  ASSERT_TRUE(d.certificate.has_value());
  EXPECT_TRUE(VerifyUnsafetyCertificate(inst.system->txn(0),
                                        inst.system->txn(1), *d.certificate)
                  .ok());
  EXPECT_TRUE(result.HasErrors());
  EXPECT_TRUE(WithRule(result, "DL003").empty());
  EXPECT_TRUE(WithRule(result, "DL004").empty());
}

TEST(PairSafetyPass, StronglyConnectedFig4GetsDl003) {
  PaperInstance inst = MakeFig4Instance();
  AnalysisResult result = AnalyzeSystem(*inst.system);
  auto notes = WithRule(result, "DL003");
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0]->severity, DiagSeverity::kNote);
  EXPECT_NE(notes[0]->message.find("Theorem 1"), std::string::npos)
      << notes[0]->message;
  // Fig. 4 is safe yet not deadlock-free, so the only error-grade finding
  // is the deadlock pass's DL201 — never a safety error.
  EXPECT_TRUE(WithRule(result, "DL002").empty());
  EXPECT_TRUE(WithRule(result, "DL004").empty());
  EXPECT_TRUE(WithRule(result, "DL006").empty());
}

TEST(PairSafetyPass, Fig5SafeViaDominatorClosureGetsDl003) {
  PaperInstance inst = MakeFig5Instance();
  AnalysisOptions options;
  options.max_extension_pairs = 0;  // the closure proof must suffice
  AnalysisResult result = AnalyzeSystem(*inst.system, options);
  auto notes = WithRule(result, "DL003");
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0]->message.find("dominator-closure"), std::string::npos)
      << notes[0]->message;
  // The whole point of Fig. 5: it must NOT be reported unsafe. (It is not
  // deadlock-free, though, so DL201 may legitimately appear.)
  EXPECT_TRUE(WithRule(result, "DL002").empty());
  EXPECT_TRUE(WithRule(result, "DL004").empty());
  EXPECT_TRUE(WithRule(result, "DL006").empty());
}

TEST(PairSafetyPass, MultisiteUnsafePairGetsDl004WithCertificate) {
  DistributedDatabase db(3);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 1);
  db.MustAddEntity("z", 2);
  TransactionSystem system = MakeThreeSiteUnsafeSystem(&db);
  AnalysisResult result = AnalyzeSystem(system);
  auto errors = WithRule(result, "DL004");
  ASSERT_EQ(errors.size(), 1u) << DiagnosticsToText(result, system);
  ASSERT_TRUE(errors[0]->certificate.has_value());
  EXPECT_TRUE(VerifyUnsafetyCertificate(system.txn(0), system.txn(1),
                                        *errors[0]->certificate)
                  .ok());
  EXPECT_TRUE(WithRule(result, "DL002").empty());
}

TEST(PairSafetyPass, BudgetExhaustionGetsDl005Warning) {
  DistributedDatabase db(3);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 1);
  db.MustAddEntity("z", 2);
  TransactionSystem system = MakeThreeSiteUnsafeSystem(&db);
  AnalysisOptions options;
  options.max_dominators = 0;       // dominator loop can't finish
  options.max_extension_pairs = 0;  // no exhaustive fallback
  AnalysisResult result = AnalyzeSystem(system, options);
  auto warnings = WithRule(result, "DL005");
  ASSERT_EQ(warnings.size(), 1u) << DiagnosticsToText(result, system);
  EXPECT_EQ(warnings[0]->severity, DiagSeverity::kWarning);
  EXPECT_TRUE(WithRule(result, "DL002").empty());
  EXPECT_TRUE(WithRule(result, "DL004").empty());
}

// -------------------------------------------- system safety (DL006-DL008) --

TEST(SystemSafetyPass, ThreeTxnCycleGetsDl006) {
  DistributedDatabase db(1);
  db.MustAddEntity("a", 0);
  db.MustAddEntity("b", 0);
  db.MustAddEntity("c", 0);
  TransactionSystem system(&db);
  auto add_seq = [&](const char* name, const char* e1, const char* e2) {
    TransactionBuilder b(&db, name);
    b.LockUpdateUnlock(e1);
    b.LockUpdateUnlock(e2);
    system.Add(b.Build());
  };
  add_seq("T1", "a", "b");
  add_seq("T2", "b", "c");
  add_seq("T3", "c", "a");
  AnalysisResult result = AnalyzeSystem(system);
  auto errors = WithRule(result, "DL006");
  ASSERT_EQ(errors.size(), 1u) << DiagnosticsToText(result, system);
  EXPECT_EQ(errors[0]->severity, DiagSeverity::kError);
  EXPECT_NE(errors[0]->message.find("T1"), std::string::npos);
  // Pairwise all safe: no DL002/DL004 despite the system being unsafe.
  EXPECT_TRUE(WithRule(result, "DL002").empty());
}

TEST(SystemSafetyPass, SafeThreeTxnSystemGetsDl008) {
  DistributedDatabase db(1);
  EntityId a = db.MustAddEntity("a", 0);
  EntityId b = db.MustAddEntity("b", 0);
  EntityId c = db.MustAddEntity("c", 0);
  TransactionSystem system(&db);
  system.Add(MakeTwoPhaseTransaction(&db, "T1", {a, b}));
  system.Add(MakeTwoPhaseTransaction(&db, "T2", {b, c}));
  system.Add(MakeTwoPhaseTransaction(&db, "T3", {c, a}));
  AnalysisResult result = AnalyzeSystem(system);
  EXPECT_EQ(WithRule(result, "DL008").size(), 1u);
  EXPECT_TRUE(WithRule(result, "DL006").empty());
  // T1 < T2 < T3 chase each other's entities in a cycle, so a deadlock is
  // reachable (DL201) even though the system is safe; no safety errors.
  EXPECT_TRUE(WithRule(result, "DL002").empty());
  EXPECT_TRUE(WithRule(result, "DL004").empty());
}

TEST(SystemSafetyPass, SilentOnPairs) {
  PaperInstance inst = MakeFig1Instance();
  AnalysisResult result = AnalyzeSystem(*inst.system);
  EXPECT_TRUE(WithRule(result, "DL006").empty());
  EXPECT_TRUE(WithRule(result, "DL007").empty());
  EXPECT_TRUE(WithRule(result, "DL008").empty());
}

// ---------------------------------------------------- lints (DL101-DL103) --

TEST(LintPass, RedundantLockOnPrivateUnreadEntity) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  EntityId scratch = db.MustAddEntity("scratch", 0);
  TransactionSystem system(&db);
  {
    TransactionBuilder b(&db, "T1");
    b.LockUpdateUnlock("x");
    b.Lock("scratch");  // never updated, never touched by T2
    b.Unlock("scratch");
    system.Add(b.Build());
  }
  {
    TransactionBuilder b(&db, "T2");
    b.LockUpdateUnlock("x");
    system.Add(b.Build());
  }
  AnalysisResult result = AnalyzeSystem(system);
  auto warnings = WithRule(result, "DL101");
  ASSERT_EQ(warnings.size(), 1u) << DiagnosticsToText(result, system);
  EXPECT_EQ(warnings[0]->location.txn, 0);
  EXPECT_EQ(warnings[0]->location.entity, scratch);
}

TEST(LintPass, NoRedundantLockWhenEntityIsContended) {
  // Same shape, but T2 also locks (and updates) "scratch": removing T1's
  // lock would change D(T1, T2), so DL101 must stay silent.
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("scratch", 0);
  TransactionSystem system(&db);
  {
    TransactionBuilder b(&db, "T1");
    b.LockUpdateUnlock("x");
    b.Lock("scratch");
    b.Unlock("scratch");
    system.Add(b.Build());
  }
  {
    TransactionBuilder b(&db, "T2");
    b.LockUpdateUnlock("x");
    b.LockUpdateUnlock("scratch");
    system.Add(b.Build());
  }
  AnalysisResult result = AnalyzeSystem(system);
  EXPECT_TRUE(WithRule(result, "DL101").empty())
      << DiagnosticsToText(result, system);
}

TEST(LintPass, UpdateAfterUnlockGetsDl102) {
  // ParseSystemText validates this away, so the lint targets
  // programmatically built transactions: lock, unlock, then update (the
  // same-site auto-chain orders the three steps).
  DistributedDatabase db(1);
  EntityId x = db.MustAddEntity("x", 0);
  TransactionSystem system(&db);
  TransactionBuilder b(&db, "T1");
  b.Lock("x");
  b.Unlock("x");
  b.Add(StepKind::kUpdate, x);
  system.Add(b.Build());
  AnalysisResult result = AnalyzeSystem(system);
  auto warnings = WithRule(result, "DL102");
  ASSERT_EQ(warnings.size(), 1u) << DiagnosticsToText(result, system);
  EXPECT_EQ(warnings[0]->severity, DiagSeverity::kWarning);
  EXPECT_EQ(warnings[0]->location.entity, x);
}

TEST(LintPass, InconsistentAcquisitionOrderGetsDl103) {
  PaperInstance inst = MakeFig1Instance();  // T2 locks in reverse site order
  AnalysisResult result = AnalyzeSystem(*inst.system);
  auto notes = WithRule(result, "DL103");
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0]->severity, DiagSeverity::kNote);
  EXPECT_EQ(notes[0]->location.txn, 1);
}

TEST(LintPass, CanonicalOrderIsLintClean) {
  DistributedDatabase db(2);
  EntityId a = db.MustAddEntity("a", 0);
  EntityId b = db.MustAddEntity("b", 1);
  TransactionSystem system(&db);
  system.Add(MakeTwoPhaseTransaction(&db, "T1", {a, b}));
  system.Add(MakeTwoPhaseTransaction(&db, "T2", {a, b}));
  AnalysisResult result = AnalyzeSystem(system);
  EXPECT_TRUE(WithRule(result, "DL101").empty());
  EXPECT_TRUE(WithRule(result, "DL102").empty());
  EXPECT_TRUE(WithRule(result, "DL103").empty());
}

// ------------------------------------------------------------- emitters --

TEST(Emit, TextMentionsEveryDiagnosticAndSummarizes) {
  PaperInstance inst = MakeFig1Instance();
  AnalysisResult result = AnalyzeSystem(*inst.system);
  std::string text = DiagnosticsToText(result, *inst.system);
  for (const Diagnostic& d : result.diagnostics) {
    EXPECT_NE(text.find(d.rule), std::string::npos) << text;
  }
  EXPECT_NE(text.find("1 error(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("certificate:"), std::string::npos) << text;
}

TEST(Emit, JsonCarriesRulesAndSummaryCounts) {
  PaperInstance inst = MakeFig1Instance();
  AnalysisResult result = AnalyzeSystem(*inst.system);
  std::string json = DiagnosticsToJson(result, *inst.system);
  EXPECT_NE(json.find("\"passes\""), std::string::npos);
  EXPECT_NE(json.find("\"DL002\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"certificate\""), std::string::npos);
}

TEST(Emit, SarifNamesToolRulesAndResults) {
  PaperInstance inst = MakeFig1Instance();
  AnalysisResult result = AnalyzeSystem(*inst.system);
  std::string sarif = DiagnosticsToSarif(result, *inst.system);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("dislock-analyze"), std::string::npos);
  // The full catalog ships as driver metadata even for unfired rules.
  for (const AnalysisRule& rule : AnalysisRules()) {
    EXPECT_NE(sarif.find(rule.id), std::string::npos) << rule.id;
  }
}

// ------------------------------------------------------ audit / property --

TEST(Audit, AcceptsFreshAnalyses) {
  PaperInstance fig1 = MakeFig1Instance();
  AnalysisResult r1 = AnalyzeSystem(*fig1.system);
  EXPECT_TRUE(AuditAnalysis(*fig1.system, r1).ok());

  PaperInstance fig5 = MakeFig5Instance();
  AnalysisResult r5 = AnalyzeSystem(*fig5.system);
  EXPECT_TRUE(AuditAnalysis(*fig5.system, r5).ok());
}

TEST(Audit, RejectsTamperedResults) {
  PaperInstance inst = MakeFig1Instance();
  AnalysisResult result = AnalyzeSystem(*inst.system);

  AnalysisResult dropped = result;  // silence the unsafe verdict
  dropped.diagnostics.erase(
      std::remove_if(dropped.diagnostics.begin(), dropped.diagnostics.end(),
                     [](const Diagnostic& d) { return d.rule == "DL002"; }),
      dropped.diagnostics.end());
  EXPECT_FALSE(AuditAnalysis(*inst.system, dropped).ok());

  AnalysisResult tampered = result;  // corrupt the certificate schedule
  for (Diagnostic& d : tampered.diagnostics) {
    if (d.certificate.has_value() && d.certificate->schedule.size() > 1) {
      std::vector<SysStep> events = d.certificate->schedule.events();
      std::swap(events[0], events[1]);
      d.certificate->schedule = Schedule(std::move(events));
    }
  }
  EXPECT_FALSE(AuditAnalysis(*inst.system, tampered).ok());
}

TEST(Audit, PropertyEveryReportedCertificateReplaysOnRandomWorkloads) {
  // The satellite property test: for random two-transaction workloads,
  // every DL002/DL004 the analyzer reports carries a certificate whose
  // schedule is LEGAL and NON-SERIALIZABLE for that pair, and the analysis
  // as a whole survives the differential audit.
  Rng rng(0xA11D17);
  int unsafe_seen = 0;
  for (int trial = 0; trial < 150; ++trial) {
    WorkloadParams params;
    params.num_sites = 1 + static_cast<int>(rng.Uniform(4));
    params.num_entities = 2 + static_cast<int>(rng.Uniform(3));
    params.num_transactions = 2;
    params.lock_probability = 0.6 + 0.4 * rng.UniformDouble();
    params.update_probability = 1.0;
    params.cross_site_arcs = static_cast<int>(rng.Uniform(3));
    Workload w = MakeRandomWorkload(params, &rng);
    ASSERT_TRUE(w.system->Validate().ok());

    AnalysisResult result = AnalyzeSystem(*w.system);
    ASSERT_TRUE(AuditAnalysis(*w.system, result).ok())
        << AuditAnalysis(*w.system, result).ToString() << "\n"
        << SystemToText(*w.system);

    for (const Diagnostic& d : result.diagnostics) {
      if (d.rule != "DL002" && d.rule != "DL004") continue;
      ++unsafe_seen;
      ASSERT_TRUE(d.certificate.has_value());
      EXPECT_TRUE(CheckScheduleLegal(*w.system, d.certificate->schedule).ok())
          << SystemToText(*w.system);
      EXPECT_FALSE(IsSerializable(*w.system, d.certificate->schedule))
          << SystemToText(*w.system);
    }
  }
  EXPECT_GT(unsafe_seen, 10);  // the generator must exercise the unsafe path
}

}  // namespace
}  // namespace dislock
