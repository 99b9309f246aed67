// End-to-end validation of the Theorem 3 reduction: {T1(F), T2(F)} is
// unsafe iff F is satisfiable, with dominators of D(T1(F),T2(F)) playing
// the role of truth assignments (Figs. 8-9).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/certificate.h"
#include "core/closure.h"
#include "core/conflict_graph.h"
#include "core/safety.h"
#include "graph/dominator.h"
#include "graph/scc.h"
#include "sat/normalize.h"
#include "sat/reduction.h"
#include "sat/solver.h"
#include "util/random.h"

namespace dislock {
namespace {

// The Fig. 8 example formula: F = (x1 v x2 v x3) ^ (~x1 v x2 v ~x3).
Cnf Fig8Formula() { return MakeCnf(3, {{1, 2, 3}, {-1, 2, -3}}); }

// Decides the reduced pair with the dominator-closure procedure only
// (complete whenever the dominator enumeration is complete).
SafetyVerdict DecideReducedPair(const ReductionOutput& red,
                                int64_t max_dominators = 1 << 16) {
  SafetyOptions options;
  options.max_extension_pairs = 0;  // the instances are far too wide
  options.max_dominators = max_dominators;
  PairSafetyReport report = AnalyzePairSafety(red.system->txn(0),
                                              red.system->txn(1), options);
  return report.verdict;
}

TEST(Reduction, RejectsNonRestrictedFormulas) {
  // x1 appears negated twice.
  Cnf bad = MakeCnf(2, {{-1, 2}, {-1, -2}, {1, 2}});
  EXPECT_FALSE(ReduceCnfToTransactions(bad).ok());
  // Unit clause.
  EXPECT_FALSE(ReduceCnfToTransactions(MakeCnf(1, {{1}})).ok());
}

TEST(Reduction, TransactionsAreValidAndEachEntityHasItsOwnSite) {
  auto red = ReduceCnfToTransactions(Fig8Formula());
  ASSERT_TRUE(red.ok()) << red.status().ToString();
  EXPECT_TRUE(red->system->Validate().ok())
      << red->system->Validate().ToString();
  EXPECT_EQ(red->db->NumSites(), red->db->NumEntities());
  // Both transactions lock-unlock every entity.
  for (int t = 0; t < 2; ++t) {
    EXPECT_EQ(static_cast<int>(red->system->txn(t).LockedEntities().size()),
              red->db->NumEntities());
  }
}

TEST(Reduction, DominatorsAreUpperCyclePlusMiddleSubsets) {
  auto red = ReduceCnfToTransactions(Fig8Formula());
  ASSERT_TRUE(red.ok());
  ConflictGraph d = BuildConflictGraph(red->system->txn(0),
                                       red->system->txn(1));
  EXPECT_EQ(d.graph.NumNodes(), red->db->NumEntities());
  EXPECT_FALSE(IsStronglyConnected(d.graph));

  // Middle components: w1, {w2a,w2b}, w3, w1', w3'  ->  2^5 dominators.
  auto dominators = AllDominators(d.graph, 1 << 10);
  EXPECT_EQ(dominators.size(), 32u);
  for (const auto& dom : dominators) {
    auto assignment = DominatorToAssignment(*red, d.EntitiesOf(dom));
    // Every structural dominator is upper-cycle + middle nodes; the
    // conversion only rejects contradictory (both-sides) ones.
    if (!assignment.ok()) {
      EXPECT_EQ(assignment.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(Reduction, SatisfyingAssignmentDominatorClosesAndCertifiesUnsafety) {
  auto red = ReduceCnfToTransactions(Fig8Formula());
  ASSERT_TRUE(red.ok());
  // x1=1, x2=0, x3=0 satisfies F.
  std::vector<bool> assignment = {false, true, false, false};
  ASSERT_TRUE(Fig8Formula().IsSatisfiedBy(assignment));
  std::vector<EntityId> dom = AssignmentToDominator(*red, assignment);

  auto closed = CloseWithRespectTo(red->system->txn(0), red->system->txn(1),
                                   dom);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  auto cert = BuildUnsafetyCertificate(red->system->txn(0),
                                       red->system->txn(1), dom, *closed);
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  EXPECT_TRUE(VerifyUnsafetyCertificate(red->system->txn(0),
                                        red->system->txn(1), *cert)
                  .ok());
}

TEST(Reduction, FalsifyingAssignmentDominatorFailsClosure) {
  auto red = ReduceCnfToTransactions(Fig8Formula());
  ASSERT_TRUE(red.ok());
  // x1=0, x2=0, x3=1 falsifies clause 2 (~x1 v x2 v ~x3)? No: ~x1 is true.
  // Use x1=1, x2=0, x3=1: clause 2 = (0 v 0 v 0) falsified.
  std::vector<bool> assignment = {false, true, false, true};
  ASSERT_FALSE(Fig8Formula().IsSatisfiedBy(assignment));
  std::vector<EntityId> dom = AssignmentToDominator(*red, assignment);

  auto closure = CloseWithRespectTo(red->system->txn(0), red->system->txn(1),
                                    dom);
  EXPECT_FALSE(closure.ok());
  EXPECT_EQ(closure.status().code(), StatusCode::kUndecided)
      << closure.status().ToString();
}

TEST(Reduction, Fig8PairIsUnsafeBecauseFormulaIsSatisfiable) {
  auto red = ReduceCnfToTransactions(Fig8Formula());
  ASSERT_TRUE(red.ok());
  EXPECT_EQ(DecideReducedPair(*red), SafetyVerdict::kUnsafe);
}

TEST(Reduction, UnsatisfiableFormulaGivesSafePair) {
  // data/unsat.cnf is every clause over two variables; normalized to
  // restricted form and reduced, the default pipeline must prove the pair
  // SAFE by closing every dominator and deriving a contradiction each time.
  std::ifstream in(std::string(DISLOCK_SOURCE_DIR) + "/data/unsat.cnf");
  std::stringstream text;
  text << in.rdbuf();
  auto unsat = ParseDimacs(text.str());
  ASSERT_TRUE(unsat.ok()) << unsat.status().ToString();
  auto sat = SolveSat(*unsat);
  ASSERT_TRUE(sat.ok());
  ASSERT_FALSE(sat->satisfiable);
  auto restricted = NormalizeToRestricted(*unsat);
  ASSERT_TRUE(restricted.ok());
  ASSERT_FALSE(restricted->trivially_sat || restricted->trivially_unsat);
  ASSERT_TRUE(restricted->cnf.IsRestrictedForm());
  auto red = ReduceCnfToTransactions(restricted->cnf);
  ASSERT_TRUE(red.ok()) << red.status().ToString();
  PairSafetyReport report =
      AnalyzePairSafety(red->system->txn(0), red->system->txn(1));
  EXPECT_EQ(report.verdict, SafetyVerdict::kSafe) << report.detail;
  EXPECT_EQ(report.method, DecisionMethod::kDominatorClosure);
}

// Generates a random formula that is ALREADY in restricted form (<= 2
// positive and <= 1 negative occurrences per variable, clauses of 2-3
// distinct variables), so the reduction's dominator space stays enumerable
// (it is exponential in the number of middle components — the coNP
// explosion — so unrestricted normalization output would be intractable).
Cnf RandomRestrictedFormula(Rng* rng) {
  const int num_vars = 2 + static_cast<int>(rng->Uniform(3));  // 2..4
  std::vector<int> pos_budget(num_vars + 1, 2);
  std::vector<int> neg_budget(num_vars + 1, 1);
  const int want_clauses = 2 + static_cast<int>(rng->Uniform(2));  // 2..3
  std::vector<std::vector<int>> clauses;
  for (int c = 0; c < want_clauses; ++c) {
    int len = 2 + static_cast<int>(rng->Uniform(2));  // 2..3
    std::vector<int> vars;
    for (int v = 1; v <= num_vars; ++v) {
      if (pos_budget[v] > 0 || neg_budget[v] > 0) vars.push_back(v);
    }
    rng->Shuffle(&vars);
    std::vector<int> clause;
    for (int v : vars) {
      if (static_cast<int>(clause.size()) == len) break;
      bool can_pos = pos_budget[v] > 0;
      bool can_neg = neg_budget[v] > 0;
      bool negated = can_neg && (!can_pos || rng->Bernoulli(0.35));
      if (negated) {
        --neg_budget[v];
        clause.push_back(-v);
      } else {
        --pos_budget[v];
        clause.push_back(v);
      }
    }
    if (clause.size() >= 2) clauses.push_back(clause);
  }
  if (clauses.empty()) clauses.push_back({1, 2});
  return MakeCnf(num_vars, clauses);
}

TEST(Reduction, RandomFormulasUnsafeIffSatisfiable) {
  Rng rng(20260704);
  int sat_count = 0;
  int unsat_count = 0;
  for (int trial = 0; trial < 25; ++trial) {
    Cnf cnf = RandomRestrictedFormula(&rng);
    ASSERT_TRUE(cnf.IsRestrictedForm());
    auto sat = SolveSat(cnf);
    ASSERT_TRUE(sat.ok());
    auto red = ReduceCnfToTransactions(cnf);
    ASSERT_TRUE(red.ok()) << red.status().ToString()
                          << " formula: " << cnf.ToString();
    SafetyVerdict verdict = DecideReducedPair(*red, 1 << 12);
    ASSERT_NE(verdict, SafetyVerdict::kUnknown) << cnf.ToString();
    EXPECT_EQ(verdict == SafetyVerdict::kUnsafe, sat->satisfiable)
        << "formula: " << cnf.ToString();
    (sat->satisfiable ? sat_count : unsat_count) += 1;
  }
  EXPECT_GT(sat_count, 0);
  // Restricted random formulas are mostly satisfiable; unsat coverage comes
  // from UnsatisfiableFormulaGivesSafePair.
}

TEST(Normalize, PreservesSatisfiabilityAndModelsLift) {
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    // Unrestricted random CNF.
    int num_vars = 3 + static_cast<int>(rng.Uniform(3));
    int num_clauses = 2 + static_cast<int>(rng.Uniform(5));
    std::vector<std::vector<int>> clauses;
    for (int c = 0; c < num_clauses; ++c) {
      std::vector<int> clause;
      for (int v = 1; v <= num_vars; ++v) {
        if (rng.Bernoulli(0.5)) {
          clause.push_back(rng.Bernoulli(0.5) ? v : -v);
        }
      }
      if (clause.empty()) clause.push_back(rng.Bernoulli(0.5) ? 1 : -1);
      clauses.push_back(clause);
    }
    Cnf cnf = MakeCnf(num_vars, clauses);
    auto sat = SolveSat(cnf);
    ASSERT_TRUE(sat.ok());

    auto restricted = NormalizeToRestricted(cnf);
    ASSERT_TRUE(restricted.ok());
    if (restricted->trivially_unsat) {
      EXPECT_FALSE(sat->satisfiable) << cnf.ToString();
      continue;
    }
    if (restricted->trivially_sat) {
      EXPECT_TRUE(sat->satisfiable) << cnf.ToString();
      continue;
    }
    EXPECT_TRUE(restricted->cnf.IsRestrictedForm())
        << restricted->cnf.ToString();
    for (const Clause& c : restricted->cnf.clauses) {
      EXPECT_GE(c.size(), 2u);
      EXPECT_LE(c.size(), 3u);
    }
    auto rsat = SolveSat(restricted->cnf);
    ASSERT_TRUE(rsat.ok());
    EXPECT_EQ(rsat->satisfiable, sat->satisfiable) << cnf.ToString();
    if (rsat->satisfiable) {
      std::vector<bool> lifted = restricted->LiftModel(rsat->assignment);
      EXPECT_TRUE(cnf.IsSatisfiedBy(lifted)) << cnf.ToString();
    }
  }
}

}  // namespace
}  // namespace dislock
