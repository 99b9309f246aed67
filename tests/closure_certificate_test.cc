// Unit tests for the conflict graph (Definition 1), the closure operation
// (Lemmas 2-3, Definition 3), and certificate construction/verification
// (Theorem 2, Corollary 2).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/certificate.h"
#include "core/closure.h"
#include "core/conflict_graph.h"
#include "core/paper.h"
#include "graph/dominator.h"
#include "graph/scc.h"
#include "reference_kernels.h"
#include "txn/builder.h"
#include "txn/linear_extension.h"
#include "util/string_util.h"

namespace dislock {
namespace {

/// The Theorem 2 construction from the first dominator X of D(T1, T2):
/// close {T1, T2} with respect to X, then build the certificate.
Result<UnsafetyCertificate> CertifyFirstDominator(const Transaction& t1,
                                                  const Transaction& t2) {
  ConflictGraph d = BuildConflictGraph(t1, t2);
  DISLOCK_ASSIGN_OR_RETURN(std::vector<NodeId> dom, FindDominator(d.graph));
  const std::vector<EntityId> x = d.EntitiesOf(dom);
  DISLOCK_ASSIGN_OR_RETURN(ClosureResult closed,
                           CloseWithRespectTo(t1, t2, x));
  return BuildUnsafetyCertificate(t1, t2, x, closed);
}

TEST(ConflictGraph, Fig1Arcs) {
  PaperInstance inst = MakeFig1Instance();
  ConflictGraph d = BuildConflictGraph(inst.system->txn(0),
                                       inst.system->txn(1));
  ASSERT_EQ(d.graph.NumNodes(), 2);
  EntityId x = inst.db->Find("x").value();
  EntityId w = inst.db->Find("w").value();
  // T1 does x then w; T2 does w then x: arc (x, w) only.
  EXPECT_TRUE(d.graph.HasArc(d.node_of.at(x), d.node_of.at(w)));
  EXPECT_FALSE(d.graph.HasArc(d.node_of.at(w), d.node_of.at(x)));
}

TEST(ConflictGraph, OnlyCommonlyLockedEntitiesAppear) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("only1", 0);
  db.MustAddEntity("only2", 0);
  TransactionBuilder b1(&db, "T1");
  b1.Lock("x");
  b1.Unlock("x");
  b1.Lock("only1");
  b1.Unlock("only1");
  TransactionBuilder b2(&db, "T2");
  b2.Lock("only2");
  b2.Unlock("only2");
  b2.Lock("x");
  b2.Unlock("x");
  ConflictGraph d = BuildConflictGraph(b1.Build(), b2.Build());
  EXPECT_EQ(d.graph.NumNodes(), 1);
  EXPECT_EQ(d.entities[0], db.Find("x").value());
}

TEST(ConflictGraph, StronglyTwoPhasePairIsComplete) {
  DistributedDatabase db(2);
  std::vector<EntityId> all;
  for (int i = 0; i < 4; ++i) {
    all.push_back(db.MustAddEntity(StrCat("e", i),
                                   i % 2));
  }
  ConflictGraph d;
  {
    TransactionSystem system(&db);
    // Built in policy_test too; inline here via builder with lock point.
    for (const char* name : {"T1", "T2"}) {
      TransactionBuilder b(&db, name);
      std::vector<StepId> locks, unlocks;
      for (EntityId e : all) locks.push_back(b.Add(StepKind::kLock, e));
      for (EntityId e : all) unlocks.push_back(b.Add(StepKind::kUnlock, e));
      for (StepId l : locks) {
        for (StepId u : unlocks) b.Edge(l, u);
      }
      system.Add(b.Build());
    }
    d = BuildConflictGraph(system.txn(0), system.txn(1));
  }
  EXPECT_EQ(d.graph.NumNodes(), 4);
  EXPECT_EQ(d.graph.NumArcs(), 12);  // complete digraph
  EXPECT_TRUE(IsStronglyConnected(d.graph));
}

TEST(ConflictGraph, ToStringNamesEntities) {
  PaperInstance inst = MakeFig1Instance();
  ConflictGraph d = BuildConflictGraph(inst.system->txn(0),
                                       inst.system->txn(1));
  std::string str = ConflictGraphToString(d, *inst.db);
  EXPECT_NE(str.find("x->w"), std::string::npos);
}

// ------------------------------------------------------------------ Closure

TEST(Closure, TotalOrdersAreClosedWrtAnyDominator) {
  // The paper: "two total orders are closed with respect to any dominator
  // of D(t1,t2)". Check on the Fig. 2 pair.
  PaperInstance inst = MakeFig2Instance();
  ConflictGraph d = BuildConflictGraph(inst.system->txn(0),
                                       inst.system->txn(1));
  for (const auto& dom : AllDominators(d.graph, 64)) {
    EXPECT_TRUE(IsClosedWithRespectTo(inst.system->txn(0),
                                      inst.system->txn(1),
                                      d.EntitiesOf(dom)));
  }
}

TEST(Closure, RejectsNonDominator) {
  PaperInstance inst = MakeFig1Instance();
  EntityId w = inst.db->Find("w").value();
  // {w} has the incoming arc (x, w): not a dominator.
  auto result = CloseWithRespectTo(inst.system->txn(0), inst.system->txn(1),
                                   {w});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().ToString(),
            reference::CloseWithRespectTo(inst.system->txn(0),
                                          inst.system->txn(1), {w})
                .status()
                .ToString());
}

TEST(Closure, RejectsNonCommonEntity) {
  PaperInstance inst = MakeFig1Instance();
  EntityId y = inst.db->Find("y").value();  // locked by neither
  auto result = CloseWithRespectTo(inst.system->txn(0), inst.system->txn(1),
                                   {y});
  EXPECT_FALSE(result.ok());
}

TEST(Closure, ConvergesOnTwoSitePairs) {
  PaperInstance inst = MakeFig3Instance();
  ConflictGraph d = BuildConflictGraph(inst.system->txn(0),
                                       inst.system->txn(1));
  auto dom = FindDominator(d.graph);
  ASSERT_TRUE(dom.ok());
  auto closed = CloseWithRespectTo(inst.system->txn(0), inst.system->txn(1),
                                   d.EntitiesOf(dom.value()));
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_TRUE(IsClosedWithRespectTo(closed->t1, closed->t2,
                                    d.EntitiesOf(dom.value())));
  auto ref = reference::CloseWithRespectTo(
      inst.system->txn(0), inst.system->txn(1), d.EntitiesOf(dom.value()));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(closed->t1.ToString(), ref->t1.ToString());
  EXPECT_EQ(closed->t2.ToString(), ref->t2.ToString());
  EXPECT_EQ(closed->iterations, ref->iterations);
  EXPECT_EQ(closed->precedences_added, ref->precedences_added);
}

TEST(Closure, AddedPrecedencesExtendTheOriginals) {
  PaperInstance inst = MakeFig3Instance();
  ConflictGraph d = BuildConflictGraph(inst.system->txn(0),
                                       inst.system->txn(1));
  auto dom = FindDominator(d.graph);
  ASSERT_TRUE(dom.ok());
  auto closed = CloseWithRespectTo(inst.system->txn(0), inst.system->txn(1),
                                   d.EntitiesOf(dom.value()));
  ASSERT_TRUE(closed.ok());
  // Every original precedence survives.
  const Transaction& orig = inst.system->txn(0);
  for (StepId a = 0; a < orig.NumSteps(); ++a) {
    for (StepId b = 0; b < orig.NumSteps(); ++b) {
      if (a != b && orig.Precedes(a, b)) {
        EXPECT_TRUE(closed->t1.Precedes(a, b));
      }
    }
  }
}

// -------------------------------------------------------------- Certificate

TEST(Certificate, BuildsVerifiedWitnessForFig1) {
  PaperInstance inst = MakeFig1Instance();
  auto cert = CertifyFirstDominator(inst.system->txn(0),
                                    inst.system->txn(1));
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  EXPECT_TRUE(VerifyUnsafetyCertificate(inst.system->txn(0),
                                        inst.system->txn(1), *cert)
                  .ok());
  // The certificate schedule is legal for the ORIGINAL partial orders too.
  TransactionSystem originals(inst.db.get());
  originals.Add(inst.system->txn(0));
  originals.Add(inst.system->txn(1));
  EXPECT_TRUE(CheckScheduleLegal(originals, cert->schedule).ok());
  EXPECT_FALSE(IsSerializable(originals, cert->schedule));
}

TEST(Certificate, VerifyRejectsTamperedSchedule) {
  PaperInstance inst = MakeFig1Instance();
  auto cert = CertifyFirstDominator(inst.system->txn(0),
                                    inst.system->txn(1));
  ASSERT_TRUE(cert.ok());
  // Replace the schedule with a serial one: verification must fail.
  UnsafetyCertificate tampered = *cert;
  TransactionSystem pair(inst.db.get());
  pair.Add(tampered.t1);
  pair.Add(tampered.t2);
  tampered.schedule = SerialSchedule(pair, {0, 1}).value();
  EXPECT_FALSE(VerifyUnsafetyCertificate(inst.system->txn(0),
                                         inst.system->txn(1), tampered)
                   .ok());
}

TEST(Certificate, VerifyRejectsNonExtensionOrders) {
  PaperInstance inst = MakeFig1Instance();
  auto cert = CertifyFirstDominator(inst.system->txn(0),
                                    inst.system->txn(1));
  ASSERT_TRUE(cert.ok());
  UnsafetyCertificate tampered = *cert;
  std::reverse(tampered.order1.begin(), tampered.order1.end());
  EXPECT_FALSE(VerifyUnsafetyCertificate(inst.system->txn(0),
                                         inst.system->txn(1), tampered)
                   .ok());
}

TEST(Certificate, FromExtensionsFailsOnSafePair) {
  PaperInstance inst = MakeFig2Instance();
  // Use an extension pair whose D is strongly connected: t1 with itself
  // reversed roles... simplest: a strongly-2PL style total pair.
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  TransactionSystem system(&db);
  for (const char* name : {"t1", "t2"}) {
    TransactionBuilder b(&db, name);
    b.Lock("x");
    b.Lock("y");
    b.Unlock("x");
    b.Unlock("y");
    system.Add(b.Build());
  }
  std::vector<StepId> order = {0, 1, 2, 3};
  auto cert = BuildCertificateFromExtensions(system.txn(0), system.txn(1),
                                             order, order);
  ASSERT_FALSE(cert.ok());
  EXPECT_EQ(cert.status().code(), StatusCode::kNotFound);
}

TEST(Certificate, ToStringMentionsDominatorAndSchedule) {
  PaperInstance inst = MakeFig1Instance();
  auto cert = CertifyFirstDominator(inst.system->txn(0),
                                    inst.system->txn(1));
  ASSERT_TRUE(cert.ok());
  std::string str = CertificateToString(*cert, *inst.db);
  EXPECT_NE(str.find("dominator X"), std::string::npos);
  EXPECT_NE(str.find("schedule:"), std::string::npos);
}

}  // namespace
}  // namespace dislock
