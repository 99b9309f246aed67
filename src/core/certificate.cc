#include "core/certificate.h"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

#include "core/conflict_graph.h"
#include "graph/dominator.h"
#include "graph/scc.h"
#include "graph/topological.h"
#include "txn/linear_extension.h"
#include "util/string_util.h"

namespace dislock {

namespace {

/// Tries to turn the total-order pair into a non-serializable schedule by
/// separating `x_set` rectangles from the rest, in either orientation.
Result<Schedule> SeparateByPartition(const PairPicture& pic,
                                     const std::set<EntityId>& x_set) {
  std::vector<EntityId> xs, rest;
  for (const Rect& r : pic.rects()) {
    if (x_set.count(r.entity) > 0) {
      xs.push_back(r.entity);
    } else {
      rest.push_back(r.entity);
    }
  }
  if (xs.empty() || rest.empty()) {
    return Status::InvalidArgument("partition does not split the rectangles");
  }
  // Orientation 1 (proof of Theorem 2): X-rectangles on one side of the
  // curve, the rest on the other. Try both orientations.
  auto curve = FindSeparatingCurve(pic, /*pass_above=*/rest,
                                   /*pass_below=*/xs);
  if (!curve.ok()) {
    curve = FindSeparatingCurve(pic, /*pass_above=*/xs,
                                /*pass_below=*/rest);
  }
  if (!curve.ok()) {
    return Status::NotFound("no curve separates this partition");
  }
  return CurveToSchedule(pic, curve.value());
}

/// Streams the first 512 dominators of `d`, as entity sets, to `accept`;
/// true at the first it accepts.
bool AnyDominator(const ConflictGraph& d,
                  const std::function<bool(const std::set<EntityId>&)>& accept) {
  int64_t seen = 0;
  bool found = false;
  EnumerateDominators(d.graph, [&](const std::vector<NodeId>& dom_nodes) {
    std::set<EntityId> x_set;
    for (NodeId v : dom_nodes) x_set.insert(d.entities[v]);
    found = accept(x_set);
    return !found && ++seen < 512;
  });
  return found;
}

}  // namespace

Result<UnsafetyCertificate> BuildUnsafetyCertificate(
    const Transaction& t1, const Transaction& t2,
    const std::vector<EntityId>& dominator, const ClosureResult& closed) {
  // Step 1, closing {T1, T2} with respect to X, is the caller's `closed`.
  const std::set<EntityId> x_set(dominator.begin(), dominator.end());

  // Step 2a: total order of the closed T1, emitting Ux (x in X) as early as
  // possible — each X-unlock is preceded by exactly its ancestors (and
  // earlier X-unlocks with theirs).
  std::vector<StepId> x_unlocks1;
  for (StepId s = 0; s < closed.t1.NumSteps(); ++s) {
    const Step& step = closed.t1.GetStep(s);
    if (step.kind == StepKind::kUnlock && x_set.count(step.entity) > 0) {
      x_unlocks1.push_back(s);
    }
  }
  auto order1 = AncestorFirstTopologicalSort(closed.t1.order(), x_unlocks1);
  if (!order1.ok()) {
    return Status::Internal("closed T1 became cyclic");
  }
  std::vector<int> pos1(closed.t1.NumSteps(), 0);
  for (size_t i = 0; i < order1.value().size(); ++i) {
    pos1[order1.value()[i]] = static_cast<int>(i);
  }

  // Step 2b: total order of the closed T2, emitting Lx (x in X) as late as
  // possible, with Lx before Lx' whenever Ux came before Ux' in t1. "As
  // late as possible" = as early as possible in the REVERSED order, with
  // the priority list reversed accordingly (latest forward lock first).
  std::vector<StepId> x_locks2;
  for (StepId s = 0; s < closed.t2.NumSteps(); ++s) {
    const Step& step = closed.t2.GetStep(s);
    if (step.kind == StepKind::kLock && x_set.count(step.entity) > 0) {
      x_locks2.push_back(s);
    }
  }
  std::sort(x_locks2.begin(), x_locks2.end(), [&](StepId a, StepId b) {
    StepId ua = closed.t1.UnlockStep(closed.t2.GetStep(a).entity);
    StepId ub = closed.t1.UnlockStep(closed.t2.GetStep(b).entity);
    if (ua != kInvalidStep && ub != kInvalidStep && ua != ub) {
      return pos1[ua] > pos1[ub];  // latest t1 unlock first (reversed)
    }
    return a > b;
  });
  auto rev_order2 = AncestorFirstTopologicalSort(
      ReverseOf(closed.t2.order()), x_locks2);
  if (!rev_order2.ok()) {
    return Status::Internal("closed T2 became cyclic");
  }
  std::vector<NodeId> order2(rev_order2.value().rbegin(),
                             rev_order2.value().rend());

  // Step 3: materialize the total orders against the ORIGINAL transactions
  // (the closure only added precedences, so these are linear extensions of
  // the originals too) and look for the separating curve.
  UnsafetyCertificate cert{dominator,
                           t1,  // placeholders, replaced below
                           t2,
                           {order1.value().begin(), order1.value().end()},
                           {order2.begin(), order2.end()},
                           Schedule(),
                           SeparationWitness{}};
  DISLOCK_ASSIGN_OR_RETURN(cert.t1, Linearize(t1, cert.order1));
  DISLOCK_ASSIGN_OR_RETURN(cert.t2, Linearize(t2, cert.order2));
  cert.t1.set_name(t1.name() + "~t");
  cert.t2.set_name(t2.name() + "~t");

  DISLOCK_ASSIGN_OR_RETURN(PairPicture pic,
                           PairPicture::Make(cert.t1, cert.t2));
  auto schedule = SeparateByPartition(pic, x_set);
  if (!schedule.ok()) {
    // Fallback: the paper shows two total orders are closed with respect to
    // ANY dominator of their own D graph, so search those.
    AnyDominator(BuildConflictGraph(cert.t1, cert.t2),
                 [&](const std::set<EntityId>& alt) {
                   schedule = SeparateByPartition(pic, alt);
                   if (!schedule.ok()) return false;
                   cert.dominator.assign(alt.begin(), alt.end());
                   return true;
                 });
  }
  if (!schedule.ok()) {
    return Status::Undecided(
        "no separating curve exists for any dominator of the constructed "
        "total orders (possible only with three or more sites)");
  }
  cert.schedule = std::move(schedule).value();
  auto separation = FindSeparation(pic, cert.schedule);
  if (!separation.has_value()) {
    return Status::Internal("separating curve produced no separation");
  }
  cert.separation = *separation;

  DISLOCK_RETURN_NOT_OK(VerifyUnsafetyCertificate(t1, t2, cert));
  return cert;
}

Result<UnsafetyCertificate> BuildCertificateFromExtensions(
    const Transaction& t1, const Transaction& t2,
    const std::vector<StepId>& order1, const std::vector<StepId>& order2) {
  UnsafetyCertificate cert{{},           t1, t2, order1, order2,
                           Schedule(),   SeparationWitness{}};
  DISLOCK_ASSIGN_OR_RETURN(cert.t1, Linearize(t1, order1));
  DISLOCK_ASSIGN_OR_RETURN(cert.t2, Linearize(t2, order2));
  cert.t1.set_name(t1.name() + "~t");
  cert.t2.set_name(t2.name() + "~t");
  DISLOCK_ASSIGN_OR_RETURN(PairPicture pic,
                           PairPicture::Make(cert.t1, cert.t2));
  ConflictGraph d = BuildConflictGraph(cert.t1, cert.t2);
  if (IsStronglyConnected(d.graph)) {
    return Status::NotFound(
        "D(t1, t2) is strongly connected; this total-order pair is safe");
  }
  const bool found = AnyDominator(d, [&](const std::set<EntityId>& x_set) {
    auto schedule = SeparateByPartition(pic, x_set);
    if (!schedule.ok()) return false;
    cert.dominator.assign(x_set.begin(), x_set.end());
    cert.schedule = std::move(schedule).value();
    auto separation = FindSeparation(pic, cert.schedule);
    if (!separation.has_value()) return false;
    cert.separation = *separation;
    return true;
  });
  if (found) {
    DISLOCK_RETURN_NOT_OK(VerifyUnsafetyCertificate(t1, t2, cert));
    return cert;
  }
  return Status::Internal(
      "no dominator of a non-strongly-connected D(t1, t2) admits a "
      "separating curve; this contradicts the theory for total orders");
}

Status VerifyUnsafetyCertificate(const Transaction& t1, const Transaction& t2,
                                 const UnsafetyCertificate& cert) {
  if (!IsLinearExtension(t1, cert.order1)) {
    return Status::InvalidArgument(
        "certificate t1 is not a linear extension of T1");
  }
  if (!IsLinearExtension(t2, cert.order2)) {
    return Status::InvalidArgument(
        "certificate t2 is not a linear extension of T2");
  }
  TransactionSystem pair = MakePairSystem(cert.t1, cert.t2);
  DISLOCK_RETURN_NOT_OK(CheckScheduleLegal(pair, cert.schedule));
  if (IsSerializable(pair, cert.schedule)) {
    return Status::InvalidArgument("certificate schedule is serializable");
  }
  return Status::OK();
}

std::string CertificateToString(const UnsafetyCertificate& cert,
                                const DistributedDatabase& db) {
  std::ostringstream out;
  out << "Unsafety certificate\n  dominator X = {";
  for (size_t i = 0; i < cert.dominator.size(); ++i) {
    if (i > 0) out << ", ";
    out << db.NameOf(cert.dominator[i]);
  }
  out << "}\n  t1:";
  for (StepId s : cert.order1) out << " " << cert.t1.StepString(s);
  out << "\n  t2:";
  for (StepId s : cert.order2) out << " " << cert.t2.StepString(s);
  TransactionSystem pair = MakePairSystem(cert.t1, cert.t2);
  out << "\n  schedule: " << cert.schedule.ToString(pair);
  out << "\n  separates: " << db.NameOf(cert.separation.above)
      << " (above) from " << db.NameOf(cert.separation.below) << " (below)\n";
  return out.str();
}

}  // namespace dislock
