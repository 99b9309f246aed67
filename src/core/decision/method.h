#ifndef DISLOCK_CORE_DECISION_METHOD_H_
#define DISLOCK_CORE_DECISION_METHOD_H_

namespace dislock {

/// Which of the paper's results decided a pair. A pipeline *stage* may map
/// to more than one method: the Corollary 2 closure stage reports
/// kCorollary2 when a closed dominator certifies unsafety and
/// kDominatorClosure when the exhausted enumeration proves safety.
enum class DecisionMethod {
  kNone = 0,           ///< undecided (the coNP-complete regime, over budget)
  kTheorem1,           ///< D strongly connected -> safe (any sites)
  kTheorem2,           ///< the complete <= 2-site procedure
  kCorollary2,         ///< a dominator's closure converged -> unsafe
  kDominatorClosure,   ///< every dominator provably fails -> safe
  kExhaustive,         ///< Lemma 1 enumeration of extension pairs
};

/// Stable wire name: "none", "theorem-1", "theorem-2", "corollary-2",
/// "dominator-closure", "exhaustive". These strings are
/// part of the JSON/report contract (golden-tested).
const char* DecisionMethodName(DecisionMethod method);

}  // namespace dislock

#endif  // DISLOCK_CORE_DECISION_METHOD_H_
