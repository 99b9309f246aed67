#include "core/incremental/store.h"

#include <algorithm>

namespace dislock {

std::vector<TxnId> CanonicalCycleKey(const std::vector<TxnId>& cycle) {
  auto min_it = std::min_element(cycle.begin(), cycle.end());
  std::vector<TxnId> key;
  key.reserve(cycle.size());
  key.insert(key.end(), min_it, cycle.end());
  key.insert(key.end(), cycle.begin(), min_it);
  return key;
}

void VerdictStore::Invalidate(const std::unordered_set<TxnId>& edited) {
  if (edited.empty()) return;
  for (auto it = pairs.begin(); it != pairs.end();) {
    if (edited.count(it->first.first) != 0 ||
        edited.count(it->first.second) != 0) {
      it = pairs.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = cycles.begin(); it != cycles.end();) {
    bool touched = false;
    for (TxnId id : it->first) touched = touched || edited.count(id) != 0;
    if (touched) {
      it = cycles.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace dislock
