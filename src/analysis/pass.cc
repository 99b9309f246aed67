#include "analysis/pass.h"

#include <algorithm>

#include "analysis/emit.h"
#include "analysis/passes.h"
#include "core/stats_export.h"
#include "core/wire_keys.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace dislock {

const PairSafetyReport& AnalysisContext::PairReport(int i, int j) {
  DISLOCK_CHECK(i != j);
  if (i > j) std::swap(i, j);
  auto it = pair_cache_.find({i, j});
  if (it == pair_cache_.end()) {
    it = pair_cache_
             .emplace(std::make_pair(i, j),
                      AnalyzePairSafety(system_.txn(i), system_.txn(j),
                                        &engine_))
             .first;
  }
  return it->second;
}

const MultiSafetyReport& AnalysisContext::MultiReport() {
  if (!multi_cache_.has_value()) {
    multi_cache_ = AnalyzeMultiSafety(system_, &engine_);
  }
  return *multi_cache_;
}

const Result<DeadlockReport>& AnalysisContext::Deadlock() {
  if (!deadlock_cache_.has_value()) {
    obs::TraceSpan span(engine_.config().trace, wire::kSpanDeadlock);
    deadlock_cache_ = AnalyzeDeadlockFreedom(
        system_, engine_.config().max_deadlock_states);
  }
  return *deadlock_cache_;
}

PipelineStats AnalysisContext::PipelineTotals() const {
  PipelineStats totals;
  for (const auto& [pair, report] : pair_cache_) {
    totals.Add(report.pipeline);
  }
  if (multi_cache_.has_value()) totals.Add(multi_cache_->pipeline);
  return totals;
}

namespace {

struct RegistryEntry {
  std::string name;
  AnalysisPassFactory factory;
};

std::vector<RegistryEntry>& Registry() {
  static std::vector<RegistryEntry>* registry =
      new std::vector<RegistryEntry>();
  return *registry;
}

// Built-in passes register lazily, on first registry access, so that no
// static-initialization-order or archive-linking tricks are needed.
void EnsureBuiltinsRegistered() {
  static const bool done = [] {
    RegisterBuiltinAnalysisPasses();
    return true;
  }();
  (void)done;
}

}  // namespace

void RegisterAnalysisPass(const std::string& name,
                          AnalysisPassFactory factory) {
  DISLOCK_CHECK(factory != nullptr);
  for (const RegistryEntry& entry : Registry()) {
    DISLOCK_CHECK(entry.name != name);
  }
  Registry().push_back({name, factory});
}

std::vector<std::string> RegisteredAnalysisPasses() {
  EnsureBuiltinsRegistered();
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const RegistryEntry& entry : Registry()) names.push_back(entry.name);
  return names;
}

Result<std::unique_ptr<AnalysisPass>> MakeAnalysisPass(
    const std::string& name) {
  EnsureBuiltinsRegistered();
  for (const RegistryEntry& entry : Registry()) {
    if (entry.name == name) return entry.factory();
  }
  return Status::NotFound(StrCat("no analysis pass named '", name, "'"));
}

Status PassManager::Add(const std::string& pass_name) {
  DISLOCK_ASSIGN_OR_RETURN(std::unique_ptr<AnalysisPass> pass,
                           MakeAnalysisPass(pass_name));
  passes_.push_back(std::move(pass));
  return Status::OK();
}

void PassManager::AddAllPasses() {
  for (const std::string& name : RegisteredAnalysisPasses()) {
    Status st = Add(name);
    DISLOCK_CHECK(st.ok());
  }
}

std::vector<std::string> PassManager::PipelineNames() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& pass : passes_) names.emplace_back(pass->name());
  return names;
}

AnalysisResult PassManager::Run(const TransactionSystem& system,
                                const AnalysisOptions& options) const {
  AnalysisContext ctx(system, options);
  AnalysisResult result;
  for (const auto& pass : passes_) {
    obs::TraceSpan span(options.trace, wire::kSpanPass);
    pass->Run(&ctx, &result.diagnostics);
    result.passes_run.emplace_back(pass->name());
  }
  result.pipeline = ctx.PipelineTotals();
  result.deadlock = ctx.TakeDeadlock();
  // The run owner exports once: aggregate counters plus, when the run had
  // a verdict cache, its hit/miss stats.
  ExportAnalysisResultStats(result, options.stats);
  if (options.stats != nullptr &&
      (options.cache != nullptr || options.enable_cache ||
       options.store != nullptr)) {
    ExportCacheStats(*ctx.engine()->cache(), options.stats);
  }
  return result;
}

AnalysisResult PassManager::Run(const CatalogSnapshot& snapshot,
                                const AnalysisOptions& options) const {
  TransactionSystem system = snapshot.Materialize();
  return Run(system, options);
}

}  // namespace dislock
