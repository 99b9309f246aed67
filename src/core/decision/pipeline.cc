#include "core/decision/pipeline.h"

#include <chrono>
#include <utility>

#include "core/conflict_graph.h"
#include "core/wire_keys.h"
#include "graph/scc.h"
#include "obs/trace.h"

namespace dislock {

void DecisionPipeline::Add(std::unique_ptr<DecisionProcedure> stage) {
  stages_.push_back(std::move(stage));
}

std::vector<std::string> DecisionPipeline::StageNames() const {
  std::vector<std::string> names;
  names.reserve(stages_.size());
  for (const auto& stage : stages_) names.emplace_back(stage->name());
  return names;
}

DecisionPipeline DecisionPipeline::MakeDefault() {
  DecisionPipeline pipeline;
  pipeline.Add(MakeTheorem1SccStage());
  pipeline.Add(MakeTheorem2TwoSiteStage());
  pipeline.Add(MakeCorollary2ClosureStage());
  pipeline.Add(MakeBruteForceLemma1Stage());
  return pipeline;
}

const DecisionPipeline& DecisionPipeline::Default() {
  static const DecisionPipeline* kDefault =
      new DecisionPipeline(MakeDefault());
  return *kDefault;
}

PairSafetyReport DecisionPipeline::Decide(const Transaction& t1,
                                          const Transaction& t2,
                                          EngineContext* ctx) const {
  PairSafetyReport report;
  report.sites_spanned = SitesSpanned(t1, t2);
  report.d = BuildConflictGraph(t1, t2);

  const EngineConfig& config = ctx->config();
  report.d_strongly_connected = IsStronglyConnected(report.d.graph);
  // The detail of the last undecided stage that had one (e.g. a
  // ResourceExhausted status string) becomes the report detail when the
  // whole cascade comes up empty — matching the legacy cascade, where each
  // failing fallback overwrote the previous diagnostic.
  std::string last_undecided_detail;
  bool decided = false;
  for (size_t i = 0; i < stages_.size(); ++i) {
    const DecisionProcedure& stage = *stages_[i];
    StageCounters& counters = report.pipeline.at(stage.stage());
    if (decided || ctx->cancel_token()->cancelled() ||
        !stage.Applicable(report, config)) {
      counters.skipped += 1;
      continue;
    }
    counters.attempts += 1;
    // One span per attempted stage, named "stage.<wire name>" — the CI
    // trace smoke step checks that every stage with attempts > 0 in the
    // report also shows up in the trace.
    obs::TraceSpan span(
        ctx->trace(),
        wire::kStageSpanNames[static_cast<int>(stage.stage())]);
    const auto started = std::chrono::steady_clock::now();
    StageOutcome outcome = stage.Decide(t1, t2, report, ctx);
    counters.wall_ms +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - started)
            .count();
    counters.work += outcome.work;
    if (outcome.budget_exhausted) counters.budget_exhausted += 1;
    if (outcome.decided) {
      counters.decided += 1;
      decided = true;
      report.verdict = outcome.verdict;
      report.method = outcome.method;
      report.certificate = std::move(outcome.certificate);
      report.detail = std::move(outcome.detail);
    } else if (!outcome.detail.empty()) {
      last_undecided_detail = std::move(outcome.detail);
    }
  }
  if (!decided) {
    report.verdict = SafetyVerdict::kUnknown;
    report.method = DecisionMethod::kNone;
    report.detail =
        !last_undecided_detail.empty()
            ? std::move(last_undecided_detail)
            : (ctx->cancel_token()->cancelled()
                   ? std::string("analysis cancelled")
                   : std::string(
                         "three or more sites and exhaustive fallback "
                         "disabled"));
  }
  return report;
}

}  // namespace dislock
