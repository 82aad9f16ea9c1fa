#include "src/core/predictor.h"

#include <utility>

#include "src/util/logging.h"

namespace daydream {

const char* WhatIfStatusPhrase(WhatIfStatus status) {
  static const char* const kPhrases[] = {  // in WhatIfStatus order
      "succeeded", "produced an invalid graph", "fails lint", "compiled an inconsistent plan",
      "compiled an inconsistent shard plan", "ran past its deadline"};
  return kPhrases[static_cast<int>(status)];
}

double PredictionResult::SpeedupPct() const {
  if (baseline == 0) {
    return 0.0;
  }
  return 100.0 * static_cast<double>(baseline - predicted) / static_cast<double>(baseline);
}

double PredictionResult::SpeedupRatio() const {
  if (predicted == 0) {
    return 0.0;
  }
  return static_cast<double>(baseline) / static_cast<double>(predicted);
}

Daydream::Daydream(Trace trace, GraphBuildOptions options)
    : trace_(std::move(trace)), graph_(BuildDependencyGraph(trace_, options)) {
  std::string error;
  DD_CHECK(graph_.Validate(&error)) << "invalid dependency graph: " << error;
  InitBaseline();
}

Daydream::Daydream(Trace trace, DependencyGraph graph)
    : trace_(std::move(trace)), graph_(std::move(graph)) {
  InitBaseline();
}

void Daydream::InitBaseline() {
  // Build the select indexes once on the baseline graph ("profile once"):
  // every per-case clone starts with warm indexes.
  graph_.EnsureSelectIndexes();
  // Compile the baseline plan once, too: the baseline simulation runs over
  // it, and its structure block is shared with every timing-only what-if.
  baseline_plan_ = Simulator().Compile(graph_);
  baseline_sim_ = baseline_plan_.Run().makespan;
}

TimeNs Daydream::BaselineSimTime() const { return baseline_sim_; }

PredictionResult Daydream::Predict(const std::function<void(DependencyGraph*)>& transform) const {
  WhatIfOptions options;
#ifndef NDEBUG
  options.validate = true;
#endif
  PreparedWhatIf prepared;
  LintReport report;
  PredictionResult result;
  result.baseline = baseline_sim_;
  WhatIfStatus status = Prepare(transform, options, &prepared, &report);
  if (status == WhatIfStatus::kOk) {
    status = Dispatch(prepared, options, nullptr, &result.predicted);
  }
  DD_CHECK(status == WhatIfStatus::kOk)
      << "what-if transform " << WhatIfStatusPhrase(status) << ":\n" << report.ToString();
  return result;
}

WhatIfStatus Daydream::Prepare(const std::function<void(DependencyGraph*)>& transform,
                               const WhatIfOptions& options, PreparedWhatIf* prepared,
                               LintReport* report) const {
  // The baseline graph supports concurrent const access, so concurrent
  // what-ifs clone it without a lock.
  DependencyGraph graph = graph_.Clone();
  if (transform) {
    transform(&graph);
  }
  // Lint before anyone compiles this graph: SimPlan::Compile DD_CHECKs on a
  // broken structure, and a daemon must refuse, not abort.
  if (options.validate) {
    *report = GraphLint::LintGraph(graph);
    if (!report->ok()) {
      return WhatIfStatus::kFailsLint;
    }
  } else {
    *report = GraphLint::LintStructure(graph);
    if (!report->ok()) {
      return WhatIfStatus::kInvalidGraph;
    }
  }
  if (options.deadline.Expired()) {
    return WhatIfStatus::kDeadlineExceeded;
  }
  prepared->tasks = graph.num_alive();
  // Timing-only transforms leave the baseline structure stamp intact, so the
  // baseline plan donates its structure block; anything else pays the full
  // CSR compile.
  const EarliestStartScheduler scheduler;
  prepared->retimed = baseline_plan_.CompatibleWith(graph);
  prepared->plan = prepared->retimed ? SimPlan::Retime(baseline_plan_, graph, scheduler)
                                     : SimPlan::Compile(graph, scheduler);
  if (options.validate) {
    // The plan (and shard) findings join the graph's in one report.
    const LintReport plan_report = GraphLint::LintPlan(prepared->plan, graph);
    report->Append(plan_report);
    if (!plan_report.ok()) {
      return WhatIfStatus::kInconsistentPlan;
    }
    if (options.sim_jobs > 1) {
      // Sharded dispatch trusts the partition/window metadata blindly. This
      // shard plan exists for the lint only: Dispatch rebuilds its own
      // against the plan's final address.
      const LintReport shard_report =
          GraphLint::LintShards(ShardPlan::Compile(prepared->plan, options.sim_jobs));
      report->Append(shard_report);
      if (!shard_report.ok()) {
        return WhatIfStatus::kInconsistentShards;
      }
    }
  }
  return WhatIfStatus::kOk;
}

WhatIfStatus Daydream::Dispatch(const PreparedWhatIf& prepared, const WhatIfOptions& options,
                                ThreadPool* pool, TimeNs* predicted) {
  // RunPlanParallel picks serial or sharded dispatch; both check the
  // deadline mid-run and stop with a partial result once it expires.
  bool deadline_hit = false;
  *predicted =
      RunPlanParallel(prepared.plan, options.sim_jobs, pool, &options.deadline, &deadline_hit)
          .makespan;
  return deadline_hit ? WhatIfStatus::kDeadlineExceeded : WhatIfStatus::kOk;
}

}  // namespace daydream
