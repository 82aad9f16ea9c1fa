#include "src/core/predictor.h"

#include <utility>

#include "src/core/graph_lint.h"
#include "src/util/logging.h"

namespace daydream {

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

PredictionResult Daydream::Predict(const std::function<void(DependencyGraph*)>& transform,
                                   std::shared_ptr<Scheduler> scheduler, EngineKind engine) const {
  DependencyGraph transformed = graph_.Clone();
  transform(&transformed);
#ifndef NDEBUG
  // Debug/test builds hold every what-if output to the full lint catalog —
  // timing passes included — so a transform that wires an anchor backward
  // across iterations fails here, naming the edge, not as a wrong prediction.
  const LintReport report = GraphLint::LintGraph(transformed);
  DD_CHECK(report.ok()) << "what-if transform produced a graph that fails lint:\n"
                        << report.ToString();
#endif
  return Evaluate(transformed, std::move(scheduler), engine);
}

PredictionResult Daydream::Evaluate(const DependencyGraph& transformed,
                                    std::shared_ptr<Scheduler> scheduler,
                                    EngineKind engine) const {
  std::string error;
  DD_CHECK(transformed.Validate(&error)) << "transformed graph invalid: " << error;
  const Simulator simulator =
      scheduler == nullptr ? Simulator(std::make_shared<EarliestStartScheduler>(), engine)
                           : Simulator(std::move(scheduler), engine);
  PredictionResult result;
  result.baseline = baseline_sim_;
  if (engine == EngineKind::kEvent && simulator.scheduler()->comparator_based()) {
    // A clone whose transform only edited timings retimes the baseline plan
    // (shared structure block) instead of recompiling the CSR arrays.
    result.predicted = simulator.Compile(transformed, &baseline_plan_).Run().makespan;
  } else {
    result.predicted = simulator.Run(transformed).makespan;
  }
  return result;
}

}  // namespace daydream
