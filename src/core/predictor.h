// Daydream's top-level what-if API (Figure 2 workflow).
//
//   Trace trace = ...;                       // Phase 1: collected profile
//   Daydream dd(trace);                      // Phase 2: dependency graph
//   PredictionResult r = dd.Predict([](DependencyGraph& g) {
//     WhatIfAmp(&g);                         // Phase 3: graph transformation
//   });                                      // Phase 4: simulation
//   r.predicted / r.SpeedupPct() ...
#ifndef SRC_CORE_PREDICTOR_H_
#define SRC_CORE_PREDICTOR_H_

#include <functional>
#include <memory>

#include "src/core/dependency_graph.h"
#include "src/core/graph_builder.h"
#include "src/core/sim_plan.h"
#include "src/core/simulator.h"
#include "src/trace/trace.h"

namespace daydream {

struct PredictionResult {
  TimeNs baseline = 0;   // simulated makespan of the untransformed graph
  TimeNs predicted = 0;  // simulated makespan after the transformation

  double SpeedupPct() const;   // (baseline - predicted) / baseline * 100
  double SpeedupRatio() const; // baseline / predicted
};

class Daydream {
 public:
  explicit Daydream(Trace trace, GraphBuildOptions options = GraphBuildOptions{});

  // Adopts a dependency graph that was already built for `trace` and passed
  // GraphLint::LintStructure — the service layer builds and lints the graph
  // first so it can refuse a malformed trace with a lint report instead of
  // aborting mid-construction, then hands the verified graph over without
  // paying a second build or a second lint.
  Daydream(Trace trace, DependencyGraph graph);

  const Trace& trace() const { return trace_; }
  const DependencyGraph& graph() const { return graph_; }
  // Cheap per-what-if copy (DependencyGraph::Clone): dead-node payloads are
  // compacted, insertion headroom is reserved, and the interned thread table
  // plus warm select indexes are carried over instead of being rebuilt.
  DependencyGraph CloneGraph() const { return graph_.Clone(); }

  // The baseline graph compiled once for the default scheduler ("profile
  // once"): Evaluate retimes it for timing-only what-ifs, and SweepRunner
  // shares its structure block across every case that leaves the graph
  // structure untouched.
  const SimPlan& baseline_plan() const { return baseline_plan_; }

  // Simulated makespan of the baseline graph — should reproduce the measured
  // iteration time (validated in tests).
  TimeNs BaselineSimTime() const;

  // Applies `transform` to a copy of the graph and simulates it.
  // `engine` selects the simulation engine (EngineKind::kReference is the
  // differential-debugging path behind `--engine=reference`).
  PredictionResult Predict(const std::function<void(DependencyGraph*)>& transform,
                           std::shared_ptr<Scheduler> scheduler = nullptr,
                           EngineKind engine = EngineKind::kEvent) const;

  // Simulates an already-transformed graph against this baseline.
  PredictionResult Evaluate(const DependencyGraph& transformed,
                            std::shared_ptr<Scheduler> scheduler = nullptr,
                            EngineKind engine = EngineKind::kEvent) const;

 private:
  // Shared tail of both constructors: warm the select indexes, compile +
  // run the baseline plan.
  void InitBaseline();

  Trace trace_;
  DependencyGraph graph_;
  SimPlan baseline_plan_;
  TimeNs baseline_sim_;
};

}  // namespace daydream

#endif  // SRC_CORE_PREDICTOR_H_
