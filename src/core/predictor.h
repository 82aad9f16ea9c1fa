// Daydream's top-level what-if API (Figure 2 workflow).
//
//   Trace trace = ...;                       // Phase 1: collected profile
//   Daydream dd(trace);                      // Phase 2: dependency graph
//   PredictionResult r = dd.Predict([](DependencyGraph& g) {
//     WhatIfAmp(&g);                         // Phase 3: graph transformation
//   });                                      // Phase 4: simulation
//   r.predicted / r.SpeedupPct() ...
//
// Phases 3 and 4 are one staged pipeline, run by Predict here, by
// TraceSession::Predict (the CLI and `daydream serve`) and by SweepRunner:
//
//   Prepare:  clone the baseline graph, transform it, lint it, and freeze it
//             into a SimPlan — SimPlan::Retime over the baseline plan's
//             structure block when the transform only edited timings, a full
//             compile otherwise. The clone is freed before Prepare returns.
//   Dispatch: run the plan, serially or sharded (RunPlanParallel).
//
// SweepRunner overlaps one case's Prepare with another's Dispatch. Both
// stages report a WhatIfStatus plus the lint report instead of aborting; the
// callers turn a failure into an abort, an exit code or an error envelope.
#ifndef SRC_CORE_PREDICTOR_H_
#define SRC_CORE_PREDICTOR_H_

#include <functional>

#include "src/core/dependency_graph.h"
#include "src/core/graph_builder.h"
#include "src/core/graph_lint.h"
#include "src/core/sim_plan.h"
#include "src/core/simulator.h"
#include "src/trace/trace.h"
#include "src/util/deadline.h"

namespace daydream {

struct PredictionResult {
  TimeNs baseline = 0;   // simulated makespan of the untransformed graph
  TimeNs predicted = 0;  // simulated makespan after the transformation

  double SpeedupPct() const;   // (baseline - predicted) / baseline * 100
  double SpeedupRatio() const; // baseline / predicted
};

class ThreadPool;

// How a what-if left the pipeline. Every lint status comes with the failing
// LintReport.
enum class WhatIfStatus {
  kOk,
  kInvalidGraph,        // structural lint failed: the graph cannot be simulated
  kFailsLint,           // validating: the full GraphLint catalog found errors
  kInconsistentPlan,    // validating: LintPlan found errors
  kInconsistentShards,  // validating a sharded dispatch: LintShards found errors
  kDeadlineExceeded,    // after the transform, or between shard horizons
};

// The words a diagnostic puts after the what-if's name: "produced an invalid
// graph", "fails lint", "compiled an inconsistent plan", ...
const char* WhatIfStatusPhrase(WhatIfStatus status);

// How one what-if is prepared and dispatched.
struct WhatIfOptions {
  // Strict mode (`--validate`): the full lint catalog instead of the
  // structural passes, plus LintPlan, plus LintShards when sim_jobs > 1.
  bool validate = false;
  // Shards for the plan dispatch (RunPlanParallel; 1 = the serial engine).
  int sim_jobs = 1;
  // Checked once the transformed graph has passed lint, and between shard
  // horizons of a sharded dispatch. Unbounded by default.
  Deadline deadline;
};

// A transformed graph frozen into a plan; the graph itself is gone.
struct PreparedWhatIf {
  SimPlan plan;
  int tasks = 0;         // alive tasks in the transformed graph
  bool retimed = false;  // the plan shares the baseline plan's structure block
};

class Daydream {
 public:
  explicit Daydream(Trace trace, GraphBuildOptions options = GraphBuildOptions{});

  // Adopts a dependency graph that was already built for `trace` and passed
  // GraphLint::LintStructure — the service layer builds and lints the graph
  // first so it can refuse a malformed trace with a lint report instead of
  // aborting mid-construction, then hands the verified graph over without
  // paying a second build or a second lint. A graph built without a trace
  // (a benchmark's replicated cluster) comes with an empty one.
  Daydream(Trace trace, DependencyGraph graph);

  const Trace& trace() const { return trace_; }
  const DependencyGraph& graph() const { return graph_; }
  // Cheap per-what-if copy (DependencyGraph::Clone): dead-node payloads are
  // compacted, insertion headroom is reserved, and the interned thread table
  // plus warm select indexes are carried over instead of being rebuilt.
  DependencyGraph CloneGraph() const { return graph_.Clone(); }

  // The baseline graph compiled once for the default scheduler ("profile
  // once"): Prepare retimes it for timing-only what-ifs, sharing its
  // structure block instead of recompiling.
  const SimPlan& baseline_plan() const { return baseline_plan_; }

  // Simulated makespan of the baseline graph — should reproduce the measured
  // iteration time (validated in tests).
  TimeNs BaselineSimTime() const;

  // Applies `transform` to a copy of the graph and simulates it: Prepare then
  // Dispatch, aborting on a graph that fails lint. Debug builds validate (see
  // WhatIfOptions::validate), so a transform that wires an anchor backward
  // across iterations fails here, naming the edge, not as a wrong prediction.
  PredictionResult Predict(const std::function<void(DependencyGraph*)>& transform) const;

  // The prepare stage (see the file comment). A null `transform` prepares the
  // baseline itself. *report receives the lint findings: the graph passes,
  // then, when validating, the plan and shard passes. Safe to call
  // concurrently: the baseline is only read.
  WhatIfStatus Prepare(const std::function<void(DependencyGraph*)>& transform,
                       const WhatIfOptions& options, PreparedWhatIf* prepared,
                       LintReport* report) const;

  // The dispatch stage: *predicted is the plan's makespan. `pool` optionally
  // carries the shard workers when options.sim_jobs > 1 (null spawns a
  // private pool for the call).
  static WhatIfStatus Dispatch(const PreparedWhatIf& prepared, const WhatIfOptions& options,
                               ThreadPool* pool, TimeNs* predicted);

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
