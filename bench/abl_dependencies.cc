// Ablation: how much each of the five dependency types (§4.2.2) matters.
//
// We rebuild the dependency graph with one ingredient removed at a time and
// measure how badly the baseline *replay* (simulating the untransformed
// graph) diverges from the measured iteration. The full construction should
// replay within a fraction of a percent; dropping ingredients should visibly
// break fidelity — the paper's argument for needing all of them.
#include <iostream>

#include "bench/bench_util.h"
#include "src/core/graph_builder.h"
#include "src/core/simulator.h"
#include "src/core/transform.h"
#include "src/runtime/ground_truth.h"
#include "src/util/csv.h"
#include "src/util/stats.h"
#include "src/util/table.h"

using namespace daydream;

namespace {

double ReplayError(const DependencyGraph& graph, const Trace& trace) {
  const SimResult sim = Simulator().Run(graph);
  return RelErrorPct(static_cast<double>(sim.makespan), static_cast<double>(trace.makespan()));
}

// Remove all launch->kernel correlation edges (dependency type 3).
void DropCorrelationEdges(DependencyGraph* g) {
  for (TaskId gpu : g->Select(IsOnGpu())) {
    for (TaskId p : ToVector(g->parents(gpu))) {
      if (g->task(p).is_cpu()) {
        g->RemoveEdge(p, gpu);
      }
    }
  }
}

// Remove GPU->CPU synchronization edges (dependency type 4).
void DropSyncEdges(DependencyGraph* g) {
  for (TaskId cpu : g->Select(IsOnCpu())) {
    for (TaskId p : ToVector(g->parents(cpu))) {
      if (g->task(p).is_gpu()) {
        g->RemoveEdge(p, cpu);
      }
    }
  }
}

// Drop all gaps (the §4.2.1 mechanism).
void DropGaps(DependencyGraph* g) {
  for (TaskId id : g->AliveTasks()) {
    g->task(id).gap = 0;
  }
}

}  // namespace

int main() {
  BenchHeader("Ablation: dependency types (§4.2.2)",
              "full construction replays the measured run; each ingredient is load-bearing");

  TablePrinter table({"model", "full graph", "no launch->kernel", "no GPU->CPU sync",
                      "no gaps", "no sync & no gaps"});
  CsvWriter csv = OpenBenchCsv("abl_dependencies.csv",
                {"model", "full_pct", "no_correlation_pct", "no_sync_pct", "no_gaps_pct",
                 "no_sync_no_gaps_pct"});

  for (ModelId model : {ModelId::kResNet50, ModelId::kGnmt, ModelId::kBertLarge}) {
    const Trace trace = CollectBaselineTrace(DefaultRunConfig(model));
    const DependencyGraph full = BuildDependencyGraph(trace);

    DependencyGraph no_corr = full;
    DropCorrelationEdges(&no_corr);
    DependencyGraph no_sync = full;
    DropSyncEdges(&no_sync);
    DependencyGraph no_gaps = full;
    DropGaps(&no_gaps);
    DependencyGraph no_both = full;
    DropSyncEdges(&no_both);
    DropGaps(&no_both);

    const double e_full = ReplayError(full, trace);
    const double e_corr = ReplayError(no_corr, trace);
    const double e_sync = ReplayError(no_sync, trace);
    const double e_gaps = ReplayError(no_gaps, trace);
    const double e_both = ReplayError(no_both, trace);
    table.AddRow({ModelName(model), FmtPct(e_full), FmtPct(e_corr), FmtPct(e_sync),
                  FmtPct(e_gaps), FmtPct(e_both)});
    csv.AddRow({ModelName(model), StrFormat("%.3f", e_full), StrFormat("%.3f", e_corr),
                StrFormat("%.3f", e_sync), StrFormat("%.3f", e_gaps),
                StrFormat("%.3f", e_both)});
  }
  table.Print(std::cout);
  std::cout << "\n(replay error vs the measured iteration; <0.5% with the full graph)\n";
  return 0;
}
