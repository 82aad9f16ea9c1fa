// Custom what-if modeling with the raw primitives (§4.4).
//
// The built-in optimization models cover the paper's ten techniques, but the
// primitives compose into arbitrary what-ifs. Three examples on BERT base:
//   1. "What if my framework's Python overhead halved?"  (gap scaling)
//   2. "What if every elementwise kernel pair were fused?" (Select + Remove)
//   3. "What if the GPU had 2x memory bandwidth?"          (class-based shrink)
#include <iostream>

#include "src/core/predictor.h"
#include "src/core/transform.h"
#include "src/runtime/ground_truth.h"
#include "src/util/string_util.h"
#include "src/util/table.h"

using namespace daydream;

int main() {
  const Trace profile = CollectBaselineTrace(DefaultRunConfig(ModelId::kBertBase));
  Daydream daydream(profile);
  TablePrinter table({"custom what-if (BERT base)", "predicted (ms)", "speedup"});
  auto report = [&](const std::string& name, const PredictionResult& r) {
    table.AddRow({name, StrFormat("%.1f", ToMs(r.predicted)),
                  StrFormat("%.1f%%", r.SpeedupPct())});
  };

  report(StrFormat("baseline (simulated)"),
         PredictionResult{daydream.BaselineSimTime(), daydream.BaselineSimTime()});

  // 1. Halve the framework gaps: a faster CPU or a leaner framework. The gap
  //    field is exactly where that overhead lives (§4.2.1).
  report("framework overhead / 2", daydream.Predict([](DependencyGraph* g) {
    for (TaskId id : g->Select(IsOnCpu())) {
      g->task(id).gap /= 2;
    }
  }));

  // 2. Fuse adjacent elementwise kernels pairwise: every second elementwise
  //    GPU task (and its launch) is removed; the survivor absorbs the cost of
  //    one extra memory pass avoided (here: keeps its own duration — fusion
  //    saves the launch + one read/write round trip of the removed kernel).
  report("pairwise elementwise fusion", daydream.Predict([](DependencyGraph* g) {
    const std::vector<TaskId> elementwise =
        g->Select(All(IsOnGpu(), NameContains("elementwise")));
    for (size_t i = 1; i < elementwise.size(); i += 2) {
      const TaskId victim = elementwise[i];
      // Remove the victim's launch too — that is where the CPU time goes.
      for (TaskId p : ToVector(g->parents(victim))) {
        if (g->task(p).is_cpu() && g->task(p).api == ApiKind::kLaunchKernel) {
          g->Remove(p);
        }
      }
      // The surviving neighbour does the fused work: half the removed cost.
      g->task(elementwise[i - 1]).duration += g->task(victim).duration / 2;
      g->Remove(victim);
    }
  }));

  // 3. Double memory bandwidth: memory-bound kernels (everything that is not
  //    a gemm/convolution) halve; compute-bound kernels are untouched.
  report("2x memory bandwidth", daydream.Predict([](DependencyGraph* g) {
    ShrinkBy(g,
             g->Select(All(IsOnGpu(),
                           Not(Any(NameContains("sgemm"), NameContains("scudnn"))))),
             2.0);
  }));

  // 4. Infinitely fast GPU — the classic COZ-style upper bound: how much of
  //    the iteration is not GPU-limited at all?
  report("infinitely fast GPU", daydream.Predict([](DependencyGraph* g) {
    SetDurations(g, g->Select(IsOnGpu()), 0);
  }));

  table.Print(std::cout);
  std::cout << "\nEach what-if is a few lines of Select/Shrink/Insert/Remove on the "
               "dependency graph.\n";
  return 0;
}
