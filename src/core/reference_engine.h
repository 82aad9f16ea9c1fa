// The literal Algorithm-1 transcription: one linear scan over the frontier per
// dispatch (O(N·F) on the wide graphs the distributed and P3 what-ifs
// produce). It is the differential-testing oracle for the compiled-plan event
// engine (src/core/sim_plan.h) and lives in the test/bench-only library
// daydream_testing, next to the lint corruptors, so shipping code cannot link
// it.
#ifndef SRC_CORE_REFERENCE_ENGINE_H_
#define SRC_CORE_REFERENCE_ENGINE_H_

#include "src/core/dependency_graph.h"
#include "src/core/simulator.h"

namespace daydream {

// Simulates `graph` by scanning the frontier for the earliest feasible task.
// Ties follow the policy's rule spelled out directly — under the priority
// policy a comm task's Task::priority descending and every other task as 0,
// then task id — never through Scheduler::TieKey, so a differential against
// a compiled plan also checks the key lowering.
SimResult RunReference(const DependencyGraph& graph,
                       const Scheduler& scheduler = EarliestStartScheduler());

}  // namespace daydream

#endif  // SRC_CORE_REFERENCE_ENGINE_H_
