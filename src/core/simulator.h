// Runtime simulation over the dependency graph — the paper's Algorithm 1.
//
// Traverses the graph, dispatching ready ("frontier") tasks onto their
// execution threads, advancing per-thread progress by duration + gap, and
// propagating completion times to children. The schedule() choice of which
// frontier task to dispatch first is a Scheduler: the default picks the task
// that can start earliest (the paper's default); P3 breaks ties by
// communication priority (§4.4 "Schedule", appendix Algorithm 7).
//
// One engine implements the traversal: the graph is first frozen into an
// immutable structure-of-arrays / CSR SimPlan (src/core/sim_plan.h) with the
// scheduler's tie-break lowered to plain integer keys, then dispatched with
// an O(log F) indexed ready set (src/core/event_engine.cc) — the hot loop
// compares plain integers and never touches a node object. The literal
// Algorithm-1 frontier scan is the tests' differential oracle and lives
// outside the shipping library (src/core/reference_engine.h).
#ifndef SRC_CORE_SIMULATOR_H_
#define SRC_CORE_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "src/core/dependency_graph.h"

namespace daydream {

class SimPlan;

struct SimResult {
  TimeNs makespan = 0;
  // Simulated start/end time per task id (dead tasks keep -1). Indexable by
  // graph.capacity().
  std::vector<TimeNs> start;
  std::vector<TimeNs> end;
  // Flat per-lane accounting, indexed by the graph's interned lane table
  // (lane_threads mirrors lane -> ExecThread): busy is the sum of dispatched
  // durations, end the lane's final progress (duration + trailing gap of the
  // last task). Lanes that never dispatched keep busy 0 and end -1.
  std::vector<ExecThread> lane_threads;
  std::vector<TimeNs> lane_busy;
  std::vector<TimeNs> lane_end;
  int dispatched = 0;

  TimeNs EndOf(TaskId id) const;
};

// Which ready task dispatches first — the §4.4 "Schedule" primitive. Both
// policies dispatch the task with the earliest feasible start (max of its
// lane's progress and its parents' completions); among tasks feasible at the
// same instant, ascending (TieKey, task id) is the dispatch order. The key
// depends only on the task, never on simulation state, so a compiled plan
// carries it as a plain integer.
//
// A value type: the policy is the whole state. Construct one through the two
// subclasses below, which only pick the policy.
class Scheduler {
 public:
  enum class Policy : uint8_t {
    kEarliestStart,  // ties broken by task id alone (the paper's default)
    kPriorityComm,   // P3: comm tasks by Task::priority descending, others as 0
  };

  Policy policy() const { return policy_; }

  uint32_t TieKey(const Task& task) const {
    return policy_ == Policy::kPriorityComm ? TieKeyUnder<Policy::kPriorityComm>(task)
                                            : TieKeyUnder<Policy::kEarliestStart>(task);
  }

  // TieKey under a policy fixed at compile time, so a loop over every task
  // (SimPlan's key fill) branches on the policy once, outside the loop.
  template <Policy P>
  static uint32_t TieKeyUnder([[maybe_unused]] const Task& task) {
    if constexpr (P == Policy::kPriorityComm) {
      // Bias the effective priority to unsigned (order-preserving), then flip
      // it so that a higher priority gets a smaller key.
      const int priority = task.is_comm() ? task.priority : 0;
      return ~(static_cast<uint32_t>(priority) ^ 0x80000000u);
    } else {
      return 0;
    }
  }

 protected:
  explicit Scheduler(Policy policy) : policy_(policy) {}

 private:
  Policy policy_;
};

// Default policy: earliest feasible start; ties broken by task id.
class EarliestStartScheduler : public Scheduler {
 public:
  EarliestStartScheduler() : Scheduler(Policy::kEarliestStart) {}
};

// P3-style policy (appendix Algorithm 7): earliest feasible start, but among
// tasks that tie, the higher effective priority wins — Task::priority for
// communication tasks, 0 for everything else — then the lower task id. The
// effective-priority form is a strict weak ordering (the historical frontier
// scan compared priorities only between two comm tasks, which was not
// transitive when comm and non-comm tasks tied); on graphs where
// communication tasks live on communication channels (every producer in this
// repo) it picks the same schedule.
class PriorityCommScheduler : public Scheduler {
 public:
  PriorityCommScheduler() : Scheduler(Policy::kPriorityComm) {}
};

class Simulator {
 public:
  Simulator() = default;
  explicit Simulator(const Scheduler& scheduler) : scheduler_(scheduler) {}

  // Compiles `graph` into a SimPlan and dispatches it on the event engine.
  SimResult Run(const DependencyGraph& graph) const;

  // Freezes `graph` into an immutable plan for this simulator's scheduler.
  // Reusing a compiled plan's structure for a timing-only what-if is
  // SimPlan::Retime, which the what-if pipeline (Daydream::Prepare) picks.
  SimPlan Compile(const DependencyGraph& graph) const;

  const Scheduler& scheduler() const { return scheduler_; }

 private:
  Scheduler scheduler_ = EarliestStartScheduler();
};

}  // namespace daydream

#endif  // SRC_CORE_SIMULATOR_H_
