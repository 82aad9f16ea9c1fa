// Runtime simulation over the dependency graph — the paper's Algorithm 1.
//
// Traverses the graph, dispatching ready ("frontier") tasks onto their
// execution threads, advancing per-thread progress by duration + gap, and
// propagating completion times to children. The schedule() choice of which
// frontier task to dispatch first is pluggable: the default picks the task
// that can start earliest (the paper's default); optimizations like P3 and
// vDNN install custom policies (§4.4 "Schedule", appendix Algorithms 7/10).
//
// Two engines implement the traversal:
//   - the compiled-plan event engine (src/core/sim_plan.h +
//     src/core/event_engine.h): the graph is first frozen into an immutable
//     structure-of-arrays / CSR SimPlan with the scheduler's tie-break
//     lowered to plain integer keys, then dispatched with an O(log F) indexed
//     ready set — the hot loop does no virtual calls and no node-object
//     indirection. Used whenever the scheduler expresses its policy as a
//     feasible-time order with a state-independent tie-break
//     (Scheduler::comparator_based()).
//   - the reference engine (Simulator::RunReference): the literal Algorithm-1
//     transcription with a linear frontier scan. It is the differential-
//     testing oracle and the compatibility path for custom Pick()-style
//     policies that need to see the whole frontier.
#ifndef SRC_CORE_SIMULATOR_H_
#define SRC_CORE_SIMULATOR_H_

#include <cstdint>
#include <memory>
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

// Scheduling policy: given the frontier (ready tasks), pick which to dispatch.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  struct Context {
    const DependencyGraph* graph = nullptr;
    // Current progress of each execution lane, indexed by the graph's
    // interned lane table (graph->lane_of(id)).
    const std::vector<TimeNs>* progress = nullptr;
    // Current earliest-start bound per task (updated by finished parents).
    const std::vector<TimeNs>* earliest = nullptr;

    // Feasible dispatch time of a task: max(lane progress, earliest bound).
    TimeNs FeasibleTime(TaskId id) const;
  };

  // Returns an index into `frontier`. Only called by the reference engine;
  // comparator-based schedulers may delegate to their TieBreakLess order.
  virtual size_t Pick(const std::vector<TaskId>& frontier, const Context& context) = 0;

  // ---- Event-engine contract ----
  //
  // A scheduler whose policy is "dispatch the task with the earliest feasible
  // time, breaking ties with a fixed order" returns true here, and
  // Simulator::Run compiles the graph into a SimPlan and dispatches it with
  // the event-driven engine. Policies that need the whole frontier (custom
  // Pick overrides) keep the default false and run on the reference engine.
  virtual bool comparator_based() const { return false; }

  // Tie-break among tasks feasible at the same instant. Must be a strict weak
  // ordering and must not depend on mutable simulation state (progress,
  // frontier contents); the engine refines "equal" pairs by task id, so the
  // order need not be total. Default: ascending task id.
  virtual bool TieBreakLess(const Task& a, const Task& b) const;

  // Plan-compilation contract: lowers the tie-break to a per-task integer so
  // the compiled engine compares plain keys instead of virtual-dispatching
  // into TieBreakLess. Returns true and sets *key such that ascending
  // (key, task id) reproduces TieBreakLess refined by id. Schedulers that are
  // comparator-based but keep the default false still compile — SimPlan falls
  // back to ranking every task with one TieBreakLess sort at compile time.
  virtual bool StaticPlanKey(const Task& task, uint32_t* key) const;
};

// Default policy: dispatch the frontier task with the earliest feasible start;
// ties broken by task id for determinism.
class EarliestStartScheduler : public Scheduler {
 public:
  size_t Pick(const std::vector<TaskId>& frontier, const Context& context) override;
  bool comparator_based() const override { return true; }
  bool StaticPlanKey(const Task& task, uint32_t* key) const override;
};

// P3-style policy (appendix Algorithm 7): earliest feasible start, but among
// communication tasks that tie, the higher Task::priority wins.
//
// Tie-break order (both engines): effective priority — Task::priority for
// communication tasks, 0 for everything else — descending, then task id. The
// "effective priority" formulation makes the order a strict weak ordering
// (the historical frontier scan compared priorities only between two comm
// tasks, which was not transitive when comm and non-comm tasks tied); on
// graphs where communication tasks live on communication channels (every
// producer in this repo) it picks the same schedule.
class PriorityCommScheduler : public Scheduler {
 public:
  size_t Pick(const std::vector<TaskId>& frontier, const Context& context) override;
  bool comparator_based() const override { return true; }
  bool TieBreakLess(const Task& a, const Task& b) const override;
  bool StaticPlanKey(const Task& task, uint32_t* key) const override;
};

class Simulator {
 public:
  Simulator();
  explicit Simulator(std::shared_ptr<Scheduler> scheduler);

  // Simulates `graph`: compiled-plan event engine when the scheduler supports
  // it, reference engine otherwise. Both produce identical SimResults for the
  // built-in schedulers.
  SimResult Run(const DependencyGraph& graph) const;

  // Literal Algorithm-1 transcription (O(F) frontier scan per dispatch).
  // Exposed as the differential-testing oracle.
  SimResult RunReference(const DependencyGraph& graph) const;

  // Freezes `graph` into an immutable plan for this simulator's scheduler
  // (requires scheduler()->comparator_based()). Reusing a compiled plan's
  // structure for a timing-only what-if is SimPlan::Retime, which the what-if
  // pipeline (Daydream::Prepare) picks.
  SimPlan Compile(const DependencyGraph& graph) const;

  const std::shared_ptr<Scheduler>& scheduler() const { return scheduler_; }

 private:
  std::shared_ptr<Scheduler> scheduler_;
};

}  // namespace daydream

#endif  // SRC_CORE_SIMULATOR_H_
