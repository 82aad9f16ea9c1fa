#include "src/core/simulator.h"

#include <algorithm>

#include "src/core/sim_plan.h"
#include "src/util/logging.h"

namespace daydream {

TimeNs SimResult::EndOf(TaskId id) const {
  DD_CHECK_GE(id, 0);
  DD_CHECK_LT(id, static_cast<TaskId>(end.size()));
  return end[static_cast<size_t>(id)];
}

TimeNs Scheduler::Context::FeasibleTime(TaskId id) const {
  const TimeNs lane_progress = (*progress)[static_cast<size_t>(graph->lane_of(id))];
  return std::max(lane_progress, (*earliest)[static_cast<size_t>(id)]);
}

bool Scheduler::TieBreakLess(const Task& a, const Task& b) const { return a.id < b.id; }

bool Scheduler::StaticPlanKey(const Task& task, uint32_t* key) const {
  (void)task;
  (void)key;
  return false;
}

namespace {

// Frontier scan using the scheduler's TieBreakLess order refined by task id —
// the exact order the event engine indexes by, so both engines pick the same
// task no matter which one runs.
size_t PickByOrder(const Scheduler& scheduler, const std::vector<TaskId>& frontier,
                   const Scheduler::Context& context) {
  DD_CHECK(!frontier.empty());
  size_t best = 0;
  TimeNs best_time = context.FeasibleTime(frontier[0]);
  for (size_t i = 1; i < frontier.size(); ++i) {
    const TimeNs t = context.FeasibleTime(frontier[i]);
    if (t > best_time) {
      continue;
    }
    const Task& candidate = context.graph->task(frontier[i]);
    const Task& current = context.graph->task(frontier[best]);
    if (t < best_time || scheduler.TieBreakLess(candidate, current) ||
        (!scheduler.TieBreakLess(current, candidate) && frontier[i] < frontier[best])) {
      best = i;
      best_time = t;
    }
  }
  return best;
}

// Order-preserving map from an int priority to a uint32 key that *descends*
// with the priority: higher priority -> smaller key.
uint32_t DescendingPriorityKey(int priority) {
  // Bias to unsigned (order-preserving), then flip for descending order.
  return ~(static_cast<uint32_t>(priority) ^ 0x80000000u);
}

}  // namespace

size_t EarliestStartScheduler::Pick(const std::vector<TaskId>& frontier,
                                    const Context& context) {
  return PickByOrder(*this, frontier, context);
}

bool EarliestStartScheduler::StaticPlanKey(const Task& task, uint32_t* key) const {
  (void)task;
  *key = 0;  // tie-break is pure task id, carried by the packed plan index
  return true;
}

size_t PriorityCommScheduler::Pick(const std::vector<TaskId>& frontier, const Context& context) {
  return PickByOrder(*this, frontier, context);
}

bool PriorityCommScheduler::TieBreakLess(const Task& a, const Task& b) const {
  const int pa = a.is_comm() ? a.priority : 0;
  const int pb = b.is_comm() ? b.priority : 0;
  if (pa != pb) {
    return pa > pb;
  }
  return a.id < b.id;
}

bool PriorityCommScheduler::StaticPlanKey(const Task& task, uint32_t* key) const {
  *key = DescendingPriorityKey(task.is_comm() ? task.priority : 0);
  return true;
}

Simulator::Simulator() : scheduler_(std::make_shared<EarliestStartScheduler>()) {}

Simulator::Simulator(std::shared_ptr<Scheduler> scheduler) : scheduler_(std::move(scheduler)) {
  DD_CHECK(scheduler_ != nullptr);
}

SimResult Simulator::Run(const DependencyGraph& graph) const {
  if (scheduler_->comparator_based()) {
    return SimPlan::Compile(graph, *scheduler_).Run();
  }
  return RunReference(graph);
}

SimPlan Simulator::Compile(const DependencyGraph& graph) const {
  return SimPlan::Compile(graph, *scheduler_);
}

SimResult Simulator::RunReference(const DependencyGraph& graph) const {
  SimResult result;
  result.start.assign(static_cast<size_t>(graph.capacity()), -1);
  result.end.assign(static_cast<size_t>(graph.capacity()), -1);
  const size_t num_lanes = static_cast<size_t>(graph.num_lanes());
  result.lane_threads.reserve(num_lanes);
  for (int lane = 0; lane < graph.num_lanes(); ++lane) {
    result.lane_threads.push_back(graph.lane_thread(lane));
  }
  result.lane_busy.assign(num_lanes, 0);
  result.lane_end.assign(num_lanes, -1);

  std::vector<TimeNs> earliest(static_cast<size_t>(graph.capacity()), 0);
  std::vector<int> refs(static_cast<size_t>(graph.capacity()), 0);
  // Lane progress, flat-indexed by the graph's interned lane table.
  std::vector<TimeNs> progress(num_lanes, 0);
  std::vector<bool> dispatched_any(num_lanes, false);

  std::vector<TaskId> frontier;
  for (TaskId id : graph.AliveTasks()) {
    refs[static_cast<size_t>(id)] = static_cast<int>(graph.parents(id).size());
    if (refs[static_cast<size_t>(id)] == 0) {
      frontier.push_back(id);
    }
  }

  Scheduler::Context context;
  context.graph = &graph;
  context.progress = &progress;
  context.earliest = &earliest;

  while (!frontier.empty()) {
    const size_t pick = scheduler_->Pick(frontier, context);
    DD_CHECK_LT(pick, frontier.size());
    const TaskId id = frontier[pick];
    frontier.erase(frontier.begin() + static_cast<ptrdiff_t>(pick));

    const Task& task = graph.task(id);
    const size_t lane = static_cast<size_t>(graph.lane_of(id));
    const TimeNs start = std::max(progress[lane], earliest[static_cast<size_t>(id)]);
    result.start[static_cast<size_t>(id)] = start;
    const TimeNs end = start + task.duration;
    result.end[static_cast<size_t>(id)] = end;
    progress[lane] = end + task.gap;  // gap occupies the thread (Alg. 1 line 13)
    dispatched_any[lane] = true;
    result.lane_busy[lane] += task.duration;
    result.makespan = std::max(result.makespan, end);
    ++result.dispatched;

    for (TaskId child : graph.children(id)) {
      auto& e = earliest[static_cast<size_t>(child)];
      // Deviation from Algorithm 1 line 16: the trailing gap is CPU-thread-
      // local overhead, so it delays the same thread (via progress above) but
      // not cross-thread children (a kernel may start right when its launch
      // API returns).
      e = std::max(e, end);
      if (--refs[static_cast<size_t>(child)] == 0) {
        frontier.push_back(child);
      }
    }
  }

  for (size_t lane = 0; lane < num_lanes; ++lane) {
    if (dispatched_any[lane]) {
      result.lane_end[lane] = progress[lane];
    }
  }
  DD_CHECK_EQ(result.dispatched, graph.num_alive()) << "cycle or disconnected bookkeeping";
  return result;
}

}  // namespace daydream
