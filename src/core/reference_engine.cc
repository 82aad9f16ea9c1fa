#include "src/core/reference_engine.h"

#include <algorithm>
#include <vector>

#include "src/util/logging.h"

namespace daydream {
namespace {

// The policy's tie rule for two tasks feasible at the same instant.
bool DispatchesFirst(const Task& a, const Task& b, bool comm_priority) {
  const int pa = comm_priority && a.is_comm() ? a.priority : 0;
  const int pb = comm_priority && b.is_comm() ? b.priority : 0;
  if (pa != pb) {
    return pa > pb;
  }
  return a.id < b.id;
}

}  // namespace

SimResult RunReference(const DependencyGraph& graph, const Scheduler& scheduler) {
  const bool comm_priority = scheduler.policy() == Scheduler::Policy::kPriorityComm;
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

  // Feasible dispatch time of a ready task: max(lane progress, earliest bound).
  auto feasible = [&](TaskId id) {
    return std::max(progress[static_cast<size_t>(graph.lane_of(id))],
                    earliest[static_cast<size_t>(id)]);
  };

  while (!frontier.empty()) {
    size_t pick = 0;
    TimeNs pick_time = feasible(frontier[0]);
    for (size_t i = 1; i < frontier.size(); ++i) {
      const TimeNs t = feasible(frontier[i]);
      if (t < pick_time || (t == pick_time && DispatchesFirst(graph.task(frontier[i]),
                                                              graph.task(frontier[pick]),
                                                              comm_priority))) {
        pick = i;
        pick_time = t;
      }
    }
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
