#include "src/core/graph_builder.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/correlation_index.h"
#include "src/util/logging.h"

namespace daydream {

namespace {

bool IsBlockingSyncApi(const TraceEvent& e) {
  return e.kind == EventKind::kRuntimeApi &&
         (e.api == ApiKind::kDeviceSynchronize || e.api == ApiKind::kStreamSynchronize);
}

bool IsLaunchApi(const TraceEvent& e) {
  return e.kind == EventKind::kRuntimeApi &&
         (e.api == ApiKind::kLaunchKernel || e.api == ApiKind::kMemcpyAsync ||
          e.api == ApiKind::kMemcpySync);
}

}  // namespace

DependencyGraph BuildDependencyGraph(const Trace& trace, const GraphBuildOptions& options) {
  DependencyGraph graph;
  const std::vector<TraceEvent>& events = trace.events();
  graph.Reserve(static_cast<int>(events.size()));

  LayerMap layer_map;
  if (options.map_layers) {
    layer_map = LayerMap::Compute(trace);
  }

  // The last GPU event and the last launch API carrying each correlation id
  // (id 0 means none).
  std::vector<CorrelationIndex::Entry> gpu_entries;
  std::vector<CorrelationIndex::Entry> launch_entries;
  for (size_t idx = 0; idx < events.size(); ++idx) {
    const TraceEvent& e = events[idx];
    if (e.correlation_id == 0) {
      continue;
    }
    if (e.is_gpu()) {
      gpu_entries.emplace_back(e.correlation_id, idx);
    } else if (IsLaunchApi(e)) {
      launch_entries.emplace_back(e.correlation_id, idx);
    }
  }
  const CorrelationIndex gpu_by_correlation(std::move(gpu_entries));
  const CorrelationIndex launch_by_correlation(std::move(launch_entries));

  // Blocking DtoH memcpy APIs are recognized by the DtoH kind of the GPU copy
  // sharing their correlation id.
  auto is_blocking_dtoh_api = [&](const TraceEvent& e) {
    if (e.kind != EventKind::kRuntimeApi || e.api != ApiKind::kMemcpyAsync ||
        e.correlation_id == 0) {
      return false;
    }
    const size_t gpu = gpu_by_correlation.Find(e.correlation_id);
    return gpu != CorrelationIndex::kNone &&
           events[gpu].memcpy_kind == MemcpyKind::kDeviceToHost;
  };

  // Create tasks in time order so thread sequences come out sorted.
  std::vector<size_t> order(events.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  const auto by_start = [&](size_t a, size_t b) { return events[a].start < events[b].start; };
  if (!std::is_sorted(order.begin(), order.end(), by_start)) {  // collected traces already are
    std::stable_sort(order.begin(), order.end(), by_start);
  }

  std::vector<TaskId> task_of_event(events.size(), kInvalidTask);
  for (size_t idx : order) {
    const TraceEvent& e = events[idx];
    if (e.kind == EventKind::kLayerMarker) {
      continue;  // instrumentation stamps, not tasks
    }
    Task t;
    t.name = e.name;
    t.start = e.start;
    t.duration = e.duration;
    t.api = e.api;
    t.comm = e.comm_kind;
    t.correlation_id = e.correlation_id;
    t.bytes = e.bytes;
    if (options.map_layers) {
      const LayerAssignment& a = layer_map.assignment(idx);
      t.layer_id = a.layer_id;
      t.phase = a.phase;
    } else {
      t.layer_id = e.layer_id;
      t.phase = e.phase;
    }
    switch (e.kind) {
      case EventKind::kRuntimeApi:
        t.type = TaskType::kCpu;
        t.thread = ExecThread::Cpu(e.thread_id);
        if (IsBlockingSyncApi(e)) {
          t.duration = std::min(t.duration, options.sync_api_floor);
        } else if (is_blocking_dtoh_api(e)) {
          t.duration = std::min(t.duration, options.memcpy_api_floor);
        }
        break;
      case EventKind::kDataLoad:
        t.type = TaskType::kDataLoad;
        t.thread = ExecThread::Cpu(e.thread_id);
        t.phase = Phase::kDataLoad;
        break;
      case EventKind::kKernel:
      case EventKind::kMemcpy:
        t.type = TaskType::kGpu;
        t.thread = ExecThread::Gpu(e.stream_id);
        break;
      case EventKind::kCommunication:
        t.type = TaskType::kComm;
        t.thread = ExecThread::Comm(e.channel_id);
        break;
      case EventKind::kLayerMarker:
        break;  // unreachable
    }
    task_of_event[idx] = graph.AddTask(std::move(t));
  }

  // Dependency types 1, 2 and 5: per-lane sequential order.
  graph.LinkSequential();

  // Gaps: measured idle time between consecutive CPU events on a thread,
  // computed against the *measured* end (not the clipped duration): a blocking
  // API's wait lives in the GPU->CPU edge, while its gap stays the small
  // framework overhead that follows the measured return. A CPU thread's lane
  // holds exactly its CPU events in time order, so the next event on the
  // thread is the next task in the lane.
  for (size_t idx : order) {
    const TraceEvent& e = events[idx];
    if (!e.is_cpu() || e.kind == EventKind::kLayerMarker) {
      continue;
    }
    const TaskId next = graph.NextInThread(task_of_event[idx]);
    if (next != kInvalidTask) {
      graph.task(task_of_event[idx]).gap = std::max<TimeNs>(0, graph.task(next).start - e.end());
    }
  }

  // Dependency type 3: correlation edges (launch API -> GPU task).
  for (size_t idx = 0; idx < events.size(); ++idx) {
    const TraceEvent& e = events[idx];
    if (!e.is_gpu() || e.correlation_id == 0) {
      continue;
    }
    const size_t launch = launch_by_correlation.Find(e.correlation_id);
    if (launch != CorrelationIndex::kNone) {
      graph.AddEdge(task_of_event[launch], task_of_event[idx]);
    }
  }

  // Dependency type 4: CUDA synchronizations. Scan CPU events in time order,
  // tracking the last GPU task enqueued on each stream; a blocking API makes
  // the *next* CPU task on its thread depend on those GPU tasks, so that the
  // measured wait is reproduced — and shrinks when the GPU work shrinks.
  std::vector<std::pair<int, TaskId>> last_enqueued;  // (stream, gpu task), by stream
  auto last_on_stream = [&](int stream) {
    return std::lower_bound(
        last_enqueued.begin(), last_enqueued.end(), stream,
        [](const std::pair<int, TaskId>& entry, int s) { return entry.first < s; });
  };
  std::vector<TaskId> wait_on;
  for (size_t idx : order) {
    const TraceEvent& e = events[idx];
    if (e.kind == EventKind::kLayerMarker) {
      continue;
    }
    if (e.kind == EventKind::kRuntimeApi && e.correlation_id != 0) {
      const size_t gpu = gpu_by_correlation.Find(e.correlation_id);
      if (gpu != CorrelationIndex::kNone) {
        const int stream = events[gpu].stream_id;
        const auto it = last_on_stream(stream);
        if (it != last_enqueued.end() && it->first == stream) {
          it->second = task_of_event[gpu];
        } else {
          last_enqueued.insert(it, {stream, task_of_event[gpu]});
        }
      }
    }
    TaskId blocked = kInvalidTask;
    wait_on.clear();
    if (IsBlockingSyncApi(e)) {
      blocked = graph.NextInThread(task_of_event[idx]);
      if (e.api == ApiKind::kStreamSynchronize && e.stream_id >= 0) {
        const auto it = last_on_stream(e.stream_id);
        if (it != last_enqueued.end() && it->first == e.stream_id) {
          wait_on.push_back(it->second);
        }
      } else {
        for (const auto& [stream, gpu_task] : last_enqueued) {
          wait_on.push_back(gpu_task);
        }
      }
    } else if (is_blocking_dtoh_api(e)) {
      blocked = graph.NextInThread(task_of_event[idx]);
      wait_on.push_back(task_of_event[gpu_by_correlation.Find(e.correlation_id)]);
    }
    if (blocked != kInvalidTask) {
      for (TaskId gpu_task : wait_on) {
        graph.AddEdge(gpu_task, blocked);
      }
    }
  }

  return graph;
}

}  // namespace daydream
