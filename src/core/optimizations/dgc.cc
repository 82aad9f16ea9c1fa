#include "src/core/optimizations/dgc.h"

#include <algorithm>

#include "src/comm/collectives.h"
#include "src/core/transform.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace daydream {

TimeNs EstimateElementwiseDuration(const DependencyGraph& graph, int64_t bytes) {
  // Find the largest elementwise kernel with byte accounting and scale its
  // duration by the byte ratio; fall back to a bandwidth guess if none.
  TaskId best = kInvalidTask;
  for (TaskId id : graph.Select(All(IsOnGpu(), NameContains("elementwise")))) {
    const Task& t = graph.task(id);
    if (t.bytes <= 0) {
      continue;
    }
    if (best == kInvalidTask || t.bytes > graph.task(best).bytes) {
      best = id;
    }
  }
  if (best == kInvalidTask) {
    return static_cast<TimeNs>(static_cast<double>(bytes) / 400.0) + 2 * kMicrosecond;
  }
  const Task& ref = graph.task(best);
  const double scale = static_cast<double>(bytes) / static_cast<double>(ref.bytes);
  return std::max<TimeNs>(
      2 * kMicrosecond, static_cast<TimeNs>(static_cast<double>(ref.duration) * scale));
}

void WhatIfDgc(DependencyGraph* graph, const DgcWhatIf& options) {
  DD_CHECK_GT(options.compression_ratio, 0.0);
  const std::vector<TaskId> allreduces = graph->Select(CommIs(CommKind::kAllReduce));

  for (TaskId ar : allreduces) {
    Task& comm = graph->task(ar);
    const int64_t original_bytes = comm.bytes;
    const int64_t compressed =
        std::max<int64_t>(1, static_cast<int64_t>(static_cast<double>(original_bytes) *
                                                  options.compression_ratio));
    comm.bytes = compressed;
    comm.duration = NcclExclusiveTime(RingAllReduceTime(compressed, options.cluster));
    comm.name += "_dgc";

    // Compression runs on the GPU between the gradients and the transfer.
    Task compress;
    compress.type = TaskType::kGpu;
    compress.name = "elementwise_kernel_dgc_compress";
    compress.thread = ExecThread::Gpu(0);
    compress.duration = static_cast<TimeNs>(
        static_cast<double>(EstimateElementwiseDuration(*graph, original_bytes)) *
        options.compress_passes);
    compress.bytes = original_bytes;
    compress.phase = Phase::kBackward;

    // Splice: parents(gradients ready) -> compress -> allReduce.
    const std::vector<TaskId> parents = ToVector(graph->parents(ar));
    TaskId gpu_anchor = kInvalidTask;
    for (TaskId p : parents) {
      if (graph->task(p).is_gpu()) {
        if (gpu_anchor == kInvalidTask ||
            graph->task(p).start > graph->task(gpu_anchor).start) {
          gpu_anchor = p;
        }
      }
    }
    if (gpu_anchor == kInvalidTask) {
      continue;  // allReduce without gradient producers; leave as-is
    }
    const TaskId comp_id = graph->InsertAfter(gpu_anchor, std::move(compress));
    graph->AddEdge(comp_id, ar);

    // Decompression before the weight update consumes the reduced gradients.
    Task decompress;
    decompress.type = TaskType::kGpu;
    decompress.name = "elementwise_kernel_dgc_decompress";
    decompress.thread = ExecThread::Gpu(0);
    decompress.duration = static_cast<TimeNs>(
        static_cast<double>(EstimateElementwiseDuration(*graph, original_bytes)) *
        options.decompress_passes);
    decompress.bytes = original_bytes;
    decompress.phase = Phase::kWeightUpdate;
    const TaskId decomp_id = graph->InsertAfter(comp_id, std::move(decompress));
    graph->AddEdge(ar, decomp_id);
    for (TaskId c : graph->children(ar)) {
      if (c != decomp_id && !graph->task(c).is_comm()) {
        graph->AddEdge(decomp_id, c);
      }
    }
  }
}

}  // namespace daydream
