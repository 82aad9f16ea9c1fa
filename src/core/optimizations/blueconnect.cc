#include "src/core/optimizations/blueconnect.h"

#include <algorithm>

#include "src/comm/collectives.h"
#include "src/core/transform.h"
#include "src/util/string_util.h"

namespace daydream {

namespace {

// Channel layout: 100 = intra-node collective channel, 200+i = the i-th
// parallel inter-node channel (one per local GPU).
constexpr int kIntraChannel = 100;
constexpr int kInterChannelBase = 200;

Task CommTask(std::string name, CommKind kind, int channel, TimeNs duration, int64_t bytes) {
  Task t;
  t.type = TaskType::kComm;
  t.comm = kind;
  t.name = std::move(name);
  t.thread = ExecThread::Comm(channel);
  t.duration = duration;
  t.bytes = bytes;
  t.phase = Phase::kBackward;
  return t;
}

}  // namespace

void WhatIfBlueConnect(DependencyGraph* graph, const ClusterConfig& cluster) {
  const int g = std::max(cluster.gpus_per_machine, 1);
  const int m = cluster.machines;
  const NetworkSpec& net = cluster.network;

  const std::vector<TaskId> allreduces = graph->Select(CommIs(CommKind::kAllReduce));

  for (TaskId ar : allreduces) {
    const int64_t bytes = graph->task(ar).bytes;
    const std::string base = graph->task(ar).name;
    const std::vector<TaskId> parents = ToVector(graph->parents(ar));
    const std::vector<TaskId> children = ToVector(graph->children(ar));
    graph->Remove(ar);  // rewires parents->children; the pipeline adds the real path

    const TimeNs intra_rs =
        ReduceScatterTime(bytes, g, net.pcie_bytes_per_ns(), net.intra_node_latency);
    const TimeNs intra_ag =
        AllGatherTime(bytes, g, net.pcie_bytes_per_ns(), net.intra_node_latency);
    const double channel_bw = net.nic_bytes_per_ns() / g;
    const TimeNs inter_rs =
        ReduceScatterTime(bytes / g, m, channel_bw, net.inter_node_latency);
    const TimeNs inter_ag = AllGatherTime(bytes / g, m, channel_bw, net.inter_node_latency);

    const TaskId rs_intra = graph->AddTask(CommTask(base + "/reduceScatter_intra",
                                                    CommKind::kReduceScatter, kIntraChannel,
                                                    intra_rs, bytes));
    const TaskId ag_intra = graph->AddTask(
        CommTask(base + "/allGather_intra", CommKind::kAllGather, kIntraChannel, intra_ag, bytes));
    for (TaskId p : parents) {
      graph->AddEdge(p, rs_intra);
    }
    for (int i = 0; i < g; ++i) {
      const TaskId rs = graph->AddTask(CommTask(StrFormat("%s/reduceScatter_inter%d",
                                                          base.c_str(), i),
                                                CommKind::kReduceScatter, kInterChannelBase + i,
                                                inter_rs, bytes / g));
      const TaskId ag = graph->AddTask(CommTask(StrFormat("%s/allGather_inter%d", base.c_str(), i),
                                                CommKind::kAllGather, kInterChannelBase + i,
                                                inter_ag, bytes / g));
      graph->AddEdge(rs_intra, rs);
      graph->AddEdge(rs, ag);
      graph->AddEdge(ag, ag_intra);
    }
    for (TaskId c : children) {
      graph->AddEdge(ag_intra, c);
    }
  }
}

}  // namespace daydream
