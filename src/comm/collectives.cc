#include "src/comm/collectives.h"

#include <algorithm>

#include "src/util/logging.h"

namespace daydream {

double RingBusBandwidth(const ClusterConfig& cluster) {
  if (cluster.multi_machine()) {
    return cluster.network.nic_bytes_per_ns();
  }
  return cluster.network.pcie_bytes_per_ns();
}

TimeNs RingStepLatency(const ClusterConfig& cluster) {
  return cluster.multi_machine() ? cluster.network.inter_node_latency
                                 : cluster.network.intra_node_latency;
}

TimeNs RingAllReduceTime(int64_t bytes, const ClusterConfig& cluster) {
  const int64_t n = cluster.total_gpus();
  DD_CHECK_GE(n, 1);
  if (n == 1) {
    return 0;
  }
  const double bus = RingBusBandwidth(cluster);
  const double wire_ns = 2.0 * (n - 1) / n * static_cast<double>(bytes) / bus;
  const TimeNs latency = 2 * (n - 1) * RingStepLatency(cluster);
  return static_cast<TimeNs>(wire_ns) + latency;
}

namespace {

TimeNs PartialCollectiveTime(int64_t bytes, int group_size, double bytes_per_ns,
                             TimeNs step_latency) {
  DD_CHECK_GE(group_size, 1);
  if (group_size == 1) {
    return 0;
  }
  const double wire_ns =
      static_cast<double>(group_size - 1) / group_size * static_cast<double>(bytes) / bytes_per_ns;
  return static_cast<TimeNs>(wire_ns) + (group_size - 1) * step_latency;
}

}  // namespace

TimeNs ReduceScatterTime(int64_t bytes, int group_size, double bytes_per_ns,
                         TimeNs step_latency) {
  return PartialCollectiveTime(bytes, group_size, bytes_per_ns, step_latency);
}

TimeNs AllGatherTime(int64_t bytes, int group_size, double bytes_per_ns, TimeNs step_latency) {
  return PartialCollectiveTime(bytes, group_size, bytes_per_ns, step_latency);
}

TimeNs BlueConnectAllReduceTime(int64_t bytes, const ClusterConfig& cluster) {
  const int g = cluster.gpus_per_machine;
  const int m = cluster.machines;
  if (cluster.total_gpus() <= 1) {
    return 0;
  }
  const NetworkSpec& net = cluster.network;

  // Phase 1/4: intra-node reduce-scatter / all-gather over g GPUs (PCIe).
  const TimeNs intra_rs =
      ReduceScatterTime(bytes, g, net.pcie_bytes_per_ns(), net.intra_node_latency);
  const TimeNs intra_ag =
      AllGatherTime(bytes, g, net.pcie_bytes_per_ns(), net.intra_node_latency);

  // Phase 2/3: inter-node reduce-scatter / all-gather over m machines. Each of
  // the g concurrent channels carries bytes/g, but they share one NIC, so the
  // per-channel effective bandwidth is nic/g — the two cancel out unless g==1.
  const double per_channel_bw = net.nic_bytes_per_ns() / std::max(g, 1);
  const int64_t per_channel_bytes = bytes / std::max(g, 1);
  const TimeNs inter_rs =
      ReduceScatterTime(per_channel_bytes, m, per_channel_bw, net.inter_node_latency);
  const TimeNs inter_ag =
      AllGatherTime(per_channel_bytes, m, per_channel_bw, net.inter_node_latency);

  return intra_rs + inter_rs + inter_ag + intra_ag;
}

TimeNs PsTransferTime(int64_t bytes, const NetworkSpec& network) {
  return static_cast<TimeNs>(static_cast<double>(bytes) / network.nic_bytes_per_ns()) +
         network.inter_node_latency;
}

TimeNs NcclExclusiveTime(TimeNs theoretical) {
  return static_cast<TimeNs>(static_cast<double>(theoretical) * 1.08) + 25 * kMicrosecond;
}

}  // namespace daydream
