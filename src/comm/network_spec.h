// Cluster and network descriptions for distributed-training experiments.
//
// Matches the paper's testbed shapes: up to 4 machines x up to 4 GPUs,
// inter-node Ethernet/InfiniBand at 10/20/40 Gbps, intra-node PCIe 3.0.
#ifndef SRC_COMM_NETWORK_SPEC_H_
#define SRC_COMM_NETWORK_SPEC_H_

#include <cstdint>
#include <string>

#include "src/util/time_units.h"

namespace daydream {

struct NetworkSpec {
  double bandwidth_gbps = 10.0;     // inter-node NIC bandwidth, Gigabits/s
  TimeNs inter_node_latency = 20 * kMicrosecond;
  double intra_node_gbs = 10.0;     // GPU<->GPU over PCIe, GigaBYTES/s
  TimeNs intra_node_latency = 5 * kMicrosecond;

  // Bytes per nanosecond over the NIC (1 Gbps = 0.125 bytes/ns).
  double nic_bytes_per_ns() const { return bandwidth_gbps / 8.0; }
  double pcie_bytes_per_ns() const { return intra_node_gbs; }
};

// "M x G" deployment: M machines with G GPUs each (paper Figure 8 x-axis).
struct ClusterConfig {
  int machines = 1;
  int gpus_per_machine = 1;
  NetworkSpec network;

  // int64: the product of two in-range ints can overflow an int.
  int64_t total_gpus() const { return int64_t{machines} * gpus_per_machine; }
  bool multi_machine() const { return machines > 1; }
  std::string Label() const;  // e.g. "2x2 @ 10Gbps"
};

}  // namespace daydream

#endif  // SRC_COMM_NETWORK_SPEC_H_
