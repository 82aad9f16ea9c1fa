#include <gtest/gtest.h>

#include "src/comm/bucketing.h"
#include "src/comm/collectives.h"
#include "src/comm/param_server.h"
#include "src/models/model_zoo.h"

namespace daydream {
namespace {

ClusterConfig Cluster(int machines, int gpus, double gbps = 10.0) {
  ClusterConfig c;
  c.machines = machines;
  c.gpus_per_machine = gpus;
  c.network.bandwidth_gbps = gbps;
  return c;
}

// ---- ring formulas ----

TEST(Collectives, SingleGpuIsFree) {
  EXPECT_EQ(RingAllReduceTime(100 << 20, Cluster(1, 1)), 0);
}

TEST(Collectives, MonotonicInBytes) {
  const ClusterConfig c = Cluster(4, 1);
  EXPECT_LT(RingAllReduceTime(10 << 20, c), RingAllReduceTime(20 << 20, c));
}

TEST(Collectives, MonotonicInWorkers) {
  // 2(n-1)/n grows with n at fixed bottleneck bandwidth.
  EXPECT_LT(RingAllReduceTime(100 << 20, Cluster(2, 1)),
            RingAllReduceTime(100 << 20, Cluster(4, 1)));
}

TEST(Collectives, TotalGpusDoesNotOverflowAnInt) {
  // 100000 x 100000 used to wrap the int product negative, and the ring
  // formulas then answered a "speedup" of -0.0%.
  EXPECT_EQ(Cluster(100000, 100000).total_gpus(), int64_t{10000000000});
  EXPECT_GT(RingAllReduceTime(100 << 20, Cluster(100000, 100000)),
            RingAllReduceTime(100 << 20, Cluster(4, 1)));
}

TEST(Collectives, FasterNetworkIsFaster) {
  EXPECT_GT(RingAllReduceTime(100 << 20, Cluster(4, 1, 10.0)),
            RingAllReduceTime(100 << 20, Cluster(4, 1, 40.0)));
}

TEST(Collectives, MatchesRingFormula) {
  // 4 workers, 100 MB, 10 Gbps: 2 * 3/4 * 100MB / 1.25 GB/s = 120 ms + latency.
  const ClusterConfig c = Cluster(4, 1, 10.0);
  const int64_t bytes = 100 * 1000 * 1000;
  const TimeNs expected_wire = Ms(120);
  const TimeNs latency = 2 * 3 * c.network.inter_node_latency;
  EXPECT_NEAR(static_cast<double>(RingAllReduceTime(bytes, c)),
              static_cast<double>(expected_wire + latency), 1e6);
}

TEST(Collectives, IntraNodeUsesPcie) {
  // Single machine, multiple GPUs: bottleneck is PCIe, not the NIC.
  const TimeNs one_machine = RingAllReduceTime(100 << 20, Cluster(1, 4, 10.0));
  const TimeNs four_machines = RingAllReduceTime(100 << 20, Cluster(4, 1, 10.0));
  EXPECT_LT(one_machine, four_machines);  // 10 GB/s PCIe >> 1.25 GB/s NIC
}

TEST(Collectives, ReduceScatterPlusAllGatherEqualsAllReduceWire) {
  // RS + AG = 2 * (n-1)/n * S / bw: the ring allReduce decomposition.
  const double bw = 1.25;
  const TimeNs lat = Us(20);
  const int64_t bytes = 64 << 20;
  const TimeNs rs = ReduceScatterTime(bytes, 4, bw, lat);
  const TimeNs ag = AllGatherTime(bytes, 4, bw, lat);
  const TimeNs ar = RingAllReduceTime(bytes, Cluster(4, 1, 10.0));
  EXPECT_NEAR(static_cast<double>(rs + ag), static_cast<double>(ar), 1e5);
}

TEST(Collectives, PartialCollectiveSingleRankFree) {
  EXPECT_EQ(ReduceScatterTime(1 << 20, 1, 1.0, Us(20)), 0);
  EXPECT_EQ(AllGatherTime(1 << 20, 1, 1.0, Us(20)), 0);
}

TEST(Collectives, BlueConnectBeatsFlatRingOnHierarchy) {
  // On a multi-GPU-per-machine cluster, moving only 1/g of the data across
  // the NIC (per channel) beats the flat ring that pays full traffic on it.
  const ClusterConfig c = Cluster(4, 4, 10.0);
  EXPECT_LT(BlueConnectAllReduceTime(100 << 20, c), RingAllReduceTime(100 << 20, c));
}

TEST(Collectives, BlueConnectSingleGpuFree) {
  EXPECT_EQ(BlueConnectAllReduceTime(100 << 20, Cluster(1, 1)), 0);
}

TEST(Collectives, NcclExclusiveAboveTheoretical) {
  const TimeNs theory = Ms(10);
  EXPECT_GT(NcclExclusiveTime(theory), theory);
  EXPECT_LT(NcclExclusiveTime(theory), static_cast<TimeNs>(theory * 1.2));
}

TEST(Collectives, PsTransferWireTime) {
  NetworkSpec net;
  net.bandwidth_gbps = 8.0;  // 1 GB/s
  const TimeNs t = PsTransferTime(100 * 1000 * 1000, net);
  EXPECT_NEAR(static_cast<double>(t), static_cast<double>(Ms(100) + net.inter_node_latency), 1e6);
}

// ---- bucketing ----

TEST(Bucketing, CoversEveryParamLayerExactlyOnce) {
  const ModelGraph g = BuildResNet50(32);
  const std::vector<GradientBucket> buckets = ComputeBuckets(g);
  std::vector<int> seen(static_cast<size_t>(g.num_layers()), 0);
  for (const GradientBucket& b : buckets) {
    for (int id : b.layer_ids) {
      seen[static_cast<size_t>(id)]++;
    }
  }
  for (const Layer& l : g.layers()) {
    EXPECT_EQ(seen[static_cast<size_t>(l.id)], l.has_params() ? 1 : 0) << l.name;
  }
}

TEST(Bucketing, BytesAddUp) {
  const ModelGraph g = BuildVgg19(32);
  int64_t total = 0;
  for (const GradientBucket& b : ComputeBuckets(g)) {
    total += b.bytes;
  }
  EXPECT_EQ(total, g.TotalParamBytes());
}

TEST(Bucketing, BucketsFilledInBackwardOrder) {
  const ModelGraph g = BuildBertBase(8);
  const std::vector<GradientBucket> buckets = ComputeBuckets(g);
  // Bucket 0 holds the layers closest to the loss; trigger layers decrease.
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LT(buckets[i].trigger_layer_id, buckets[i - 1].trigger_layer_id);
  }
}

TEST(Bucketing, TriggerIsEarliestLayerInBucket) {
  const ModelGraph g = BuildResNet50(32);
  for (const GradientBucket& b : ComputeBuckets(g)) {
    int min_layer = b.layer_ids.front();
    for (int id : b.layer_ids) {
      min_layer = std::min(min_layer, id);
    }
    EXPECT_EQ(b.trigger_layer_id, min_layer);
  }
}

TEST(Bucketing, RespectsCapExceptSingleTensors) {
  const ModelGraph g = BuildResNet50(32);
  const std::vector<GradientBucket> buckets = ComputeBuckets(g, 25 * 1024 * 1024);
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i].layer_ids.size() > 1) {
      // A multi-layer bucket only exceeds the cap by its last layer.
      EXPECT_LT(buckets[i].bytes, 2 * 25 * 1024 * 1024) << i;
    }
  }
}

TEST(Bucketing, SmallerCapMoreBuckets) {
  const ModelGraph g = BuildResNet50(32);
  EXPECT_GT(ComputeBuckets(g, 5 * 1024 * 1024).size(), ComputeBuckets(g, 50 * 1024 * 1024).size());
}

TEST(Bucketing, LayerToBucketInverse) {
  const ModelGraph g = BuildGnmt(64);
  const std::vector<GradientBucket> buckets = ComputeBuckets(g);
  const std::vector<int> map = LayerToBucket(g, buckets);
  for (const GradientBucket& b : buckets) {
    for (int id : b.layer_ids) {
      EXPECT_EQ(map[static_cast<size_t>(id)], b.id);
    }
  }
  for (const Layer& l : g.layers()) {
    if (!l.has_params()) {
      EXPECT_EQ(map[static_cast<size_t>(l.id)], -1);
    }
  }
}

// ---- parameter-server slicing ----

TEST(ParamServer, WholeTensorOnePerLayer) {
  const ModelGraph g = BuildVgg19(32);
  const std::vector<PsSlice> slices = WholeTensorSlices(g, 4);
  size_t param_layers = 0;
  for (const Layer& l : g.layers()) {
    param_layers += l.has_params() ? 1 : 0;
  }
  EXPECT_EQ(slices.size(), param_layers);
}

TEST(ParamServer, P3SliceSizesBounded) {
  const ModelGraph g = BuildVgg19(32);
  for (const PsSlice& s : P3Slices(g, 4, 512 * 1024)) {
    EXPECT_GT(s.bytes, 0);
    EXPECT_LE(s.bytes, 512 * 1024);
  }
}

TEST(ParamServer, P3BytesAddUp) {
  const ModelGraph g = BuildResNet50(32);
  int64_t total = 0;
  for (const PsSlice& s : P3Slices(g, 4)) {
    total += s.bytes;
  }
  EXPECT_EQ(total, g.TotalParamBytes());
}

TEST(ParamServer, EarlierLayersHigherPriority) {
  const ModelGraph g = BuildVgg19(32);
  const std::vector<PsSlice> slices = P3Slices(g, 4);
  int first_layer_priority = -1;
  int last_layer_priority = -1;
  for (const PsSlice& s : slices) {
    if (first_layer_priority < 0) {
      first_layer_priority = s.priority;
    }
    last_layer_priority = s.priority;
  }
  EXPECT_GT(first_layer_priority, last_layer_priority);
}

TEST(ParamServer, SlicesSpreadOverServers) {
  const ModelGraph g = BuildVgg19(32);
  std::set<int> servers;
  for (const PsSlice& s : P3Slices(g, 4)) {
    servers.insert(s.server);
    EXPECT_GE(s.server, 0);
    EXPECT_LT(s.server, 4);
  }
  EXPECT_EQ(servers.size(), 4u);
}

TEST(ClusterConfig, Label) {
  EXPECT_EQ(Cluster(2, 2, 20.0).Label(), "2x2 @ 20Gbps");
  EXPECT_EQ(Cluster(4, 1).total_gpus(), 4);
  EXPECT_TRUE(Cluster(2, 1).multi_machine());
  EXPECT_FALSE(Cluster(1, 4).multi_machine());
}

TEST(NetworkSpec, UnitConversions) {
  NetworkSpec net;
  net.bandwidth_gbps = 10.0;
  EXPECT_DOUBLE_EQ(net.nic_bytes_per_ns(), 1.25);
  net.intra_node_gbs = 12.0;
  EXPECT_DOUBLE_EQ(net.pcie_bytes_per_ns(), 12.0);
}

}  // namespace
}  // namespace daydream
