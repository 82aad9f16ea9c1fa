#include "src/runtime/executor.h"

#include <algorithm>
#include <limits>

#include "src/comm/collectives.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace daydream {

namespace {

constexpr int kMainThread = 0;
constexpr int kLoaderThread = 1;

// Interference of overlapped NCCL kernels with compute (paper: ground-truth
// allReduce ~34% above theoretical; exclusive runs close to prediction).
constexpr double kOverlapInterferenceMean = 1.32;
constexpr double kOverlapInterferenceSd = 0.05;
constexpr double kExclusiveJitterMean = 1.02;

}  // namespace

TimeNs ExecutionResult::IterationTime() const {
  if (iteration_ends.size() >= 2) {
    return iteration_ends.back() - iteration_ends[iteration_ends.size() - 2];
  }
  return total_time;
}

Executor::Executor(const RunConfig& config) : config_(config), cost_(config.gpu) {
  ps_priority_ = config.gt.p3;
}

TimeNs Executor::OptimalAllReduceTime(TimeNs theoretical) {
  // NCCL kernel setup/teardown and protocol overhead over the pure wire time.
  return NcclExclusiveTime(theoretical);
}

double Executor::AmpSpeedupFactor(const KernelSpec& kernel, Rng* rng) const {
  // Optimizer kernels stay (almost) FP32: Apex keeps master weights and
  // optimizer state in full precision; only the gradient reads arrive as
  // FP16, so the weight update sees a marginal speedup.
  if (kernel.phase == Phase::kWeightUpdate) {
    return 1.15;
  }
  // AMP's own bookkeeping kernels are already FP32-side work.
  if (StrContains(kernel.name, "multi_tensor_unscale")) {
    return 1.0;
  }
  double mean = 0.0;
  double sd = 0.0;
  if (IsComputeBound(kernel.cls) && config_.gpu.has_tensor_cores) {
    // Tensor-core utilization depends on problem size: big gemms approach the
    // advertised ~3x, small recurrent gemms see much less.
    if (kernel.flops >= 5'000'000'000LL) {
      mean = 3.00;
      sd = 0.08;
    } else if (kernel.flops >= 500'000'000LL) {
      mean = 2.85;
      sd = 0.10;
    } else {
      mean = 2.60;
      sd = 0.14;
    }
  } else if (kernel.cls == KernelClass::kEmbedding) {
    mean = 1.50;  // gathers are latency-, not bandwidth-, limited
    sd = 0.08;
  } else {
    // Memory-bound kernels: halved traffic, slightly less than 2x in practice.
    mean = 1.95;
    sd = 0.08;
  }
  const double factor = rng->Normal(mean, sd);
  return std::clamp(factor, 1.1, 3.6);
}

TimeNs Executor::KernelDuration(const KernelSpec& kernel, Rng* rng) const {
  TimeNs base = kernel.cls == KernelClass::kMemcpy
                    ? cost_.MemcpyDuration(kernel.bytes)
                    : cost_.KernelDuration(kernel, Precision::kFp32);
  if (config_.gt.restructured_bn && StrContains(kernel.name, "_rbn")) {
    // Newly implemented fused kernels: correct traffic, but unpolished code —
    // the implementation-overhead factor §6.4 blames for the GT shortfall.
    base = static_cast<TimeNs>(static_cast<double>(base) * 1.30);
  }
  if (config_.gt.amp) {
    base = static_cast<TimeNs>(static_cast<double>(base) / AmpSpeedupFactor(kernel, rng));
  }
  return std::max<TimeNs>(base, CostModel::kKernelFloorNs);
}

double Executor::PsChannelBytesPerNs() const {
  return config_.cluster.network.nic_bytes_per_ns() * kPsBandwidthShare;
}

TimeNs Executor::PsServerTime(const PsSlice& slice) const {
  const int64_t workers = config_.cluster.total_gpus();
  const double agg_ns =
      static_cast<double>(slice.bytes) * (workers - 1) / kPsServerAggBytesPerNs;
  return kPsServerFixedNs + static_cast<TimeNs>(agg_ns);
}

void Executor::DrainPsChannels(Trace* trace) {
  auto schedule = [&](Channel* channel, bool is_send) {
    // Greedy timeline: whenever the channel is free, run the highest-priority
    // ready slice (P3) or the earliest-issued ready slice (baseline FIFO).
    while (!channel->pending.empty()) {
      TimeNs earliest = std::numeric_limits<TimeNs>::max();
      for (const PendingSlice& p : channel->pending) {
        earliest = std::min(earliest, p.ready);
      }
      const TimeNs slot = std::max(channel->free, earliest);
      // Ready slices, FIFO by issue order.
      std::vector<size_t> ready;
      for (size_t i = 0; i < channel->pending.size(); ++i) {
        if (channel->pending[i].ready <= slot) {
          ready.push_back(i);
        }
      }
      std::sort(ready.begin(), ready.end(), [&](size_t a, size_t b) {
        return channel->pending[a].seq < channel->pending[b].seq;
      });
      // P3 prioritizes among everything ready; the baseline kvstore is FIFO.
      // At low bandwidth the engine keeps up with the wire, so the window is
      // effectively unbounded; under a fast network the bounded reorder
      // window of the dependency engine starts to bite.
      size_t window = ready.size();
      if (ps_priority_) {
        const TimeNs slice_service =
            kPsSliceFixedNs +
            static_cast<TimeNs>(static_cast<double>(kDefaultSliceBytes) / kPsProcBytesPerNs);
        const bool wire_bound =
            PsChannelBytesPerNs() * static_cast<double>(slice_service) <
            static_cast<double>(kDefaultSliceBytes);
        if (!wire_bound) {
          window = std::min<size_t>(window, kPsReorderWindow);
        }
      } else {
        window = 1;  // baseline kvstore is strictly FIFO
      }
      size_t pick = ready[0];
      for (size_t w = 1; w < window; ++w) {
        const PendingSlice& p = channel->pending[ready[w]];
        const PendingSlice& best = channel->pending[pick];
        if (ps_priority_ && (p.slice.priority > best.slice.priority ||
                             (p.slice.priority == best.slice.priority && p.seq < best.seq))) {
          pick = ready[w];
        }
      }
      DD_CHECK_LT(pick, channel->pending.size());
      PendingSlice item = channel->pending[pick];
      channel->pending.erase(channel->pending.begin() + static_cast<ptrdiff_t>(pick));

      const TimeNs start = std::max(channel->free, item.ready);
      // kvstore/TCP framing overhead over the pure wire time; the prediction
      // models wire time only, which keeps it slightly optimistic everywhere.
      const double jitter = std::clamp(ps_rng_.Normal(1.03, 0.02), 1.0, 1.12);
      const TimeNs wire =
          static_cast<TimeNs>(static_cast<double>(item.slice.bytes) / PsChannelBytesPerNs() *
                              jitter) +
          config_.cluster.network.inter_node_latency;
      // The channel advances at the slower of wire speed and kvstore
      // processing speed; on fast networks processing dominates.
      const TimeNs processing =
          kPsSliceFixedNs +
          static_cast<TimeNs>(static_cast<double>(item.slice.bytes) / kPsProcBytesPerNs);
      channel->free = start + std::max(wire, processing);

      TraceEvent e;
      e.kind = EventKind::kCommunication;
      e.comm_kind = is_send ? CommKind::kPush : CommKind::kPull;
      e.name = StrFormat("%s_layer%d_slice%d", is_send ? "push" : "pull", item.slice.layer_id,
                         item.slice.slice_index);
      e.start = start;
      e.duration = wire;
      e.channel_id = is_send ? kPsSendChannel : kPsRecvChannel;
      e.bytes = item.slice.bytes;
      e.layer_id = item.slice.layer_id;
      trace->Add(std::move(e));

      if (is_send) {
        // The owning server process handles slices serially: aggregate the
        // pushed gradients and produce the updated weights for the pull.
        if (server_free_.empty()) {
          server_free_.assign(static_cast<size_t>(std::max(config_.cluster.machines, 1)), 0);
        }
        auto& server =
            server_free_[static_cast<size_t>(item.slice.server) % server_free_.size()];
        const TimeNs served = std::max(server, channel->free) + PsServerTime(item.slice);
        server = served;
        PendingSlice pull = item;
        pull.ready = served;
        recv_.pending.push_back(pull);
      } else {
        pull_done_by_layer_[item.slice.layer_id].push_back(channel->free);
      }
    }
  };
  schedule(&send_, /*is_send=*/true);
  schedule(&recv_, /*is_send=*/false);
}

ExecutionResult Executor::Run(const OpProgram& program) {
  ExecutionResult result;
  Trace& trace = result.trace;
  trace.set_config(config_.Label());

  Rng rng(StrFormat("executor/%s/%s", config_.seed_salt.c_str(), config_.Label().c_str()));
  ps_rng_ = Rng(StrFormat("executor-ps/%s/%s", config_.seed_salt.c_str(), config_.Label().c_str()));

  // Loader thread runs eagerly from t=0 (prefetching mini-batches; in steady
  // state it overlaps the previous iteration and is not a bottleneck).
  TimeNs loader_clock = 0;
  for (const Op& op : program.loader_ops) {
    DD_CHECK(op.kind == OpKind::kDataLoad);
    TraceEvent e;
    e.kind = EventKind::kDataLoad;
    e.name = op.name;
    e.start = loader_clock;
    e.duration = op.duration;
    e.thread_id = kLoaderThread;
    e.phase = Phase::kDataLoad;
    loader_clock += op.duration;
    trace.Add(std::move(e));
  }

  TimeNs cpu = 0;                     // main-thread clock
  std::map<int, TimeNs> stream_tail;  // stream id -> completion of last task
  int64_t next_correlation = 1;

  // NCCL kernels experience GPU-resource interference only while compute
  // kernels execute concurrently. The portion of an allReduce that overlaps
  // the backward pass runs `factor`x slower; the tail that runs after the
  // backward GPU drains proceeds at the exclusive rate. Compute-kernel timing
  // never depends on allReduce durations (the only coupling is the NCCL-stream
  // synchronize before the optimizer), so allReduces are *deferred* and
  // finalized when that sync executes — at which point the backward-GPU end
  // time is known exactly. Interference draws come from a dedicated RNG so
  // kernel-duration draws stay identical across communication configurations.
  struct PendingAllReduce {
    Op op;
    TimeNs ready = 0;
    TimeNs theoretical = 0;
    TimeNs optimal = 0;
    int64_t correlation = 0;
  };
  std::vector<PendingAllReduce> pending_allreduce;
  Rng comm_rng(StrFormat("executor-comm/%s/%s", config_.seed_salt.c_str(),
                         config_.Label().c_str()));
  // Interference is mutual: while NCCL collectives are in flight, compute
  // kernels also lose SM time and memory bandwidth. Daydream's prediction
  // deliberately does not know about either direction (§6.5).
  bool nccl_in_flight = false;

  auto finalize_allreduces = [&](TimeNs compute_gpu_end) {
    for (const PendingAllReduce& p : pending_allreduce) {
      const TimeNs start = std::max(stream_tail[kNcclStream], p.ready);
      const TimeNs window = std::max<TimeNs>(0, compute_gpu_end - start);
      double factor = kExclusiveJitterMean + comm_rng.Normal(0.0, 0.005);
      if (!config_.gt.sync_before_allreduce && window > 0) {
        factor = std::clamp(comm_rng.Normal(kOverlapInterferenceMean, kOverlapInterferenceSd),
                            1.10, 1.50);
      }
      const double work = static_cast<double>(p.optimal);
      TimeNs duration;
      if (work * factor <= static_cast<double>(window)) {
        duration = static_cast<TimeNs>(work * factor);  // fully overlapped
      } else {
        // Overlapped head at the slowed rate, exclusive tail at full rate.
        const double done_in_window = static_cast<double>(window) / factor;
        duration = window + static_cast<TimeNs>(work - done_in_window);
      }

      TraceEvent k;
      k.kind = EventKind::kKernel;
      k.name = p.op.name;
      k.start = start;
      k.duration = duration;
      k.stream_id = kNcclStream;
      k.correlation_id = p.correlation;
      k.bytes = p.op.bytes;
      k.phase = Phase::kBackward;
      stream_tail[kNcclStream] = k.end();

      AllReduceRecord record;
      record.bucket_id = p.op.bucket_id;
      record.bytes = p.op.bytes;
      record.theoretical = p.theoretical;
      record.optimal = p.optimal;
      record.actual = duration;
      record.overlapped = window > 0 && !config_.gt.sync_before_allreduce;
      result.allreduce_calls.push_back(record);
      trace.Add(std::move(k));
    }
    pending_allreduce.clear();
  };

  auto scaled = [&](TimeNs gap) {
    return static_cast<TimeNs>(static_cast<double>(gap) * config_.cpu_scale);
  };
  auto add_cpu_event = [&](ApiKind api, const std::string& name, TimeNs start, TimeNs duration,
                           const Op& op, int64_t corr) {
    TraceEvent e;
    e.kind = EventKind::kRuntimeApi;
    e.api = api;
    e.name = name;
    e.start = start;
    e.duration = duration;
    e.thread_id = kMainThread;
    e.correlation_id = corr;
    e.layer_id = op.layer_id;
    e.phase = op.phase;
    trace.Add(std::move(e));
  };

  const FrameworkProfile& fw = config_.framework;

  for (size_t op_index = 0; op_index < program.main_ops.size(); ++op_index) {
    const Op& op = program.main_ops[op_index];
    cpu += scaled(op.gap);
    switch (op.kind) {
      case OpKind::kCpuWork: {
        add_cpu_event(ApiKind::kOther, op.name, cpu, op.duration, op, 0);
        cpu += op.duration;
        break;
      }
      case OpKind::kMallocLike: {
        add_cpu_event(ApiKind::kMalloc, op.name, cpu, Us(10), op, 0);
        cpu += Us(10);
        break;
      }
      case OpKind::kMarker: {
        TraceEvent e;
        e.kind = EventKind::kLayerMarker;
        e.name = op.name;
        e.start = cpu;
        e.duration = 0;
        e.thread_id = kMainThread;
        e.layer_id = op.layer_id;
        e.phase = op.phase;
        e.marker_begin = op.marker_begin;
        trace.Add(std::move(e));
        break;
      }
      case OpKind::kLaunchKernel: {
        const int64_t corr = next_correlation++;
        const TimeNs api_end = cpu + fw.launch_api;
        add_cpu_event(ApiKind::kLaunchKernel, "cudaLaunchKernel", cpu, fw.launch_api, op, corr);

        TraceEvent k;
        k.kind = op.kernel.cls == KernelClass::kMemcpy ? EventKind::kMemcpy : EventKind::kKernel;
        if (k.kind == EventKind::kMemcpy) {
          k.memcpy_kind = MemcpyKind::kDeviceToDevice;
        }
        k.bytes = op.kernel.bytes;
        k.name = op.kernel.name;
        k.start = std::max(stream_tail[op.stream], api_end);
        k.duration = KernelDuration(op.kernel, &rng);
        if (nccl_in_flight && !config_.gt.sync_before_allreduce) {
          k.duration = static_cast<TimeNs>(
              static_cast<double>(k.duration) *
              std::clamp(comm_rng.Normal(1.08, 0.015), 1.02, 1.15));
        }
        k.stream_id = op.stream;
        k.correlation_id = corr;
        k.layer_id = op.kernel.layer_id;
        k.phase = op.kernel.phase;
        stream_tail[op.stream] = k.end();
        trace.Add(std::move(k));
        cpu = api_end;
        break;
      }
      case OpKind::kMemcpyHtoD: {
        const int64_t corr = next_correlation++;
        const TimeNs api_end = cpu + fw.memcpy_api;
        add_cpu_event(ApiKind::kMemcpyAsync, "cudaMemcpyAsync", cpu, fw.memcpy_api, op, corr);
        TraceEvent c;
        c.kind = EventKind::kMemcpy;
        c.memcpy_kind = MemcpyKind::kHostToDevice;
        c.name = StrFormat("memcpy_htod_%s", op.name.c_str());
        c.start = std::max(stream_tail[op.stream], api_end);
        c.duration = cost_.MemcpyDuration(op.bytes);
        c.stream_id = op.stream;
        c.correlation_id = corr;
        c.bytes = op.bytes;
        c.layer_id = op.layer_id;
        c.phase = op.phase;
        stream_tail[op.stream] = c.end();
        trace.Add(std::move(c));
        cpu = api_end;
        break;
      }
      case OpKind::kMemcpyDtoH: {
        // Blocks the CPU until the copy — and everything before it on the
        // stream — completes (§4.2.2 "CUDA Synchronization").
        const int64_t corr = next_correlation++;
        const TimeNs copy_start = std::max(stream_tail[op.stream], cpu + fw.memcpy_api);
        TraceEvent c;
        c.kind = EventKind::kMemcpy;
        c.memcpy_kind = MemcpyKind::kDeviceToHost;
        c.name = StrFormat("memcpy_dtoh_%s", op.name.c_str());
        c.start = copy_start;
        c.duration = cost_.MemcpyDuration(op.bytes);
        c.stream_id = op.stream;
        c.correlation_id = corr;
        c.bytes = op.bytes;
        c.layer_id = op.layer_id;
        c.phase = op.phase;
        const TimeNs copy_end = c.end();
        trace.Add(std::move(c));
        stream_tail[op.stream] = copy_end;
        add_cpu_event(ApiKind::kMemcpyAsync, StrFormat("cudaMemcpyAsync_%s", op.name.c_str()),
                      cpu, copy_end - cpu, op, corr);
        cpu = copy_end;
        break;
      }
      case OpKind::kDeviceSync: {
        finalize_allreduces(stream_tail[kComputeStream]);
        nccl_in_flight = false;
        TimeNs done = cpu + fw.sync_api_floor;
        for (const auto& [sid, tail] : stream_tail) {
          done = std::max(done, tail);
        }
        add_cpu_event(ApiKind::kDeviceSynchronize, op.name, cpu, done - cpu, op, 0);
        cpu = done;
        break;
      }
      case OpKind::kStreamSync: {
        if (op.stream == kNcclStream) {
          finalize_allreduces(stream_tail[kComputeStream]);
          nccl_in_flight = false;
        }
        const TimeNs done = std::max(cpu + fw.sync_api_floor, stream_tail[op.stream]);
        // Annotate the synchronized stream on the CPU event (CUPTI exposes it
        // via the callback API); the graph builder uses it for the GPU->CPU
        // dependency edge.
        TraceEvent e;
        e.kind = EventKind::kRuntimeApi;
        e.api = ApiKind::kStreamSynchronize;
        e.name = op.name;
        e.start = cpu;
        e.duration = done - cpu;
        e.thread_id = kMainThread;
        e.stream_id = op.stream;
        e.layer_id = op.layer_id;
        e.phase = op.phase;
        trace.Add(std::move(e));
        cpu = done;
        break;
      }
      case OpKind::kAllReduce: {
        const int64_t corr = next_correlation++;
        const TimeNs api_end = cpu + fw.allreduce_launch;
        add_cpu_event(ApiKind::kLaunchKernel, "cudaLaunchKernel_nccl", cpu, fw.allreduce_launch,
                      op, corr);
        // The NCCL stream waits on an event recorded after the bucket's last
        // wgrad launch — i.e. on everything enqueued on the compute stream.
        PendingAllReduce p;
        p.op = op;
        p.ready = std::max(api_end, stream_tail[kComputeStream]);
        p.theoretical = RingAllReduceTime(op.bytes, config_.cluster);
        p.optimal = OptimalAllReduceTime(p.theoretical);
        p.correlation = corr;
        pending_allreduce.push_back(std::move(p));
        nccl_in_flight = true;
        cpu = api_end;
        break;
      }
      case OpKind::kPsPush: {
        // Gradients of this layer become ready when the compute stream has
        // produced them; the kvstore thread pushes them asynchronously.
        for (const PsSlice& slice : op.slices) {
          PendingSlice p;
          p.slice = slice;
          p.ready = std::max(cpu, stream_tail[kComputeStream]);
          p.seq = ps_seq_++;
          send_.pending.push_back(p);
          pulls_expected_by_layer_[slice.layer_id] += 1;
        }
        break;
      }
      case OpKind::kPsWaitPull: {
        auto expected = pulls_expected_by_layer_.find(op.layer_id);
        if (expected == pulls_expected_by_layer_.end() || expected->second == 0) {
          break;  // first iteration: nothing pushed yet, weights are local
        }
        DrainPsChannels(&trace);
        auto done = pull_done_by_layer_.find(op.layer_id);
        DD_CHECK(done != pull_done_by_layer_.end());
        DD_CHECK_EQ(static_cast<int>(done->second.size()), expected->second);
        TimeNs last_pull = 0;
        for (TimeNs t : done->second) {
          last_pull = std::max(last_pull, t);
        }
        if (last_pull > cpu) {
          add_cpu_event(ApiKind::kOther, op.name, cpu, last_pull - cpu, op, 0);
          cpu = last_pull;
        }
        // Consume this iteration's pulls.
        pull_done_by_layer_.erase(done);
        expected->second = 0;
        break;
      }
      case OpKind::kIterationEnd: {
        result.iteration_ends.push_back(cpu);
        break;
      }
      case OpKind::kDataLoad: {
        DD_LOG(Fatal) << "data-load op on the main thread";
        break;
      }
    }
  }

  // Total time: first-to-last event excluding the (overlapped) loader.
  TimeNs first = std::numeric_limits<TimeNs>::max();
  TimeNs last = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.thread_id == kLoaderThread) {
      continue;
    }
    first = std::min(first, e.start);
    last = std::max(last, e.end());
  }
  result.total_time = trace.empty() ? 0 : last - first;
  return result;
}

}  // namespace daydream
