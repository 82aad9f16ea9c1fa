// Performance microbenchmarks for Daydream's own machinery: trace generation,
// dependency-graph construction, layer mapping, the simulator engines
// (compiled plan / pre-change event / reference scan), the graph-mutation
// layer (clone / select / distributed transform at cluster scale), a full
// what-if round trip, and an end-to-end cluster-scale sweep. The paper's
// workflow ("profile once, ask many questions", §7.1) depends on
// transformations+simulation being cheap.
//
// Self-contained timing harness (no external benchmark dependency) so the
// binary builds everywhere and CI can track the perf trajectory: results are
// printed as a table and written to a JSON file (default BENCH_simulator.json,
// override with argv[1]).
//
// Three headline numbers on the cluster-scale graph (the single-worker
// profile replicated across 64 workers), all enforced as hard floors:
//   - dispatch: the compiled-plan engine vs the reference frontier scan
//     (>= 3x),
//   - plan: the compiled-plan engine vs a frozen transcription of the
//     pre-plan event engine — graph-object walks, virtual tie-break calls and
//     map-keyed thread accounting in the hot loop (>= 2x),
//   - transform: WhatIfDistributed through the intrusive/indexed mutation
//     layer vs a frozen transcription of the pre-change one (>= 5x).
// Plus an end-to-end `sweep_cluster` cases/sec row demonstrating the
// amortized setup (shared baseline plan, pipelined clone+transform), and a
// `dispatch_plan_cluster_parallel` row — sharded dispatch vs the serial plan
// engine (>= 3x, enforced only on hosts with >= 8 hardware threads).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/event_engine.h"
#include "src/core/graph_builder.h"
#include "src/core/layer_map.h"
#include "src/core/optimizations/amp.h"
#include "src/core/optimizations/distributed.h"
#include "src/core/optimizations/pipeline_transform.h"
#include "src/core/predictor.h"
#include "src/core/sim_plan.h"
#include "src/core/simulator.h"
#include "src/core/transform.h"
#include "src/runtime/ground_truth.h"
#include "src/runtime/sweep.h"
#include "src/service/session.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/import_chrome.h"
#include "src/trace/import_cupti.h"
#include "src/util/logging.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace daydream {
namespace {

constexpr ModelId kModel = ModelId::kBertLarge;
constexpr int kReplicatedWorkers = 64;

// Accepted floors; regressing past any fails the run (and CI).
constexpr double kMinDispatchSpeedup = 3.0;  // plan engine vs reference scan
constexpr double kMinPlanSpeedup = 2.0;      // plan engine vs pre-change event engine
constexpr double kMinTransformSpeedup = 5.0;
constexpr double kMinServeSpeedup = 10.0;    // warm session QPS vs cold recompiles
// Sharded parallel dispatch vs the serial plan engine, same run. Only *gated*
// (enforced) on hosts with >= 8 hardware threads: the speedup is a property
// of core count, and a 1-core container measuring 1.0x is reporting its own
// hardware, not a regression. The JSON records `gated` so bench_compare.py
// knows whether the floor applied.
constexpr double kMinParallelSpeedup = 3.0;
constexpr int kParallelGateCores = 8;

using Clock = std::chrono::steady_clock;

// Best-of-N wall time of `fn` in milliseconds: repeats until `target_ms` of
// total run time or `max_reps`, whichever first (always at least `min_reps`).
double MeasureMs(const std::function<void()>& fn, int min_reps = 3, int max_reps = 25,
                 double target_ms = 500.0) {
  double best = 0.0;
  double total = 0.0;
  for (int rep = 0; rep < max_reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    best = (rep == 0 || ms < best) ? ms : best;
    total += ms;
    if (rep + 1 >= min_reps && total >= target_ms) {
      break;
    }
  }
  return best;
}

// Best-of-N where every rep runs `transform` on a fresh copy produced by the
// (untimed) `make_graph` — the clone-per-case shape of the sweep runner.
double MeasureTransformMs(const std::function<DependencyGraph()>& make_graph,
                          const std::function<void(DependencyGraph*)>& transform,
                          int min_reps = 3, int max_reps = 15, double target_ms = 1500.0) {
  double best = 0.0;
  double total = 0.0;
  for (int rep = 0; rep < max_reps; ++rep) {
    DependencyGraph g = make_graph();
    const Clock::time_point t0 = Clock::now();
    transform(&g);
    const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    best = (rep == 0 || ms < best) ? ms : best;
    total += ms;
    if (rep + 1 >= min_reps && total >= target_ms) {
      break;
    }
  }
  return best;
}

// ---- frozen pre-change references (the floors' denominators) ----

// Opaque-predicate selectors exactly as the combinators composed them before
// queries carried structure: every Select is a full scan through nested
// std::function calls.
TaskPredicate PreChangePhaseIs(Phase phase) {
  return [phase](const Task& t) { return t.phase == phase; };
}
TaskPredicate PreChangeAll(TaskPredicate a, TaskPredicate b) {
  return [a = std::move(a), b = std::move(b)](const Task& t) { return a(t) && b(t); };
}

// WhatIfDistributed as implemented before the O(1)-mutation rewrite: scan
// selects, min-anchor re-reads through task(), and per-layer map upkeep that
// re-reads the incumbent. Kept verbatim as the measurable baseline.
void PreChangeWhatIfDistributed(DependencyGraph* graph, const std::vector<GradientInfo>& gradients,
                                const DistributedWhatIf& options) {
  struct Bucket {
    int64_t bytes = 0;
    std::vector<int> layer_ids;
  };
  std::map<int, Bucket> buckets;
  for (const GradientInfo& g : gradients) {
    buckets[g.bucket_id].bytes += g.bytes;
    buckets[g.bucket_id].layer_ids.push_back(g.layer_id);
  }

  const std::vector<TaskId> wu = graph->Select(PreChangePhaseIs(Phase::kWeightUpdate));
  TaskId first_wu = kInvalidTask;
  for (TaskId id : wu) {
    if (first_wu == kInvalidTask || graph->task(id).start < graph->task(first_wu).start) {
      first_wu = id;
    }
  }
  DD_CHECK_NE(first_wu, kInvalidTask);

  std::map<int, TaskId> last_bwd_gpu;
  const TaskPredicate bwd_gpu = PreChangeAll([](const Task& t) { return t.is_gpu(); },
                                             PreChangePhaseIs(Phase::kBackward));
  for (TaskId id : graph->Select(bwd_gpu)) {
    const Task& t = graph->task(id);
    auto it = last_bwd_gpu.find(t.layer_id);
    if (it == last_bwd_gpu.end() || graph->task(it->second).start < t.start) {
      last_bwd_gpu[t.layer_id] = id;
    }
  }

  TaskId previous_comm = kInvalidTask;
  for (const auto& [bucket_id, bucket] : buckets) {
    Task comm;
    comm.type = TaskType::kComm;
    comm.comm = CommKind::kAllReduce;
    comm.name = StrFormat("allReduce_bucket%d", bucket_id);
    comm.thread = ExecThread::Comm(kAllReduceChannel);
    comm.duration = PredictAllReduceDuration(bucket.bytes, options);
    comm.bytes = bucket.bytes;
    comm.phase = Phase::kBackward;
    const TaskId comm_id = graph->AddTask(std::move(comm));
    for (int layer_id : bucket.layer_ids) {
      auto it = last_bwd_gpu.find(layer_id);
      if (it != last_bwd_gpu.end()) {
        graph->AddEdge(it->second, comm_id);
      }
    }
    graph->AddEdge(comm_id, first_wu);
    if (previous_comm != kInvalidTask) {
      graph->AddEdge(previous_comm, comm_id);
    }
    previous_comm = comm_id;
  }
}

// The event engine as it shipped before compiled plans: per-dispatch
// graph-object loads (~200-byte Task nodes), virtual TieBreakLess calls
// inside every heap comparison, and map-keyed thread_busy accounting. Kept
// verbatim (modulo the SimResult lane-vector conversion at the end) as the
// measurable baseline the >= 2x plan floor divides by.
struct PreChangeTieCmp {
  const DependencyGraph* graph = nullptr;
  const Scheduler* scheduler = nullptr;

  bool Less(TaskId a, TaskId b) const {
    const Task& ta = graph->task(a);
    const Task& tb = graph->task(b);
    if (scheduler->TieBreakLess(ta, tb)) {
      return true;
    }
    if (scheduler->TieBreakLess(tb, ta)) {
      return false;
    }
    return a < b;
  }
};

struct PreChangeNowHeapCmp {
  const PreChangeTieCmp* tie;
  bool operator()(TaskId a, TaskId b) const { return tie->Less(b, a); }
};

struct PreChangeFutureHeapCmp {
  const PreChangeTieCmp* tie;
  bool operator()(const std::pair<TimeNs, TaskId>& a, const std::pair<TimeNs, TaskId>& b) const {
    if (a.first != b.first) {
      return b.first < a.first;
    }
    return tie->Less(b.second, a.second);
  }
};

struct PreChangeThreadState {
  TimeNs progress = 0;
  bool dispatched_any = false;
  std::vector<TaskId> now;
  std::vector<std::pair<TimeNs, TaskId>> future;
  uint32_t stamp = 0;
};

struct PreChangeGlobalEntry {
  TimeNs feasible = 0;
  TaskId task = kInvalidTask;
  uint32_t thread = 0;
  uint32_t stamp = 0;
};

struct PreChangeGlobalHeapCmp {
  const PreChangeTieCmp* tie;
  bool operator()(const PreChangeGlobalEntry& a, const PreChangeGlobalEntry& b) const {
    if (a.feasible != b.feasible) {
      return b.feasible < a.feasible;
    }
    if (a.task != b.task) {
      return tie->Less(b.task, a.task);
    }
    return false;
  }
};

SimResult PreChangeRunEventEngine(const DependencyGraph& graph, const Scheduler& scheduler) {
  auto sz = [](TaskId id) { return static_cast<size_t>(id); };
  SimResult result;
  const size_t capacity = static_cast<size_t>(graph.capacity());
  result.start.assign(capacity, -1);
  result.end.assign(capacity, -1);

  std::vector<TimeNs> earliest(capacity, 0);
  std::vector<int> refs(capacity, 0);

  const PreChangeTieCmp tie{&graph, &scheduler};
  const PreChangeNowHeapCmp now_cmp{&tie};
  const PreChangeFutureHeapCmp future_cmp{&tie};
  const PreChangeGlobalHeapCmp global_cmp{&tie};

  std::vector<PreChangeThreadState> states(static_cast<size_t>(graph.num_lanes()));
  std::vector<uint32_t> task_thread(capacity, 0);
  // The historical per-dispatch accounting: one ordered-map lookup per task.
  std::map<ExecThread, TimeNs> thread_busy;

  auto insert_ready = [&](PreChangeThreadState& s, TaskId id, TimeNs bound) {
    if (bound <= s.progress) {
      s.now.push_back(id);
      std::push_heap(s.now.begin(), s.now.end(), now_cmp);
    } else {
      s.future.emplace_back(bound, id);
      std::push_heap(s.future.begin(), s.future.end(), future_cmp);
    }
  };

  for (TaskId id : graph.AliveTasks()) {
    refs[sz(id)] = static_cast<int>(graph.parents(id).size());
    task_thread[sz(id)] = static_cast<uint32_t>(graph.lane_of(id));
    if (refs[sz(id)] == 0) {
      insert_ready(states[task_thread[sz(id)]], id, 0);
    }
  }

  auto head = [](const PreChangeThreadState& s) -> std::pair<TimeNs, TaskId> {
    if (!s.now.empty()) {
      return {s.progress, s.now.front()};
    }
    if (!s.future.empty()) {
      return s.future.front();
    }
    return {0, kInvalidTask};
  };

  std::vector<PreChangeGlobalEntry> global;
  global.reserve(states.size() + 16);
  auto refresh = [&](uint32_t ti) {
    PreChangeThreadState& s = states[ti];
    ++s.stamp;
    const auto [feasible, task] = head(s);
    if (task != kInvalidTask) {
      global.push_back(PreChangeGlobalEntry{feasible, task, ti, s.stamp});
      std::push_heap(global.begin(), global.end(), global_cmp);
    }
  };
  for (uint32_t i = 0; i < states.size(); ++i) {
    refresh(i);
  }

  while (!global.empty()) {
    std::pop_heap(global.begin(), global.end(), global_cmp);
    const PreChangeGlobalEntry entry = global.back();
    global.pop_back();
    PreChangeThreadState& s = states[entry.thread];
    if (entry.stamp != s.stamp) {
      continue;
    }
    const TaskId id = entry.task;
    if (!s.now.empty()) {
      std::pop_heap(s.now.begin(), s.now.end(), now_cmp);
      s.now.pop_back();
    } else {
      std::pop_heap(s.future.begin(), s.future.end(), future_cmp);
      s.future.pop_back();
    }

    const Task& task = graph.task(id);
    result.start[sz(id)] = entry.feasible;
    const TimeNs end = entry.feasible + task.duration;
    result.end[sz(id)] = end;
    s.progress = end + task.gap;
    s.dispatched_any = true;
    thread_busy[task.thread] += task.duration;
    result.makespan = std::max(result.makespan, end);
    ++result.dispatched;

    while (!s.future.empty() && s.future.front().first <= s.progress) {
      const TaskId migrated = s.future.front().second;
      std::pop_heap(s.future.begin(), s.future.end(), future_cmp);
      s.future.pop_back();
      s.now.push_back(migrated);
      std::push_heap(s.now.begin(), s.now.end(), now_cmp);
    }

    for (TaskId child : graph.children(id)) {
      auto& e = earliest[sz(child)];
      e = std::max(e, end);
      if (--refs[sz(child)] == 0) {
        const uint32_t ci = task_thread[sz(child)];
        insert_ready(states[ci], child, e);
        if (ci != entry.thread) {
          refresh(ci);
        }
      }
    }
    refresh(entry.thread);
  }

  // Convert to the lane-vector SimResult shape (post-change bookkeeping; not
  // part of the measured hot loop's cost profile in any meaningful way).
  const size_t num_lanes = static_cast<size_t>(graph.num_lanes());
  result.lane_threads.reserve(num_lanes);
  for (int lane = 0; lane < graph.num_lanes(); ++lane) {
    result.lane_threads.push_back(graph.lane_thread(lane));
  }
  result.lane_busy.assign(num_lanes, 0);
  result.lane_end.assign(num_lanes, -1);
  for (size_t i = 0; i < states.size(); ++i) {
    if (states[i].dispatched_any) {
      result.lane_end[i] = states[i].progress;
      result.lane_busy[i] = thread_busy[graph.lane_thread(static_cast<int>(i))];
    }
  }
  DD_CHECK_EQ(result.dispatched, graph.num_alive()) << "cycle or disconnected bookkeeping";
  return result;
}

struct BenchRow {
  std::string name;
  double ms = 0.0;
  // Shards used for this row's simulation; 1 for everything serial. Recorded
  // per row (schema v4) so bench_compare.py never silently compares a
  // parallel measurement against a serial baseline.
  int sim_jobs = 1;
};

int Main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_simulator.json";
  BenchHeader("perf_core — simulator & graph-mutation microbenchmarks",
              "§7.1 (simulation runtime), §4.4 (graph transformation), Algorithm 1");

  const RunConfig config = DefaultRunConfig(kModel);
  const Trace trace = CollectBaselineTrace(config);
  const DependencyGraph graph = BuildDependencyGraph(trace);

  std::vector<BenchRow> rows;
  rows.push_back({"collect_trace", MeasureMs([&] { CollectBaselineTrace(config); })});
  rows.push_back({"build_graph", MeasureMs([&] { BuildDependencyGraph(trace); })});
  rows.push_back({"layer_map", MeasureMs([&] { LayerMap::Compute(trace); })});
  rows.push_back({"simulate_event", MeasureMs([&] { Simulator().Run(graph); })});
  rows.push_back({"simulate_reference", MeasureMs([&] { Simulator().RunReference(graph); })});

  // Importer throughput: the profile-once side of the workflow must keep up
  // with real profiler dumps. Both importers parse the baseline profile from
  // memory — Chrome via our own lossless export, CUPTI via a synthesized
  // record stream of launch/kernel pairs sized to the same event count.
  std::ostringstream chrome_ss;
  WriteChromeTrace(trace, chrome_ss);
  const std::string chrome_json = chrome_ss.str();
  const double import_chrome_ms = MeasureMs([&] {
    std::istringstream in(chrome_json);
    std::string error;
    const std::optional<Trace> imported = ImportChromeTrace(in, &error);
    DD_CHECK(imported.has_value()) << error;
  });
  std::string cupti_lines;
  {
    std::ostringstream ss;
    ss << R"({"kind":"trace","model":"Bench","config":"synthetic"})"
       << "\n";
    const long long pairs = static_cast<long long>(trace.events().size()) / 2 + 1;
    for (long long i = 0; i < pairs; ++i) {
      const long long t0 = 1000 * i;
      ss << StrFormat(R"({"kind":"runtime","name":"cudaLaunchKernel","start":%lld,"end":%lld,)"
                      R"("processId":1,"threadId":0,"correlationId":%lld})",
                      t0, t0 + 400, i + 1)
         << "\n";
      ss << StrFormat(R"({"kind":"kernel","name":"bench_kernel","start":%lld,"end":%lld,)"
                      R"("streamId":0,"correlationId":%lld})",
                      t0 + 500, t0 + 900, i + 1)
         << "\n";
    }
    cupti_lines = ss.str();
  }
  const double import_cupti_ms = MeasureMs([&] {
    std::istringstream in(cupti_lines);
    std::string error;
    CuptiImportStats stats;
    const std::optional<Trace> imported = ImportCuptiTrace(in, &error, &stats);
    DD_CHECK(imported.has_value()) << error;
    DD_CHECK_EQ(stats.unmatched_gpu, 0u);
  });
  const double trace_events = static_cast<double>(trace.events().size());
  const double import_chrome_eps = trace_events / (import_chrome_ms / 1e3);
  const double import_cupti_eps = trace_events / (import_cupti_ms / 1e3);
  rows.push_back({"import_chrome", import_chrome_ms});
  rows.push_back({"import_cupti", import_cupti_ms});

  Daydream daydream(trace);
  rows.push_back({"what_if_amp_round_trip",
                  MeasureMs([&] { daydream.Predict([](DependencyGraph* g) { WhatIfAmp(g); }); })});

  // The cluster-scale graph: 64 replicated workers (shared helper in
  // ground_truth so tests exercise the same construction), still
  // untransformed so the distributed what-if itself can be benchmarked
  // against it.
  DependencyGraph cluster = ReplicateWorkers(graph, kReplicatedWorkers);
  const int base_cluster_tasks = cluster.num_alive();
  DistributedWhatIf dist;
  dist.cluster.machines = 4;
  dist.cluster.gpus_per_machine = 4;

  // -- pre-change numbers first, while the select indexes are still unbuilt
  // (the pre-change graph had none; a capacity-exact copy is its clone).
  const TaskPredicate scan_wu = PreChangePhaseIs(Phase::kWeightUpdate);
  const TaskPredicate scan_bwd_gpu = PreChangeAll([](const Task& t) { return t.is_gpu(); },
                                                  PreChangePhaseIs(Phase::kBackward));
  const double select_scan_ms = MeasureMs([&] {
    cluster.Select(scan_wu);
    cluster.Select(scan_bwd_gpu);
  });
  const double transform_prechange_ms = MeasureTransformMs(
      [&] { return DependencyGraph(cluster); },
      [&](DependencyGraph* g) { PreChangeWhatIfDistributed(g, trace.gradients(), dist); });

  // -- the rewritten mutation layer: warm indexes (Daydream does the same on
  // construction), Clone-per-case, structured selects.
  cluster.EnsureSelectIndexes();
  const double select_indexed_ms = MeasureMs([&] {
    cluster.Select(PhaseIs(Phase::kWeightUpdate));
    cluster.Select(All(IsOnGpu(), PhaseIs(Phase::kBackward)));
  });
  const double clone_ms = MeasureMs([&] { cluster.Clone(); }, 3, 15, 1500.0);
  const double transform_ms = MeasureTransformMs(
      [&] { return cluster.Clone(); },
      [&](DependencyGraph* g) { WhatIfDistributed(g, trace.gradients(), dist); });
  const double transform_speedup = transform_prechange_ms / transform_ms;
  const double select_speedup = select_scan_ms / select_indexed_ms;

  rows.push_back({"select_scan", select_scan_ms});
  rows.push_back({"select_indexed", select_indexed_ms});
  rows.push_back({"clone_graph_cluster", clone_ms});
  rows.push_back({"transform_distributed_cluster_prechange", transform_prechange_ms});
  rows.push_back({"transform_distributed_cluster", transform_ms});

  // Both transform paths must build the same what-if graph.
  DependencyGraph via_new = cluster.Clone();
  WhatIfDistributed(&via_new, trace.gradients(), dist);
  {
    DependencyGraph via_prechange = cluster.Clone();
    PreChangeWhatIfDistributed(&via_prechange, trace.gradients(), dist);
    const SimResult a = Simulator().Run(via_new);
    const SimResult b = Simulator().Run(via_prechange);
    DD_CHECK_EQ(a.makespan, b.makespan) << "mutation layers disagree on the what-if graph";
    DD_CHECK_EQ(a.dispatched, b.dispatched);
  }

  // The dispatch-throughput graph: the transformed cluster (wide frontier:
  // every worker's lanes are ready at once).
  const DependencyGraph& dispatch_graph = via_new;
  const int cluster_tasks = dispatch_graph.num_alive();

  const Simulator simulator;
  const SimPlan dispatch_plan = simulator.Compile(dispatch_graph);
  const SimResult plan_result = dispatch_plan.Run();
  const SimResult prechange_result =
      PreChangeRunEventEngine(dispatch_graph, *simulator.scheduler());
  const SimResult reference_result = simulator.RunReference(dispatch_graph);
  DD_CHECK_EQ(plan_result.makespan, reference_result.makespan)
      << "plan engine disagrees with the reference scan on the cluster graph";
  DD_CHECK_EQ(plan_result.dispatched, reference_result.dispatched);
  DD_CHECK_EQ(plan_result.makespan, prechange_result.makespan)
      << "plan engine disagrees with the pre-change event engine";
  DD_CHECK_EQ(plan_result.dispatched, prechange_result.dispatched);

  const double compile_ms = MeasureMs([&] { simulator.Compile(dispatch_graph); });
  const double plan_ms = MeasureMs([&] { dispatch_plan.Run(); });
  const double prechange_event_ms = MeasureMs(
      [&] { PreChangeRunEventEngine(dispatch_graph, *simulator.scheduler()); }, 3, 25, 1500.0);
  const double reference_ms =
      MeasureMs([&] { simulator.RunReference(dispatch_graph); }, 3, 25, 1500.0);
  const double plan_tps = static_cast<double>(cluster_tasks) / (plan_ms / 1e3);
  const double reference_tps = static_cast<double>(cluster_tasks) / (reference_ms / 1e3);
  const double dispatch_speedup = reference_ms / plan_ms;
  const double plan_speedup = prechange_event_ms / plan_ms;
  rows.push_back({"sim_plan_compile", compile_ms});
  rows.push_back({"dispatch_plan_cluster", plan_ms});
  rows.push_back({"dispatch_prechange_event_cluster", prechange_event_ms});
  rows.push_back({"dispatch_reference_cluster", reference_ms});

  // Sharded parallel dispatch over the same cluster plan: shard count sized
  // to the host (up to 8), compile outside the timed loop (the ShardPlan is
  // reusable across runs, like the SimPlan), exact-equality cross-check
  // before any timing.
  const int hardware = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int par_jobs = std::clamp(hardware, 1, 8);
  const ShardPlan dispatch_shards = ShardPlan::Compile(dispatch_plan, par_jobs);
  ThreadPool dispatch_pool(dispatch_shards.num_shards() - 1);
  {
    const SimResult sharded = dispatch_shards.Run(&dispatch_pool);
    DD_CHECK_EQ(sharded.makespan, plan_result.makespan)
        << "sharded dispatch disagrees with the serial plan engine";
    DD_CHECK_EQ(sharded.dispatched, plan_result.dispatched);
  }
  const double shard_compile_ms =
      MeasureMs([&] { ShardPlan::Compile(dispatch_plan, par_jobs); });
  const double parallel_ms = MeasureMs([&] { dispatch_shards.Run(&dispatch_pool); });
  const double parallel_speedup = plan_ms / parallel_ms;
  const bool parallel_gated = hardware >= kParallelGateCores;
  rows.push_back({"shard_plan_compile", shard_compile_ms});
  rows.push_back({"dispatch_plan_cluster_parallel", parallel_ms, par_jobs});

  // End-to-end cluster-scale sweep: one shared baseline plan, pipelined
  // clone+transform+compile against in-flight simulations. The case mix
  // exercises both plan paths — `amp` is timing-only (retimes the shared
  // structure), the distributed cases are structural (full compile).
  std::vector<SweepCase> sweep_cases;
  sweep_cases.push_back({"amp", [](DependencyGraph* g) { WhatIfAmp(g); }, nullptr});
  for (const double gbps : {10.0, 25.0, 40.0}) {
    DistributedWhatIf opts = dist;
    opts.cluster.network.bandwidth_gbps = gbps;
    sweep_cases.push_back({StrFormat("distributed 4x4 @ %.0f Gbps", gbps),
                           [&trace, opts](DependencyGraph* g) {
                             WhatIfDistributed(g, trace.gradients(), opts);
                           },
                           nullptr});
  }
  // The sweep's baseline is the *untransformed* cluster's makespan (the
  // dispatch graph above already carries the distributed what-if).
  const TimeNs cluster_baseline = Simulator().Run(cluster).makespan;
  const SweepRunner sweep_runner(cluster, cluster_baseline);
  const double sweep_ms = MeasureMs([&] { sweep_runner.Run(sweep_cases); }, 1, 3, 1.0);
  const double sweep_cases_per_sec =
      static_cast<double>(sweep_cases.size()) / (sweep_ms / 1e3);
  rows.push_back({"sweep_cluster", sweep_ms});

  // Pipeline-parallel what-if at cluster scale: an 8-stage x 32-micro-batch
  // 1F1B schedule predicted from the single-GPU profile, replicated across 16
  // data-parallel workers. The lane count scales with stages x workers (the
  // first workload family whose lanes grow with the what-if itself), so this
  // row tracks SimPlan compilation + dispatch on many-lane graphs.
  PipelineWhatIf pipe_opts;
  pipe_opts.num_stages = 8;
  pipe_opts.num_microbatches = 32;
  DependencyGraph pipe_worker = graph.Clone();
  WhatIfPipeline(&pipe_worker, BuildModel(kModel), pipe_opts);
  const DependencyGraph pipe_cluster = ReplicateWorkers(pipe_worker, 16);
  const SimPlan pipe_plan = simulator.Compile(pipe_cluster);
  DD_CHECK_EQ(pipe_plan.Run().makespan, simulator.RunReference(pipe_cluster).makespan)
      << "plan engine disagrees with the reference scan on the pipeline cluster graph";
  const double pipeline_ms = MeasureMs([&] {
    simulator.Compile(pipe_cluster);
    pipe_plan.Run();
  });
  rows.push_back({"pipeline_cluster", pipeline_ms});

  // Prediction-as-a-service: the load-once/query-many claim as numbers. A
  // cold query pays the whole per-invocation pipeline every CLI run used to
  // pay (graph build + structural lint + baseline compile + transform +
  // compile + simulate); a warm query against a live session is an answer
  // cache hit — a request-signature lookup, no simulation at all.
  std::string session_error;
  std::shared_ptr<TraceSession> session =
      TraceSession::Create(trace, SessionOptions{}, &session_error);
  DD_CHECK(session != nullptr) << session_error;
  WhatIfRequest serve_request;
  serve_request.what_if = "distributed";
  serve_request.cluster.machines = 4;
  serve_request.cluster.gpus_per_machine = 4;
  PredictOutcome serve_outcome;
  DD_CHECK(session->Predict(serve_request, &serve_outcome, &session_error) == SessionStatus::kOk)
      << session_error;  // prime the caches
  const double serve_warm_ms = MeasureMs([&] {
    PredictOutcome outcome;
    std::string error;
    DD_CHECK(session->Predict(serve_request, &outcome, &error) == SessionStatus::kOk) << error;
    DD_CHECK(outcome.cache_hit) << "warm serve query missed the answer cache";
  });
  // The acceptance gate's cache-stats assertion: every measured warm query
  // above was a hit, and the single prime was the only miss.
  DD_CHECK_EQ(session->plan_cache_stats().misses, 1u);
  DD_CHECK(session->plan_cache_stats().hits >= 3u);
  const double serve_cold_ms = MeasureMs(
      [&] {
        std::string error;
        std::shared_ptr<TraceSession> cold =
            TraceSession::Create(trace, SessionOptions{}, &error);
        DD_CHECK(cold != nullptr) << error;
        PredictOutcome outcome;
        DD_CHECK(cold->Predict(serve_request, &outcome, &error) == SessionStatus::kOk) << error;
      },
      3, 15, 1500.0);
  const double serve_warm_qps = 1e3 / serve_warm_ms;
  const double serve_cold_qps = 1e3 / serve_cold_ms;
  const double serve_speedup = serve_cold_ms / serve_warm_ms;
  rows.push_back({"serve_warm_query", serve_warm_ms});
  rows.push_back({"serve_cold_query", serve_cold_ms});

  TablePrinter table({"benchmark", "best(ms)"});
  for (const BenchRow& row : rows) {
    table.AddRow({row.name, StrFormat("%.2f", row.ms)});
  }
  table.Print(std::cout);
  std::cout << StrFormat(
      "\ndispatch throughput (%d tasks, %d workers): reference %.0f tasks/s, "
      "plan %.0f tasks/s — %.1fx (pre-change event engine %.1f ms — %.1fx; "
      "plan compile %.1f ms)\n",
      cluster_tasks, kReplicatedWorkers, reference_tps, plan_tps, dispatch_speedup,
      prechange_event_ms, plan_speedup, compile_ms);
  std::cout << StrFormat(
      "parallel dispatch (%d shards on %d hw threads): serial %.1f ms, sharded %.1f ms — %.2fx "
      "(shard compile %.1f ms; floor %.1fx %s)\n",
      dispatch_shards.num_shards(), hardware, plan_ms, parallel_ms, parallel_speedup,
      shard_compile_ms, kMinParallelSpeedup,
      parallel_gated ? "gated" : "not gated: host below 8 threads");
  std::cout << StrFormat(
      "distributed transform (%d tasks): pre-change %.1f ms, intrusive+indexed %.1f ms — %.1fx "
      "(selects alone: %.1f ms -> %.1f ms, %.1fx)\n",
      base_cluster_tasks, transform_prechange_ms, transform_ms, transform_speedup, select_scan_ms,
      select_indexed_ms, select_speedup);
  std::cout << StrFormat(
      "cluster sweep (%zu cases over %d tasks): %.1f ms — %.2f cases/s\n",
      sweep_cases.size(), base_cluster_tasks, sweep_ms, sweep_cases_per_sec);
  std::cout << StrFormat(
      "pipeline cluster (8st x 32mb 1f1b x 16 workers: %d tasks, %d lanes): "
      "compile+dispatch %.1f ms\n",
      pipe_cluster.num_alive(), pipe_cluster.num_lanes(), pipeline_ms);
  std::cout << StrFormat(
      "trace import (%s, %.0f events): chrome %.1f ms (%.0f events/s), "
      "cupti %.1f ms (%.0f events/s)\n",
      ModelName(kModel), trace_events, import_chrome_ms, import_chrome_eps, import_cupti_ms,
      import_cupti_eps);
  std::cout << StrFormat(
      "serve (%s, distributed 4x4): warm %.2f ms (%.0f qps) vs cold %.1f ms "
      "(%.1f qps) — %.1fx\n",
      ModelName(kModel), serve_warm_ms, serve_warm_qps, serve_cold_ms, serve_cold_qps,
      serve_speedup);

  std::ofstream json(out_path);
  if (!json.good()) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  json << "{\n  \"schema\": \"daydream-bench-simulator-v4\",\n";
  json << StrFormat("  \"model\": \"%s\",\n", ModelName(kModel));
  json << "  \"host\": {\n";
  json << StrFormat("    \"hardware_concurrency\": %d\n", hardware);
  json << "  },\n";
  json << "  \"benchmarks\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    json << StrFormat("    {\"name\": \"%s\", \"ms\": %.3f, \"sim_jobs\": %d}%s\n",
                      rows[i].name.c_str(), rows[i].ms, rows[i].sim_jobs,
                      i + 1 < rows.size() ? "," : "");
  }
  json << "  ],\n";
  json << "  \"dispatch\": {\n";
  json << StrFormat("    \"graph\": \"%s x%d workers + distributed 4x4\",\n", ModelName(kModel),
                    kReplicatedWorkers);
  json << StrFormat("    \"tasks\": %d,\n", cluster_tasks);
  json << StrFormat("    \"reference_ms\": %.3f,\n", reference_ms);
  json << StrFormat("    \"plan_ms\": %.3f,\n", plan_ms);
  json << StrFormat("    \"reference_tasks_per_sec\": %.0f,\n", reference_tps);
  json << StrFormat("    \"plan_tasks_per_sec\": %.0f,\n", plan_tps);
  json << StrFormat("    \"speedup\": %.2f,\n", dispatch_speedup);
  json << StrFormat("    \"floor\": %.1f\n", kMinDispatchSpeedup);
  json << "  },\n";
  json << "  \"parallel_dispatch\": {\n";
  json << StrFormat("    \"graph\": \"%s x%d workers + distributed 4x4\",\n", ModelName(kModel),
                    kReplicatedWorkers);
  json << StrFormat("    \"tasks\": %d,\n", cluster_tasks);
  json << StrFormat("    \"serial_ms\": %.3f,\n", plan_ms);
  json << StrFormat("    \"parallel_ms\": %.3f,\n", parallel_ms);
  json << StrFormat("    \"compile_ms\": %.3f,\n", shard_compile_ms);
  json << StrFormat("    \"sim_jobs\": %d,\n", par_jobs);
  json << StrFormat("    \"shards\": %d,\n", dispatch_shards.num_shards());
  json << StrFormat("    \"hardware_concurrency\": %d,\n", hardware);
  json << StrFormat("    \"speedup\": %.2f,\n", parallel_speedup);
  json << StrFormat("    \"floor\": %.1f,\n", kMinParallelSpeedup);
  json << StrFormat("    \"gated\": %s\n", parallel_gated ? "true" : "false");
  json << "  },\n";
  json << "  \"plan\": {\n";
  json << StrFormat("    \"graph\": \"%s x%d workers + distributed 4x4\",\n", ModelName(kModel),
                    kReplicatedWorkers);
  json << StrFormat("    \"tasks\": %d,\n", cluster_tasks);
  json << StrFormat("    \"prechange_event_ms\": %.3f,\n", prechange_event_ms);
  json << StrFormat("    \"plan_ms\": %.3f,\n", plan_ms);
  json << StrFormat("    \"compile_ms\": %.3f,\n", compile_ms);
  json << StrFormat("    \"speedup\": %.2f,\n", plan_speedup);
  json << StrFormat("    \"floor\": %.1f\n", kMinPlanSpeedup);
  json << "  },\n";
  json << "  \"transform\": {\n";
  json << StrFormat("    \"graph\": \"%s x%d workers\",\n", ModelName(kModel), kReplicatedWorkers);
  json << StrFormat("    \"tasks\": %d,\n", base_cluster_tasks);
  json << StrFormat("    \"prechange_ms\": %.3f,\n", transform_prechange_ms);
  json << StrFormat("    \"indexed_ms\": %.3f,\n", transform_ms);
  json << StrFormat("    \"clone_ms\": %.3f,\n", clone_ms);
  json << StrFormat("    \"select_scan_ms\": %.3f,\n", select_scan_ms);
  json << StrFormat("    \"select_indexed_ms\": %.3f,\n", select_indexed_ms);
  json << StrFormat("    \"speedup\": %.2f,\n", transform_speedup);
  json << StrFormat("    \"floor\": %.1f\n", kMinTransformSpeedup);
  json << "  },\n";
  json << "  \"sweep\": {\n";
  json << StrFormat("    \"graph\": \"%s x%d workers\",\n", ModelName(kModel), kReplicatedWorkers);
  json << StrFormat("    \"tasks\": %d,\n", base_cluster_tasks);
  json << StrFormat("    \"cases\": %zu,\n", sweep_cases.size());
  json << StrFormat("    \"ms\": %.3f,\n", sweep_ms);
  json << StrFormat("    \"cases_per_sec\": %.2f\n", sweep_cases_per_sec);
  json << "  },\n";
  json << "  \"serve\": {\n";
  json << StrFormat("    \"graph\": \"%s + distributed 4x4\",\n", ModelName(kModel));
  json << StrFormat("    \"warm_ms\": %.3f,\n", serve_warm_ms);
  json << StrFormat("    \"cold_ms\": %.3f,\n", serve_cold_ms);
  json << StrFormat("    \"warm_qps\": %.1f,\n", serve_warm_qps);
  json << StrFormat("    \"cold_qps\": %.1f,\n", serve_cold_qps);
  json << StrFormat("    \"speedup\": %.2f,\n", serve_speedup);
  json << StrFormat("    \"floor\": %.1f\n", kMinServeSpeedup);
  json << "  }\n}\n";
  std::cout << "wrote " << out_path << "\n";

  // The rewrites' reasons to exist: fail the run (and CI) if any headline
  // advantage regresses below its accepted floor.
  bool failed = false;
  if (dispatch_speedup < kMinDispatchSpeedup) {
    std::cerr << StrFormat("FAIL: dispatch speedup %.2fx below the %.1fx floor\n",
                           dispatch_speedup, kMinDispatchSpeedup);
    failed = true;
  }
  if (plan_speedup < kMinPlanSpeedup) {
    std::cerr << StrFormat("FAIL: plan-vs-prechange-event speedup %.2fx below the %.1fx floor\n",
                           plan_speedup, kMinPlanSpeedup);
    failed = true;
  }
  if (transform_speedup < kMinTransformSpeedup) {
    std::cerr << StrFormat("FAIL: transform speedup %.2fx below the %.1fx floor\n",
                           transform_speedup, kMinTransformSpeedup);
    failed = true;
  }
  if (serve_speedup < kMinServeSpeedup) {
    std::cerr << StrFormat("FAIL: warm-vs-cold serve QPS %.2fx below the %.1fx floor\n",
                           serve_speedup, kMinServeSpeedup);
    failed = true;
  }
  if (parallel_gated && parallel_speedup < kMinParallelSpeedup) {
    std::cerr << StrFormat(
        "FAIL: parallel dispatch speedup %.2fx below the %.1fx floor (%d hw threads)\n",
        parallel_speedup, kMinParallelSpeedup, hardware);
    failed = true;
  }
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace daydream

int main(int argc, char** argv) { return daydream::Main(argc, argv); }
