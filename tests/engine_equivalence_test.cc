// Differential test between the two simulator engines: the compiled-plan
// event engine (Simulator::Run, or an explicit SimPlan) must reproduce the
// reference Algorithm-1 scan (RunReference, src/core/reference_engine.h)
// *exactly* — same makespan, same per-task start/end, same per-lane
// accounting — on every model in the zoo under every what-if transformation,
// on P3's priority-scheduled parameter-server graphs, on replicated
// multi-worker cluster graphs, and on seeded random DAGs. The
// plan Retime path (shared structure block, rebuilt timings/keys) gets the
// same treatment.
#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/graph_builder.h"
#include "src/core/optimizations/optimizations.h"
#include "src/core/predictor.h"
#include "src/core/reference_engine.h"
#include "src/core/sim_plan.h"
#include "src/core/transform.h"
#include "src/runtime/ground_truth.h"
#include "src/util/thread_pool.h"

namespace daydream {
namespace {

void ExpectSameResult(const SimResult& reference, const SimResult& event) {
  EXPECT_EQ(reference.makespan, event.makespan);
  EXPECT_EQ(reference.start, event.start);
  EXPECT_EQ(reference.end, event.end);
  EXPECT_EQ(reference.lane_threads, event.lane_threads);
  EXPECT_EQ(reference.lane_busy, event.lane_busy);
  EXPECT_EQ(reference.lane_end, event.lane_end);
  EXPECT_EQ(reference.dispatched, event.dispatched);
}

// Traces are expensive to collect; cache one per (model, iterations).
const Trace& CachedTrace(ModelId model, int iterations = 1) {
  static std::map<std::pair<ModelId, int>, Trace>* cache =
      new std::map<std::pair<ModelId, int>, Trace>();
  const auto key = std::make_pair(model, iterations);
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, CollectBaselineTrace(DefaultRunConfig(model), iterations)).first;
  }
  return it->second;
}

struct WhatIfCase {
  const char* name;
  // Applies the transformation; receives the model graph for layer-structured
  // what-ifs and the trace for gradient metadata.
  std::function<void(DependencyGraph*, const ModelGraph&, const Trace&)> apply;
};

const std::vector<WhatIfCase>& WhatIfs() {
  static const std::vector<WhatIfCase>* cases = new std::vector<WhatIfCase>{
      {"baseline", [](DependencyGraph*, const ModelGraph&, const Trace&) {}},
      {"amp", [](DependencyGraph* g, const ModelGraph&, const Trace&) { WhatIfAmp(g); }},
      {"fused_adam",
       [](DependencyGraph* g, const ModelGraph&, const Trace&) { WhatIfFusedAdam(g); }},
      {"rbn",
       [](DependencyGraph* g, const ModelGraph& m, const Trace&) {
         WhatIfRestructuredBatchnorm(g, m);
       }},
      {"metaflow",
       [](DependencyGraph* g, const ModelGraph& m, const Trace&) { WhatIfMetaFlowFuseConvBn(g, m); }},
      {"gist", [](DependencyGraph* g, const ModelGraph& m, const Trace&) { WhatIfGist(g, m); }},
      {"vdnn", [](DependencyGraph* g, const ModelGraph& m, const Trace&) { WhatIfVdnn(g, m); }},
      {"distributed_4x2",
       [](DependencyGraph* g, const ModelGraph&, const Trace& t) {
         DistributedWhatIf opts;
         opts.cluster.machines = 4;
         opts.cluster.gpus_per_machine = 2;
         WhatIfDistributed(g, t.gradients(), opts);
       }},
      {"distributed_2x2_25gbps",
       [](DependencyGraph* g, const ModelGraph&, const Trace& t) {
         DistributedWhatIf opts;
         opts.cluster.machines = 2;
         opts.cluster.gpus_per_machine = 2;
         opts.cluster.network.bandwidth_gbps = 25.0;
         WhatIfDistributed(g, t.gradients(), opts);
       }},
  };
  return *cases;
}

class EngineEquivalence : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EngineEquivalence, EventEngineReproducesReference) {
  const ModelId model = AllModels()[static_cast<size_t>(std::get<0>(GetParam()))];
  const WhatIfCase& what_if = WhatIfs()[static_cast<size_t>(std::get<1>(GetParam()))];

  const Trace& trace = CachedTrace(model);
  const ModelGraph model_graph = BuildModel(model);
  DependencyGraph graph = BuildDependencyGraph(trace);
  what_if.apply(&graph, model_graph, trace);

  const Simulator simulator;  // EarliestStart
  ExpectSameResult(RunReference(graph, simulator.scheduler()), simulator.Run(graph));
}

std::string CaseName(const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  std::string name = ModelName(AllModels()[static_cast<size_t>(std::get<0>(info.param))]);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name + "__" + WhatIfs()[static_cast<size_t>(std::get<1>(info.param))].name;
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllWhatIfs, EngineEquivalence,
    ::testing::Combine(::testing::Range(0, static_cast<int>(AllModels().size())),
                       ::testing::Range(0, static_cast<int>(WhatIfs().size()))),
    CaseName);

// The priority scheduler drives P3's parameter-server graphs: push/pull chains
// with per-slice priorities on two communication channels.
TEST(EngineEquivalencePriority, P3ParameterServerGraphs) {
  for (ModelId model : {ModelId::kResNet50, ModelId::kGnmt, ModelId::kVgg19}) {
    const Trace& trace = CachedTrace(model, /*iterations=*/2);
    const Daydream daydream(trace);
    DependencyGraph graph = daydream.CloneGraph();
    PsWhatIf options;
    WhatIfP3(&graph, BuildModel(model), options);

    const Simulator priority{PriorityCommScheduler()};
    ExpectSameResult(RunReference(graph, priority.scheduler()), priority.Run(graph));
  }
}

TEST(EngineEquivalencePriority, DistributedGraphs) {
  for (ModelId model : {ModelId::kResNet50, ModelId::kBertBase}) {
    const Trace& trace = CachedTrace(model);
    DependencyGraph graph = BuildDependencyGraph(trace);
    DistributedWhatIf opts;
    opts.cluster.machines = 4;
    opts.cluster.gpus_per_machine = 2;
    WhatIfDistributed(&graph, trace.gradients(), opts);

    const Simulator priority{PriorityCommScheduler()};
    ExpectSameResult(RunReference(graph, priority.scheduler()), priority.Run(graph));
  }
}

// Random DAGs: tasks on realistic lane kinds (comm tasks on comm channels),
// random forward edges, zero durations and gaps included — the adversarial
// shapes for ready-structure bookkeeping.
DependencyGraph RandomGraph(int seed, bool with_priorities) {
  std::mt19937 rng(static_cast<unsigned>(seed));
  DependencyGraph g;
  const int cpu_threads = 1 + static_cast<int>(rng() % 3);
  const int gpu_streams = 1 + static_cast<int>(rng() % 3);
  const int comm_channels = 1 + static_cast<int>(rng() % 2);
  const int num_tasks = 120 + static_cast<int>(rng() % 80);

  std::vector<TaskId> ids;
  for (int i = 0; i < num_tasks; ++i) {
    Task t;
    const int lane = static_cast<int>(rng() % 10);
    if (lane < 4) {
      t.type = TaskType::kCpu;
      t.thread = ExecThread::Cpu(static_cast<int>(rng()) % cpu_threads);
    } else if (lane < 8) {
      t.type = TaskType::kGpu;
      t.thread = ExecThread::Gpu(static_cast<int>(rng()) % gpu_streams);
    } else {
      t.type = TaskType::kComm;
      t.thread = ExecThread::Comm(static_cast<int>(rng()) % comm_channels);
      if (with_priorities) {
        t.priority = static_cast<int>(rng() % 5);
      }
    }
    t.duration = static_cast<TimeNs>(rng() % 50) * Us(1);  // zero durations included
    t.gap = static_cast<TimeNs>(rng() % 4) * Us(1);
    ids.push_back(g.AddTask(std::move(t)));
  }
  for (int i = 0; i < num_tasks; ++i) {
    for (int j = i + 1; j < num_tasks; ++j) {
      if (rng() % 100 < 3) {  // sparse forward edges keep the frontier wide
        g.AddEdge(ids[static_cast<size_t>(i)], ids[static_cast<size_t>(j)]);
      }
    }
  }
  return g;
}

class RandomGraphEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomGraphEquivalence, EarliestStart) {
  const DependencyGraph g = RandomGraph(GetParam(), /*with_priorities=*/false);
  const Simulator simulator;
  ExpectSameResult(RunReference(g, simulator.scheduler()), simulator.Run(g));
}

TEST_P(RandomGraphEquivalence, PriorityComm) {
  const DependencyGraph g = RandomGraph(GetParam() + 1000, /*with_priorities=*/true);
  const Simulator simulator{PriorityCommScheduler()};
  ExpectSameResult(RunReference(g, simulator.scheduler()), simulator.Run(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphEquivalence, ::testing::Range(1, 13));

// ---- Pipeline-parallel schedules ----
//
// Every generated pipeline graph (stages x micro-batches x schedule kind)
// must dispatch identically on the compiled-plan event engine and the
// reference Algorithm-1 scan: the lane count scales with stages and the
// schedule is pinned by lane order, which makes these the widest-frontier
// graphs a what-if produces from a single profile.
class PipelineDifferential
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};  // stages, mb, schedule

TEST_P(PipelineDifferential, EventEngineReproducesReference) {
  const int stages = std::get<0>(GetParam());
  const int microbatches = std::get<1>(GetParam());
  const auto kind = std::get<2>(GetParam()) == 0 ? PipelineScheduleKind::kGPipe
                                                 : PipelineScheduleKind::k1F1B;

  const Trace& trace = CachedTrace(ModelId::kTinyMlp);
  const ModelGraph model = BuildModel(ModelId::kTinyMlp);
  DependencyGraph graph = BuildDependencyGraph(trace);
  PipelineWhatIf options;
  options.num_stages = stages;
  options.num_microbatches = microbatches;
  options.schedule = kind;
  WhatIfPipeline(&graph, model, options);

  const Simulator simulator;
  ExpectSameResult(RunReference(graph, simulator.scheduler()), simulator.Run(graph));
}

std::string PipelineCaseName(const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
  return std::string(std::get<2>(info.param) == 0 ? "gpipe" : "fb") + "_s" +
         std::to_string(std::get<0>(info.param)) + "_m" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(StagesByMicrobatches, PipelineDifferential,
                         ::testing::Combine(::testing::Values(2, 3, 4, 8),
                                            ::testing::Values(1, 2, 4, 7),
                                            ::testing::Values(0, 1)),
                         PipelineCaseName);

// The same differential on a paper model, at the shapes the CLI sweeps.
TEST(PipelineDifferentialModels, GnmtPipelines) {
  const Trace& trace = CachedTrace(ModelId::kGnmt);
  const ModelGraph model = BuildModel(ModelId::kGnmt);
  for (const auto kind : {PipelineScheduleKind::kGPipe, PipelineScheduleKind::k1F1B}) {
    for (const int stages : {2, 4}) {
      DependencyGraph graph = BuildDependencyGraph(trace);
      PipelineWhatIf options;
      options.num_stages = stages;
      options.num_microbatches = 4;
      options.schedule = kind;
      WhatIfPipeline(&graph, model, options);
      const Simulator simulator;
      ExpectSameResult(RunReference(graph, simulator.scheduler()), simulator.Run(graph));
    }
  }
}

// Random retimes of a pipeline plan: the shared-structure Retime path must
// stay exact on stage-by-micro-batch lane layouts.
TEST(PipelineDifferentialRetime, RandomRetimesMatchReference) {
  const Trace& trace = CachedTrace(ModelId::kTinyMlp);
  const ModelGraph model = BuildModel(ModelId::kTinyMlp);
  std::mt19937 rng(20260730);
  for (int round = 0; round < 6; ++round) {
    DependencyGraph graph = BuildDependencyGraph(trace);
    PipelineWhatIf options;
    options.num_stages = 2 + round % 3;
    options.num_microbatches = 1 + round;
    options.schedule =
        round % 2 == 0 ? PipelineScheduleKind::kGPipe : PipelineScheduleKind::k1F1B;
    WhatIfPipeline(&graph, model, options);

    const SimPlan donor = SimPlan::Compile(graph, EarliestStartScheduler());
    DependencyGraph scaled = graph.Clone();
    for (TaskId id : scaled.AliveTasks()) {
      Task& t = scaled.task(id);
      t.duration = t.duration / (1 + static_cast<TimeNs>(rng() % 4));
      if (rng() % 3 == 0) {
        t.gap = static_cast<TimeNs>(rng() % 20) * Us(1);
      }
    }
    ASSERT_TRUE(donor.CompatibleWith(scaled));
    const SimPlan retimed = SimPlan::Retime(donor, scaled, EarliestStartScheduler());
    ExpectSameResult(RunReference(scaled), retimed.Run());
  }
}

// ---- Compiled-plan specifics: explicit Compile / Retime / invalidation ----

TEST(SimPlanDifferential, ClusterGraphsMatchReferenceUnderBothSchedulers) {
  // Distributed data-parallel cluster graphs: the single-worker profile
  // replicated across workers (the shared ReplicateWorkers helper perf_core
  // benches with), plus the allReduce schedule of the what-if.
  const Trace& trace = CachedTrace(ModelId::kResNet50);
  DependencyGraph worker = BuildDependencyGraph(trace);
  DistributedWhatIf opts;
  opts.cluster.machines = 2;
  opts.cluster.gpus_per_machine = 2;
  WhatIfDistributed(&worker, trace.gradients(), opts);
  const DependencyGraph cluster = ReplicateWorkers(worker, 4);

  for (const auto& scheduler : {Scheduler(EarliestStartScheduler()),
                                Scheduler(PriorityCommScheduler())}) {
    const Simulator simulator(scheduler);
    const SimPlan plan = simulator.Compile(cluster);
    EXPECT_EQ(plan.num_tasks(), cluster.num_alive());
    EXPECT_EQ(plan.num_lanes(), cluster.num_lanes());
    ExpectSameResult(RunReference(cluster, simulator.scheduler()), plan.Run());
  }
}

TEST(SimPlanDifferential, RetimeMatchesFreshCompileAndReference) {
  const Trace& trace = CachedTrace(ModelId::kGnmt);
  const Daydream daydream(trace);

  // A timing-only what-if: AMP-style duration scaling plus gap and priority
  // edits — everything Retime must re-read, nothing that bumps the stamp.
  DependencyGraph transformed = daydream.CloneGraph();
  ASSERT_EQ(transformed.structure_stamp(), daydream.graph().structure_stamp());
  WhatIfAmp(&transformed);
  int flip = 0;
  for (TaskId id : transformed.Select(IsOnCpu())) {
    Task& t = transformed.task(id);
    t.gap = t.gap / 2;
    t.priority = (++flip % 3) - 1;
  }
  ASSERT_EQ(transformed.structure_stamp(), daydream.graph().structure_stamp());
  ASSERT_TRUE(daydream.baseline_plan().CompatibleWith(transformed));

  for (const auto& scheduler : {Scheduler(EarliestStartScheduler()),
                                Scheduler(PriorityCommScheduler())}) {
    const Simulator simulator(scheduler);
    const SimPlan retimed = SimPlan::Retime(daydream.baseline_plan(), transformed, scheduler);
    const SimPlan fresh = SimPlan::Compile(transformed, scheduler);
    const SimResult reference = RunReference(transformed, simulator.scheduler());
    ExpectSameResult(reference, retimed.Run());
    ExpectSameResult(reference, fresh.Run());
  }
}

TEST(SimPlanDifferential, StructuralMutationInvalidatesCompatibility) {
  const Trace& trace = CachedTrace(ModelId::kResNet50);
  const Daydream daydream(trace);

  DependencyGraph timing_only = daydream.CloneGraph();
  WhatIfAmp(&timing_only);
  EXPECT_TRUE(daydream.baseline_plan().CompatibleWith(timing_only));

  DependencyGraph structural = daydream.CloneGraph();
  WhatIfFusedAdam(&structural);  // removes tasks
  EXPECT_FALSE(daydream.baseline_plan().CompatibleWith(structural));

  // The what-if pipeline retimes the first and falls back to a full compile
  // for the second — and both plans still match the reference engine.
  using Transform = std::function<void(DependencyGraph*)>;
  for (const auto& [graph, transform, retimed] :
       {std::make_tuple(&timing_only, Transform([](DependencyGraph* g) { WhatIfAmp(g); }), true),
        std::make_tuple(&structural, Transform([](DependencyGraph* g) { WhatIfFusedAdam(g); }),
                        false)}) {
    PreparedWhatIf prepared;
    LintReport report;
    ASSERT_EQ(daydream.Prepare(transform, WhatIfOptions{}, &prepared, &report), WhatIfStatus::kOk)
        << report.ToString();
    EXPECT_EQ(prepared.retimed, retimed);
    EXPECT_EQ(prepared.tasks, graph->num_alive());
    ExpectSameResult(RunReference(*graph), prepared.plan.Run());
  }
}

TEST(SimPlanDifferential, RandomGraphRetime) {
  std::mt19937 rng(4242);
  for (int seed = 1; seed <= 8; ++seed) {
    const DependencyGraph base = RandomGraph(seed + 900, /*with_priorities=*/true);
    const SimPlan donor = SimPlan::Compile(base, EarliestStartScheduler());
    DependencyGraph scaled = base.Clone();
    for (TaskId id : scaled.AliveTasks()) {
      Task& t = scaled.task(id);
      t.duration = t.duration / (1 + static_cast<TimeNs>(rng() % 3));
      if (rng() % 4 == 0) {
        t.gap = 0;
      }
    }
    ASSERT_TRUE(donor.CompatibleWith(scaled));
    const EarliestStartScheduler scheduler;
    const SimPlan retimed = SimPlan::Retime(donor, scaled, scheduler);
    ExpectSameResult(RunReference(scaled), retimed.Run());
  }
}

// ---- Deterministic tie-break regression ----
//
// Equal feasible times on one lane must dispatch in ascending task id (the
// documented determinism contract), identically across engines and runs.
TEST(TieBreakRegression, SameLaneTiesDispatchInIdOrder) {
  DependencyGraph g;
  std::vector<TaskId> ids;
  for (int i = 0; i < 6; ++i) {
    Task t;
    t.type = TaskType::kGpu;
    t.thread = ExecThread::Gpu(0);
    t.duration = Us(10);
    ids.push_back(g.AddTask(std::move(t)));
  }
  const Simulator simulator;
  const SimResult a = simulator.Run(g);
  const SimResult b = simulator.Run(g);
  EXPECT_EQ(a.start, b.start);
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_LT(a.start[static_cast<size_t>(ids[i - 1])], a.start[static_cast<size_t>(ids[i])]);
  }
  ExpectSameResult(RunReference(g, simulator.scheduler()), a);
}

TEST(TieBreakRegression, PriorityBeatsIdOnCommChannel) {
  DependencyGraph g;
  Task low;
  low.type = TaskType::kComm;
  low.thread = ExecThread::Comm(0);
  low.duration = Us(10);
  low.priority = 1;
  const TaskId low_id = g.AddTask(std::move(low));
  Task high;
  high.type = TaskType::kComm;
  high.thread = ExecThread::Comm(0);
  high.duration = Us(10);
  high.priority = 7;
  const TaskId high_id = g.AddTask(std::move(high));

  const Simulator priority{PriorityCommScheduler()};
  const SimResult r = priority.Run(g);
  EXPECT_LT(r.start[static_cast<size_t>(high_id)], r.start[static_cast<size_t>(low_id)]);
  ExpectSameResult(RunReference(g, priority.scheduler()), r);
}

// A task that becomes ready while its lane is still busy joins the tie-break
// pool and must lose the id tie-break it would have won on bound order alone.
TEST(TieBreakRegression, LateReadyTaskJoinsTiePool) {
  DependencyGraph g;
  // Lane occupier: busy until 30us with a 20us trailing gap -> progress 50us.
  Task busy;
  busy.type = TaskType::kGpu;
  busy.thread = ExecThread::Gpu(0);
  busy.duration = Us(30);
  busy.gap = Us(20);
  const TaskId busy_id = g.AddTask(std::move(busy));

  // Gate on another lane finishing at 40us, feeding the later-id task.
  Task gate;
  gate.type = TaskType::kCpu;
  gate.thread = ExecThread::Cpu(0);
  gate.duration = Us(40);
  const TaskId gate_id = g.AddTask(std::move(gate));

  Task first;  // ready at t=0, id smaller
  first.type = TaskType::kGpu;
  first.thread = ExecThread::Gpu(0);
  first.duration = Us(10);
  const TaskId first_id = g.AddTask(std::move(first));

  Task second;  // becomes ready at 40us < progress 50us -> same tie pool
  second.type = TaskType::kGpu;
  second.thread = ExecThread::Gpu(0);
  second.duration = Us(10);
  const TaskId second_id = g.AddTask(std::move(second));
  g.AddEdge(gate_id, second_id);

  const Simulator simulator;
  const SimResult r = simulator.Run(g);
  EXPECT_EQ(r.start[static_cast<size_t>(busy_id)], 0);
  // Both become feasible at progress=50us; lower id dispatches first.
  EXPECT_EQ(r.start[static_cast<size_t>(first_id)], Us(50));
  EXPECT_EQ(r.start[static_cast<size_t>(second_id)], Us(60));
  ExpectSameResult(RunReference(g, simulator.scheduler()), r);
}

// ---- Sharded parallel dispatch ----
//
// The windowed barrier engine must be *exactly* equal to both oracles — the
// reference scan and the serial plan dispatch — at every sim_jobs level. The
// contract is byte-identical SimResults, not approximate equality, so the
// whole zoo x what-if matrix runs through ExpectSameResult, and the random
// DAGs (zero durations, bound ties, cross-lane webs) hammer the shard
// boundaries and the stall fallback.

const std::vector<int>& ShardJobLevels() {
  static const std::vector<int>* levels = new std::vector<int>{1, 2, 4, 8};
  return *levels;
}

// Runs the full differential at every job level: parallel vs reference and
// parallel vs serial plan dispatch.
void ExpectShardedMatches(const DependencyGraph& graph, const Scheduler& scheduler) {
  const SimPlan plan = SimPlan::Compile(graph, scheduler);
  const SimResult serial = plan.Run();
  ExpectSameResult(RunReference(graph, scheduler), serial);
  for (const int jobs : ShardJobLevels()) {
    const ShardPlan shards = ShardPlan::Compile(plan, jobs);
    EXPECT_LE(shards.num_shards(), std::max(1, jobs));
    ThreadPool pool(shards.num_shards() - 1);
    ExpectSameResult(serial, shards.Run(&pool));
    // Pool-less path (orchestrator thread runs every shard) must match too.
    ExpectSameResult(serial, shards.Run(nullptr));
  }
}

class ShardDifferential : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ShardDifferential, ParallelDispatchReproducesReference) {
  const ModelId model = AllModels()[static_cast<size_t>(std::get<0>(GetParam()))];
  const WhatIfCase& what_if = WhatIfs()[static_cast<size_t>(std::get<1>(GetParam()))];

  const Trace& trace = CachedTrace(model);
  const ModelGraph model_graph = BuildModel(model);
  DependencyGraph graph = BuildDependencyGraph(trace);
  what_if.apply(&graph, model_graph, trace);

  ExpectShardedMatches(graph, EarliestStartScheduler());
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllWhatIfs, ShardDifferential,
    ::testing::Combine(::testing::Range(0, static_cast<int>(AllModels().size())),
                       ::testing::Range(0, static_cast<int>(WhatIfs().size()))),
    CaseName);

class ShardRandomGraph : public ::testing::TestWithParam<int> {};

TEST_P(ShardRandomGraph, EarliestStart) {
  ExpectShardedMatches(RandomGraph(GetParam() + 2000, /*with_priorities=*/false),
                       EarliestStartScheduler());
}

TEST_P(ShardRandomGraph, PriorityComm) {
  ExpectShardedMatches(RandomGraph(GetParam() + 3000, /*with_priorities=*/true),
                       PriorityCommScheduler());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardRandomGraph, ::testing::Range(1, 13));

TEST(ShardDifferentialCluster, ReplicatedDistributedWorkers) {
  // The target workload shape: replicated workers joined by an all-reduce
  // channel — the partition that gives real multi-shard parallelism.
  const Trace& trace = CachedTrace(ModelId::kResNet50);
  DependencyGraph worker = BuildDependencyGraph(trace);
  DistributedWhatIf opts;
  opts.cluster.machines = 2;
  opts.cluster.gpus_per_machine = 2;
  DependencyGraph cluster = ReplicateWorkers(worker, 4);
  WhatIfDistributed(&cluster, trace.gradients(), opts);

  const SimPlan plan = SimPlan::Compile(cluster, EarliestStartScheduler());
  const SimResult serial = plan.Run();
  for (const int jobs : ShardJobLevels()) {
    const ShardPlan shards = ShardPlan::Compile(plan, jobs);
    if (jobs > 1) {
      // 4 worker components + comm channels: sharding must actually split.
      EXPECT_GE(shards.num_shards(), std::min(jobs, 2));
    }
    ThreadPool pool(shards.num_shards() - 1);
    ExpectSameResult(serial, shards.Run(&pool));
  }
  ExpectSameResult(RunReference(cluster), serial);
}

TEST(ShardDifferentialRetime, RetimedPlansReshardExactly) {
  // Retime invalidates a ShardPlan's window bounds (timing changed), so the
  // supported pattern is recompile-from-retimed-plan; the result must track
  // the reference on the scaled graph at every job level.
  std::mt19937 rng(77);
  for (int seed = 1; seed <= 6; ++seed) {
    const DependencyGraph base = RandomGraph(seed + 4000, /*with_priorities=*/false);
    const SimPlan donor = SimPlan::Compile(base, EarliestStartScheduler());
    DependencyGraph scaled = base.Clone();
    for (TaskId id : scaled.AliveTasks()) {
      Task& t = scaled.task(id);
      t.duration = t.duration / (1 + static_cast<TimeNs>(rng() % 3));
    }
    ASSERT_TRUE(donor.CompatibleWith(scaled));
    const SimPlan retimed = SimPlan::Retime(donor, scaled, EarliestStartScheduler());
    const SimResult oracle = RunReference(scaled);
    for (const int jobs : ShardJobLevels()) {
      ExpectSameResult(oracle, RunPlanParallel(retimed, jobs));
    }
  }
}

TEST(ShardDifferentialDeterminism, RepeatedRunsAreByteIdentical) {
  // Same plan, same job level, repeated runs: thread scheduling must never
  // leak into the result (the serve smoke depends on byte-identical JSON).
  const DependencyGraph g = RandomGraph(31337, /*with_priorities=*/true);
  const SimPlan plan = SimPlan::Compile(g, PriorityCommScheduler());
  const ShardPlan shards = ShardPlan::Compile(plan, 4);
  ThreadPool pool(3);
  const SimResult first = shards.Run(&pool);
  for (int rep = 0; rep < 8; ++rep) {
    ExpectSameResult(first, shards.Run(&pool));
  }
}

// ---- Deadlines ----
//
// Both dispatch paths stop early once a bounded deadline expires: the serial
// engine checks every 1024 dispatches, the sharded one between rounds. The
// plans here exceed 1024 tasks, so an expired deadline always leaves work
// undone, and an unbounded one changes nothing.

// Replicated ResNet-50 workers on an all-reduce channel: several shards.
SimPlan ClusterPlan() {
  const Trace& trace = CachedTrace(ModelId::kResNet50);
  DistributedWhatIf opts;
  opts.cluster.machines = 2;
  opts.cluster.gpus_per_machine = 2;
  DependencyGraph cluster = ReplicateWorkers(BuildDependencyGraph(trace), 4);
  WhatIfDistributed(&cluster, trace.gradients(), opts);
  return SimPlan::Compile(cluster, EarliestStartScheduler());
}

TEST(DispatchDeadline, SerialDispatchStopsOnAnExpiredDeadline) {
  const Daydream daydream(CachedTrace(ModelId::kResNet50));
  WhatIfOptions options;
  PreparedWhatIf prepared;
  LintReport report;
  ASSERT_EQ(daydream.Prepare(nullptr, options, &prepared, &report), WhatIfStatus::kOk);
  ASSERT_GT(prepared.plan.num_tasks(), 1024);

  const Deadline spent = Deadline::AfterMs(0);
  options.deadline = spent;
  ASSERT_EQ(options.sim_jobs, 1);
  TimeNs predicted = -1;
  EXPECT_EQ(Daydream::Dispatch(prepared, options, nullptr, &predicted),
            WhatIfStatus::kDeadlineExceeded);

  bool hit = false;
  const SimResult partial = prepared.plan.Run(&spent, &hit);
  EXPECT_TRUE(hit);
  EXPECT_LT(partial.dispatched, prepared.plan.num_tasks());
}

TEST(DispatchDeadline, ShardedDispatchStopsOnAnExpiredDeadline) {
  const SimPlan plan = ClusterPlan();
  ASSERT_GT(ShardPlan::Compile(plan, 4).num_shards(), 1);
  const Deadline spent = Deadline::AfterMs(0);
  ThreadPool pool(3);
  bool hit = false;
  const SimResult partial = RunPlanParallel(plan, 4, &pool, &spent, &hit);
  EXPECT_TRUE(hit);
  EXPECT_LT(partial.dispatched, plan.num_tasks());
}

TEST(DispatchDeadline, UnboundedDeadlineChangesNothing) {
  const SimPlan plan = ClusterPlan();
  ASSERT_GT(plan.num_tasks(), 1024);
  const SimResult serial = plan.Run();
  const Deadline unbounded;
  ThreadPool pool(3);
  for (const int jobs : ShardJobLevels()) {
    bool hit = true;
    ExpectSameResult(serial, RunPlanParallel(plan, jobs, &pool, &unbounded, &hit));
    EXPECT_FALSE(hit) << "sim_jobs " << jobs;
  }
  bool hit = true;
  ExpectSameResult(serial, plan.Run(&unbounded, &hit));
  EXPECT_FALSE(hit);
}

}  // namespace
}  // namespace daydream
