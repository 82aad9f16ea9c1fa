// Compiled simulation plans: a DependencyGraph frozen for dispatch.
//
// Simulation is Daydream's innermost loop — a sweep answers every what-if by
// re-simulating a transformed graph (§7.1), so on cluster-scale graphs the
// dispatch loop dominates end-to-end latency. Walking the graph's node
// objects during dispatch is cache-hostile: each step loads a ~200-byte Task
// (with a std::string name), chases per-node edge vectors, and re-derives the
// scheduler's tie-break several times per heap operation.
//
// A SimPlan freezes one graph + one scheduler into the dense form the event
// engine actually needs:
//   - structure-of-arrays timing: duration[] and gap[] indexed by a dense
//     plan index (alive tasks in ascending id order),
//   - CSR successor lists and predecessor counts (plain int32 spans instead
//     of per-node vectors),
//   - the interned lane table plus dense per-lane task sequences,
//   - pre-resolved scheduler keys: Scheduler::TieKey lowers to one
//     uint64 per task — packed (tie-break key << 32 | plan index) — so the
//     hot loop orders tasks with single integer compares, zero virtual calls
//     and zero graph indirection.
//
// The structure block (everything except durations/gaps/keys) is immutable
// and shared: Retime() over a donor plan reuses it when the graph is
// structurally unchanged since the donor was compiled, which is how a sweep
// retimes timing-only what-ifs (AMP-style duration scaling) without
// re-walking a million edges.
//
// Invalidation: a plan captures the graph at compile time and never observes
// later mutations. DependencyGraph::structure_stamp() is the cheap validity
// check — Clone() carries the stamp, structural mutation bumps it, and
// CompatibleWith() compares it; timing edits through the mutable task()
// accessor do not invalidate the structure, they are exactly what Retime
// re-reads.
#ifndef SRC_CORE_SIM_PLAN_H_
#define SRC_CORE_SIM_PLAN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/dependency_graph.h"
#include "src/core/simulator.h"
#include "src/util/deadline.h"

namespace daydream {

class ShardPlan;
class ThreadPool;

class SimPlan {
 public:
  SimPlan() = default;

  // Freezes `graph` for `scheduler`: each task's Scheduler::TieKey is packed
  // with its plan index into one integer order key.
  static SimPlan Compile(const DependencyGraph& graph, const Scheduler& scheduler);

  // Rebuilds only the timing and key arrays over `donor`'s shared structure
  // block. Requires `graph` to be structurally identical to the graph the
  // donor was compiled from: same structure_stamp(), same capacity — the
  // contract a Clone() that only edited durations/gaps/priorities satisfies.
  static SimPlan Retime(const SimPlan& donor, const DependencyGraph& graph,
                        const Scheduler& scheduler);

  // Dispatches the plan serially (implemented by the event engine,
  // src/core/event_engine.cc). Produces the same SimResult as the reference
  // frontier scan (src/core/reference_engine.h) on the graph the plan was
  // compiled from. A bounded `deadline` is checked every 1024 dispatches: on
  // expiry the run stops, sets *deadline_hit and returns a partial result. An
  // unbounded or absent deadline costs no clock read.
  SimResult Run(const Deadline* deadline = nullptr, bool* deadline_hit = nullptr) const;

  bool empty() const { return structure_ == nullptr; }
  int num_tasks() const;
  int num_lanes() const;
  // True when `graph` is still the structure this plan was compiled from
  // (stamp + capacity match). Only meaningful between a graph and its clones;
  // see DependencyGraph::structure_stamp().
  bool CompatibleWith(const DependencyGraph& graph) const;
  // Heap bytes held by the plan: the structure block plus the timing and key
  // arrays (an estimate for memory quotas, counted by vector capacity).
  size_t ResidentBytes() const;

 private:
  // ShardPlan partitions the frozen arrays for parallel dispatch.
  friend class ShardPlan;
  // GraphLint's plan passes verify the frozen CSR/SoA arrays (and the
  // test-only corruptor in src/core/graph_testing.h injects defects there).
  friend class GraphLint;
  friend class PlanCorruptor;

  // Immutable after compilation; shared between a plan and its retimes.
  struct Structure {
    int capacity = 0;          // graph.capacity() — sizes SimResult start/end
    uint64_t graph_stamp = 0;  // graph.structure_stamp() at compile time
    std::vector<TaskId> task_ids;    // plan index -> task id (ascending)
    std::vector<int32_t> lane;       // plan index -> lane
    std::vector<ExecThread> lane_threads;  // lane -> ExecThread
    // CSR successors over plan indices.
    std::vector<int32_t> succ_offset;  // size num_tasks + 1
    std::vector<int32_t> succ;
    std::vector<int32_t> pred_count;   // in-degree per plan index
    // Dense per-lane task sequences (plan indices grouped by lane, ascending
    // within each lane): sizes the engine's per-lane ready structures and
    // gives analyses a map-free lane walk.
    std::vector<int32_t> lane_offset;  // size num_lanes + 1
    std::vector<int32_t> lane_tasks;
    // Plan indices with no predecessors — the initial ready set.
    std::vector<int32_t> initial_ready;
  };

  std::shared_ptr<const Structure> structure_;
  // Structure-of-arrays timing, rebuilt by Retime.
  std::vector<TimeNs> duration_;
  std::vector<TimeNs> gap_;
  // Packed dispatch order per task: (tie-break key << 32) | plan index.
  // Ascending packed order == scheduler tie-break refined by task id.
  std::vector<uint64_t> order_key_;

  void FillTimingAndKeys(const DependencyGraph& graph, const Scheduler& scheduler);
};

// A SimPlan partitioned for multi-core dispatch.
//
// Simulated start/end times depend only on each lane's local dispatch order,
// never on how dispatches interleave across lanes — so lanes that do not
// exchange edges can be simulated concurrently. A ShardPlan groups the plan's
// lanes into shards (connected components of the lane graph, ignoring
// compute<->comm edges so all-reduce/P2P channels cut the partition, packed
// into `num_shards` bins longest-first) and precomputes the cross-shard
// synchronization metadata:
//   - one window entry per cross-shard CSR edge, held by the *target* shard
//     and sorted by the source's static completion lower bound — the shard's
//     conservative horizon is the first unpublished entry,
//   - static lower bounds per task (longest duration-path over the frozen
//     CSR; lane contention ignored, so always <= the simulated time),
//   - per-edge window positions aligned with the CSR slot array, so dispatch
//     publishes completions with plain array writes.
//
// Run() executes the windowed barrier loop in the event engine
// (src/core/event_engine.cc) and produces a SimResult byte-identical to
// plan.Run() and the reference frontier scan for every shard count — equality
// is exact, not approximate (see docs/engine.md, "Parallel dispatch").
//
// Shard membership and window positions are structural; window bounds are
// timing. A ShardPlan captures both from one plan, so recompile it after
// Retime. The referencing-plan overload requires the plan to outlive the
// ShardPlan (the SweepRunner/bench pattern); the shared_ptr overload co-owns
// it (the session-cache pattern).
class ShardPlan {
 public:
  ShardPlan() = default;

  // Partitions `plan` into at most `num_shards` shards (fewer when the lane
  // graph has fewer components). `plan` must outlive the returned ShardPlan.
  static ShardPlan Compile(const SimPlan& plan, int num_shards);
  // As above, sharing ownership of the plan.
  static ShardPlan Compile(std::shared_ptr<const SimPlan> plan, int num_shards);

  // Dispatches every shard on `pool` (caller participates; a null pool runs
  // the barrier loop on the calling thread alone). The result is exactly
  // plan().Run(). A non-null `deadline` is checked between dispatch rounds:
  // on expiry the loop abandons the remaining rounds, sets *deadline_hit and
  // returns a partial result (serve-layer cooperative cancellation — the CLI
  // and benchmarks pass no deadline and always run to completion).
  SimResult Run(ThreadPool* pool = nullptr, const Deadline* deadline = nullptr,
                bool* deadline_hit = nullptr) const;

  bool empty() const { return plan_ == nullptr; }
  int num_shards() const { return num_shards_; }
  const SimPlan& plan() const { return *plan_; }

 private:
  // GraphLint::LintShards verifies the partition/window invariants; the
  // test-only ShardCorruptor (src/core/graph_testing.h) injects defects.
  friend class GraphLint;
  friend class ShardCorruptor;

  // Rebuilds the timing-dependent members (static bounds + window lists) from
  // plan_'s current durations; called by Compile after the structural part.
  void FillWindows();

  const SimPlan* plan_ = nullptr;
  std::shared_ptr<const SimPlan> owned_;  // set by the shared_ptr overload
  int num_shards_ = 0;

  // Lane partition: a disjoint cover of the plan's lanes.
  std::vector<int32_t> shard_of_lane_;      // lane -> shard
  std::vector<int32_t> shard_lane_offset_;  // shard -> [begin, end) in shard_lanes_
  std::vector<int32_t> shard_lanes_;        // lanes grouped by shard
  std::vector<int32_t> shard_task_count_;   // tasks per shard (binning weight)

  // Structural topological order of the plan indices (Kahn).
  std::vector<int32_t> topo_order_;

  // Static longest-path lower bound on each task's simulated start (timing).
  std::vector<TimeNs> static_start_lb_;

  // Cross-shard windows: entry j (within a shard's [window_offset_) range)
  // carries the source's static completion bound; entries per shard are
  // sorted ascending, so the first unpublished one is the horizon.
  std::vector<int32_t> window_offset_;  // shard -> [begin, end) in window_*
  std::vector<TimeNs> window_end_;      // static end bound of the source
  std::vector<int32_t> window_source_;  // source plan index (lint/debug)
  // CSR slot -> window entry (-1 for intra-shard edges). Aligned with
  // SimPlan::Structure::succ.
  std::vector<int32_t> edge_window_pos_;
};

// Dispatches `plan` across `sim_jobs` shards sharing `pool`; a null pool
// spawns a private pool sized to the shard count for the duration of the
// call. sim_jobs <= 1 is exactly the serial plan.Run(deadline, deadline_hit).
// Every path returns the identical SimResult. `deadline` is checked every
// 1024 dispatches on the serial path and between rounds on the sharded one;
// on expiry *deadline_hit is set and the result is partial.
SimResult RunPlanParallel(const SimPlan& plan, int sim_jobs, ThreadPool* pool = nullptr,
                          const Deadline* deadline = nullptr, bool* deadline_hit = nullptr);

}  // namespace daydream

#endif  // SRC_CORE_SIM_PLAN_H_
