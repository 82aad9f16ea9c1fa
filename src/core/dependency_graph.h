// The kernel-granularity dependency graph (§4.2).
//
// Tasks live in per-thread sequences (CPU threads, GPU streams, communication
// channels); edges encode the five dependency types of §4.2.2 plus whatever a
// graph transformation adds. The graph supports the paper's mutation
// primitives: task insertion into a thread sequence, task removal with
// predecessor->successor rewiring (Figure 4), duration scaling, and edge
// surgery.
//
// Storage layout (see docs/graph.md):
//   - Thread sequences are *intrusive*: each node carries prev/next task ids
//     plus a dense index into an interned thread table (head/tail per thread),
//     so InsertAfter / InsertBefore / Remove are O(1) splices instead of a
//     linear scan over a per-thread vector.
//   - Select keeps lazily built secondary indexes (per-phase and per-layer id
//     buckets) that serve structured TaskQuery lookups in O(matches); opaque
//     predicates fall back to the full scan.
//   - Clone() is the cheap copy for the sweep's clone-per-case pattern: it
//     reserves insertion headroom (a tight copy pays one full O(V) node move
//     on the first post-clone AddTask), drops the payloads of dead nodes, and
//     copies the interned thread table instead of re-interning.
#ifndef SRC_CORE_DEPENDENCY_GRAPH_H_
#define SRC_CORE_DEPENDENCY_GRAPH_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/task.h"

namespace daydream {

class DependencyGraph {
 public:
  DependencyGraph() = default;

  // ---- Construction ----

  // Adds a task and appends it to its thread's sequence. Does NOT add the
  // sequential edge; call LinkSequential() or AddEdge() explicitly (the
  // builder does this so tests can exercise dependency types separately).
  TaskId AddTask(Task task);

  // Pre-sizes node storage (optional; AddTask grows geometrically anyway).
  void Reserve(int tasks);

  // Adds edge from -> to (ignored if it already exists or from == to).
  void AddEdge(TaskId from, TaskId to);
  void RemoveEdge(TaskId from, TaskId to);
  bool HasEdge(TaskId from, TaskId to) const;

  // Adds the sequential-order edges along every thread sequence (§4.2.2
  // dependency types 1 and 2, and the same rule for communication channels).
  void LinkSequential();

  // ---- Mutation primitives (§4.4) ----

  // Splices `task` into the thread sequence of `anchor`, right after it, and
  // rewires the sequential edge anchor -> old-next to anchor -> task -> next.
  // Extra semantic edges (e.g. a launch correlation) are the caller's job.
  TaskId InsertAfter(TaskId anchor, Task task);
  // Same, but before `anchor` (useful for inserting at a thread's head).
  TaskId InsertBefore(TaskId anchor, Task task);

  // Removes a task, wiring every parent to every child (Figure 4) and
  // splicing it out of its thread sequence.
  void Remove(TaskId id);

  // Select: ids (ascending) of all alive tasks matching the query. Structured
  // phase/layer keys are answered from the secondary indexes in O(matches);
  // the TaskPredicate overload is the generic full-scan path. The lazy index
  // maintenance means concurrent Selects on the *same* instance need external
  // synchronization (per-clone use, as in SweepRunner, is safe).
  std::vector<TaskId> Select(const TaskQuery& query) const;
  std::vector<TaskId> Select(const TaskPredicate& predicate) const;

  // Streaming select: invokes `fn` on every match (same order as Select)
  // without materializing the id vector — the right shape for fold-style
  // consumers (min-by-start anchors, per-layer grouping) over selections that
  // cover a large fraction of the graph.
  void ForEachSelected(const TaskQuery& query, const std::function<void(const Task&)>& fn) const;

  // Builds the select indexes now (normally they are built on the first
  // structured Select). Daydream calls this once on the baseline graph so
  // every per-case clone starts with warm indexes.
  void EnsureSelectIndexes() const;
  // Testing/benchmark hook: with indexing disabled every Select runs the
  // generic full scan — the pre-index behavior.
  void SetSelectIndexingEnabled(bool enabled) { select_indexing_enabled_ = enabled; }

  // ---- Access ----

  Task& task(TaskId id);
  const Task& task(TaskId id) const;
  bool alive(TaskId id) const;
  // All ids ever allocated; iterate with alive() checks, or use AliveTasks().
  int capacity() const { return static_cast<int>(tasks_.size()); }
  std::vector<TaskId> AliveTasks() const;
  int num_alive() const { return num_alive_; }

  const std::vector<TaskId>& parents(TaskId id) const;
  const std::vector<TaskId>& children(TaskId id) const;

  // Thread sequences (alive tasks, in order). Threads() is sorted by
  // ExecThread order.
  std::vector<ExecThread> Threads() const;
  std::vector<TaskId> ThreadSequence(const ExecThread& thread) const;
  // Intrusive-sequence neighbours: the next / previous alive task on `id`'s
  // thread, kInvalidTask at the ends. O(1).
  TaskId NextInThread(TaskId id) const;
  TaskId PrevInThread(TaskId id) const;

  // Dense execution-lane view (every thread ever interned, in intern order —
  // including threads whose tasks were all removed). Lets hot consumers like
  // the event engine index per-thread state with an array instead of a map.
  int num_lanes() const { return static_cast<int>(threads_.size()); }
  int lane_of(TaskId id) const;
  const ExecThread& lane_thread(int lane) const;

  // Cheap copy for clone-per-case workloads; see the header comment. Dead
  // nodes keep their slot (ids and capacity() are preserved) but drop their
  // payload — task data of dead ids is default-constructed in the clone.
  DependencyGraph Clone() const;

  // Version of the graph's *structure*: task creation/removal and edge
  // surgery each take a fresh globally-unique stamp; timing edits through the
  // mutable task() accessor do not. Clone() (and the copy constructor) carry
  // the value over, so two graphs with equal stamps share a copy lineage with
  // zero structural mutations since — i.e. they are structurally identical
  // (the contract SimPlan::Retime relies on). Distinct construction always
  // yields distinct stamps, even for identical structures (conservatively
  // forcing a fresh plan compile).
  uint64_t structure_stamp() const { return structure_stamp_; }

  // Heap bytes held by the nodes, their edge lists and the lane table (an
  // estimate for memory quotas: vector capacities, not task-name strings or
  // the lazily built select indexes).
  size_t ResidentBytes() const;

  // ---- Validation & stats ----

  // Checks the structural invariants: edges reference alive tasks, no
  // duplicate edges, acyclic, parent/child symmetry, thread sequences
  // consistent. Implemented as GraphLint::LintStructure (src/core/
  // graph_lint.h); `error` receives the first finding as "pass: message".
  // Callers that want every finding — cycle paths, lane names, all defect
  // classes including the timing passes — use GraphLint directly.
  bool Validate(std::string* error = nullptr) const;

  // Topological order of alive tasks (empty when cyclic).
  std::vector<TaskId> TopologicalOrder() const;

  struct Stats {
    int tasks = 0;
    int edges = 0;
    int cpu_tasks = 0;
    int gpu_tasks = 0;
    int comm_tasks = 0;
    int threads = 0;
  };
  Stats ComputeStats() const;

 private:
  // The static verifier reads raw node/lane state (bounded walks over
  // possibly-broken splice links, which the public accessors DD_CHECK on);
  // the test-only corruptor injects the defect classes the verifier must
  // catch (src/core/graph_testing.h).
  friend class GraphLint;
  friend class GraphCorruptor;

  struct Node {
    Task task;
    std::vector<TaskId> parents;
    std::vector<TaskId> children;
    // Intrusive thread-sequence links; only alive nodes are linked.
    TaskId seq_prev = kInvalidTask;
    TaskId seq_next = kInvalidTask;
    int32_t lane = -1;  // index into threads_
    bool alive = true;
  };

  // One interned execution lane.
  struct ThreadSeq {
    ExecThread thread;
    TaskId head = kInvalidTask;
    TaskId tail = kInvalidTask;
    int alive_count = 0;
  };

  // One select-index bucket. `sorted` stays true while ids are appended in
  // ascending order (the common case: new tasks get increasing ids); a
  // re-bucketed old id clears it and the next Select restores order.
  struct Bucket {
    std::vector<TaskId> ids;
    bool sorted = true;
  };

  // Compact per-task filter record, 8 bytes, kept in a dense side array so a
  // structured Select streams these instead of the ~200-byte nodes (the walk
  // is memory-bound either way; this cuts the traffic ~25x). Doubles as the
  // last-indexed (type, phase, layer) snapshot the dirty flush compares
  // against.
  struct TaskMeta {
    int32_t layer = -1;
    uint8_t bits = 0;  // [0] alive, [1:2] TaskType, [3:5] Phase

    static uint8_t Bits(bool alive, TaskType type, Phase phase) {
      return static_cast<uint8_t>((alive ? 1 : 0) | (static_cast<int>(type) << 1) |
                                  (static_cast<int>(phase) << 3));
    }
    bool alive() const { return (bits & 1) != 0; }
    TaskType type() const { return static_cast<TaskType>((bits >> 1) & 0x3); }
    Phase phase() const { return static_cast<Phase>((bits >> 3) & 0x7); }
  };

  Node& node(TaskId id);
  const Node& node(TaskId id) const;

  int32_t InternThread(const ExecThread& thread);
  // Creates the node for `task` (id assignment + storage) without linking.
  TaskId MakeNode(Task task);
  void LinkAtTail(int32_t lane, TaskId id);
  void LinkAfter(TaskId anchor, TaskId id);
  void LinkBefore(TaskId anchor, TaskId id);
  void Unlink(TaskId id);

  // Select-index helpers (const because indexes are lazily maintained).
  void IndexNewTask(TaskId id) const;
  void MarkDirty(TaskId id);
  void FlushDirtyIndexEntries() const;
  std::vector<TaskId> SelectByScan(const TaskQuery& query) const;
  std::vector<TaskId> SelectFromBucket(Bucket& bucket, bool by_layer,
                                       const TaskQuery& query) const;
  // Returns the bucket for the query's most selective structured key, sorted
  // and ready to walk, or nullptr when the query is not index-serveable.
  Bucket* BucketFor(const TaskQuery& query, bool* by_layer) const;
  template <typename Emit>
  void VisitBucket(Bucket& bucket, bool by_layer, const TaskQuery& query, Emit&& emit) const;

  static uint64_t ThreadKey(const ExecThread& thread) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(thread.kind) + 1) << 32) |
           static_cast<uint32_t>(thread.id);
  }
  static constexpr size_t kNumPhases = 5;  // matches enum class Phase

  std::vector<Node> tasks_;
  int num_alive_ = 0;
  uint64_t structure_stamp_ = 1;
  std::vector<ThreadSeq> threads_;
  std::unordered_map<uint64_t, int32_t> thread_index_;  // ThreadKey -> lane

  // Scratch for Remove's duplicate-edge check: mark_[id] == mark_epoch_ means
  // "already a child of the current parent".
  mutable std::vector<uint32_t> mark_;
  mutable uint32_t mark_epoch_ = 0;

  // ---- Select indexes (lazily built, incrementally maintained) ----
  bool select_indexing_enabled_ = true;
  mutable bool indexes_built_ = false;
  mutable std::array<Bucket, kNumPhases> phase_buckets_;
  mutable std::unordered_map<int, Bucket> layer_buckets_;
  // Per-task filter records; refreshed from the Task on index build and on
  // dirty flush, so they are authoritative whenever indexes_built_.
  mutable std::vector<TaskMeta> meta_;
  // Ids handed out via the mutable task() since the last flush; their meta /
  // bucket membership may be stale.
  mutable std::vector<TaskId> dirty_;
  mutable std::vector<uint32_t> dirty_stamp_;
  mutable uint32_t dirty_epoch_ = 1;
};

}  // namespace daydream

#endif  // SRC_CORE_DEPENDENCY_GRAPH_H_
