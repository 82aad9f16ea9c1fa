#include "src/core/dependency_graph.h"

#include <algorithm>
#include <atomic>
#include <queue>
#include <utility>

#include "src/core/graph_lint.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace daydream {

namespace {

// Globally unique structural-version values: every structural mutation takes
// a fresh stamp from one process-wide counter, so equal stamps can only mean
// "same copy/clone lineage with zero structural mutations since" — two
// unrelated graphs that happen to have performed the same number of
// mutations can never collide.
uint64_t NextStructureStamp() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

DependencyGraph::Node& DependencyGraph::node(TaskId id) {
  DD_CHECK_GE(id, 0);
  DD_CHECK_LT(id, static_cast<TaskId>(tasks_.size()));
  return tasks_[static_cast<size_t>(id)];
}

const DependencyGraph::Node& DependencyGraph::node(TaskId id) const {
  DD_CHECK_GE(id, 0);
  DD_CHECK_LT(id, static_cast<TaskId>(tasks_.size()));
  return tasks_[static_cast<size_t>(id)];
}

int32_t DependencyGraph::InternThread(const ExecThread& thread) {
  const auto [it, inserted] =
      thread_index_.try_emplace(ThreadKey(thread), static_cast<int32_t>(threads_.size()));
  if (inserted) {
    ThreadSeq seq;
    seq.thread = thread;
    threads_.push_back(seq);
  }
  return it->second;
}

TaskId DependencyGraph::MakeNode(Task task) {
  const TaskId id = static_cast<TaskId>(tasks_.size());
  task.id = id;
  Node n;
  n.task = std::move(task);
  tasks_.push_back(std::move(n));
  ++num_alive_;
  structure_stamp_ = NextStructureStamp();
  return id;
}

void DependencyGraph::LinkAtTail(int32_t lane, TaskId id) {
  ThreadSeq& seq = threads_[static_cast<size_t>(lane)];
  Node& n = node(id);
  n.lane = lane;
  n.seq_prev = seq.tail;
  n.seq_next = kInvalidTask;
  if (seq.tail != kInvalidTask) {
    node(seq.tail).seq_next = id;
  } else {
    seq.head = id;
  }
  seq.tail = id;
  ++seq.alive_count;
}

void DependencyGraph::LinkAfter(TaskId anchor, TaskId id) {
  Node& a = node(anchor);
  const int32_t lane = a.lane;
  ThreadSeq& seq = threads_[static_cast<size_t>(lane)];
  const TaskId next = a.seq_next;
  Node& n = node(id);
  n.lane = lane;
  n.seq_prev = anchor;
  n.seq_next = next;
  node(anchor).seq_next = id;
  if (next != kInvalidTask) {
    node(next).seq_prev = id;
  } else {
    seq.tail = id;
  }
  ++seq.alive_count;
}

void DependencyGraph::LinkBefore(TaskId anchor, TaskId id) {
  Node& a = node(anchor);
  const int32_t lane = a.lane;
  ThreadSeq& seq = threads_[static_cast<size_t>(lane)];
  const TaskId prev = a.seq_prev;
  Node& n = node(id);
  n.lane = lane;
  n.seq_prev = prev;
  n.seq_next = anchor;
  node(anchor).seq_prev = id;
  if (prev != kInvalidTask) {
    node(prev).seq_next = id;
  } else {
    seq.head = id;
  }
  ++seq.alive_count;
}

void DependencyGraph::Unlink(TaskId id) {
  Node& n = node(id);
  DD_CHECK_GE(n.lane, 0);
  ThreadSeq& seq = threads_[static_cast<size_t>(n.lane)];
  if (n.seq_prev != kInvalidTask) {
    node(n.seq_prev).seq_next = n.seq_next;
  } else {
    seq.head = n.seq_next;
  }
  if (n.seq_next != kInvalidTask) {
    node(n.seq_next).seq_prev = n.seq_prev;
  } else {
    seq.tail = n.seq_prev;
  }
  n.seq_prev = kInvalidTask;
  n.seq_next = kInvalidTask;
  n.lane = -1;
  --seq.alive_count;
}

TaskId DependencyGraph::AddTask(Task task) {
  const int32_t lane = InternThread(task.thread);
  const TaskId id = MakeNode(std::move(task));
  LinkAtTail(lane, id);
  IndexNewTask(id);
  return id;
}

void DependencyGraph::Reserve(int tasks) { tasks_.reserve(static_cast<size_t>(tasks)); }

void DependencyGraph::AddEdge(TaskId from, TaskId to) {
  if (from == to) {
    return;
  }
  DD_CHECK(alive(from)) << "edge from dead task " << from;
  DD_CHECK(alive(to)) << "edge to dead task " << to;
  auto& children = node(from).children;
  if (std::find(children.begin(), children.end(), to) != children.end()) {
    return;
  }
  children.push_back(to);
  node(to).parents.push_back(from);
  structure_stamp_ = NextStructureStamp();
}

void DependencyGraph::RemoveEdge(TaskId from, TaskId to) {
  auto& children = node(from).children;
  auto cit = std::find(children.begin(), children.end(), to);
  if (cit == children.end()) {
    return;
  }
  children.erase(cit);
  auto& parents = node(to).parents;
  auto pit = std::find(parents.begin(), parents.end(), from);
  DD_CHECK(pit != parents.end());
  parents.erase(pit);
  structure_stamp_ = NextStructureStamp();
}

bool DependencyGraph::HasEdge(TaskId from, TaskId to) const {
  const auto& children = node(from).children;
  return std::find(children.begin(), children.end(), to) != children.end();
}

void DependencyGraph::LinkSequential() {
  for (const ThreadSeq& seq : threads_) {
    TaskId prev = kInvalidTask;
    for (TaskId id = seq.head; id != kInvalidTask; id = node(id).seq_next) {
      if (prev != kInvalidTask) {
        AddEdge(prev, id);
      }
      prev = id;
    }
  }
}

TaskId DependencyGraph::InsertAfter(TaskId anchor, Task task) {
  DD_CHECK(alive(anchor));
  // The anchor's position matters only when it lives on the target thread;
  // otherwise the task is appended to that thread's tail (cross-thread
  // insertion, e.g. a GPU task anchored on its CPU launch).
  const bool same_lane = task.thread == node(anchor).task.thread;
  const int32_t lane = same_lane ? -1 : InternThread(task.thread);
  const TaskId id = MakeNode(std::move(task));
  if (same_lane) {
    const TaskId next = node(anchor).seq_next;
    LinkAfter(anchor, id);
    if (next != kInvalidTask && HasEdge(anchor, next)) {
      RemoveEdge(anchor, next);
    }
    AddEdge(anchor, id);
    if (next != kInvalidTask) {
      AddEdge(id, next);
    }
  } else {
    // Sequential edge from the thread's current tail, then the semantic
    // anchor edge.
    const TaskId tail = threads_[static_cast<size_t>(lane)].tail;
    LinkAtTail(lane, id);
    if (tail != kInvalidTask) {
      AddEdge(tail, id);
    }
    AddEdge(anchor, id);
  }
  IndexNewTask(id);
  return id;
}

TaskId DependencyGraph::InsertBefore(TaskId anchor, Task task) {
  DD_CHECK(alive(anchor));
  DD_CHECK(task.thread == node(anchor).task.thread)
      << "InsertBefore requires the anchor's thread";
  const TaskId id = MakeNode(std::move(task));
  const TaskId prev = node(anchor).seq_prev;
  LinkBefore(anchor, id);
  if (prev != kInvalidTask && HasEdge(prev, anchor)) {
    RemoveEdge(prev, anchor);
  }
  if (prev != kInvalidTask) {
    AddEdge(prev, id);
  }
  AddEdge(id, anchor);
  IndexNewTask(id);
  return id;
}

void DependencyGraph::Remove(TaskId id) {
  DD_CHECK(alive(id));
  Unlink(id);
  Node& n = node(id);
  const std::vector<TaskId> parents = std::move(n.parents);
  const std::vector<TaskId> children = std::move(n.children);
  n.parents.clear();
  n.children.clear();
  for (TaskId p : parents) {
    auto& pc = node(p).children;
    pc.erase(std::find(pc.begin(), pc.end(), id));
  }
  for (TaskId c : children) {
    auto& cp = node(c).parents;
    cp.erase(std::find(cp.begin(), cp.end(), id));
  }
  // Figure 4 rewiring with an O(1) duplicate check: mark each parent's
  // existing children once instead of scanning its child list per candidate
  // (which made Remove O(parents x children x degree)).
  if (mark_.size() < tasks_.size()) {
    mark_.resize(tasks_.size(), 0);
  }
  for (TaskId p : parents) {
    ++mark_epoch_;
    auto& pc = node(p).children;
    for (TaskId existing : pc) {
      mark_[static_cast<size_t>(existing)] = mark_epoch_;
    }
    for (TaskId c : children) {
      if (c == p || mark_[static_cast<size_t>(c)] == mark_epoch_) {
        continue;
      }
      mark_[static_cast<size_t>(c)] = mark_epoch_;
      pc.push_back(c);
      node(c).parents.push_back(p);
    }
  }
  n.alive = false;
  --num_alive_;
  structure_stamp_ = NextStructureStamp();
  if (indexes_built_) {
    meta_[static_cast<size_t>(id)].bits = 0;  // bucket compaction drops the entry
  }
}

std::vector<TaskId> DependencyGraph::SelectByScan(const TaskQuery& query) const {
  std::vector<TaskId> out;
  for (const Node& n : tasks_) {
    if (n.alive && query.Matches(n.task)) {
      out.push_back(n.task.id);
    }
  }
  return out;
}

// One walk both answers the query and compacts entries that left the bucket
// (dead tasks, or tasks whose phase/layer was re-assigned). The walk streams
// the 8-byte meta records; the full ~200-byte node is only touched when the
// query carries residual predicates. Bucket ids are index-maintained, so they
// are in range by construction.
template <typename Emit>
void DependencyGraph::VisitBucket(Bucket& bucket, bool by_layer, const TaskQuery& query,
                                  Emit&& emit) const {
  if (!bucket.sorted) {
    std::sort(bucket.ids.begin(), bucket.ids.end());
    bucket.ids.erase(std::unique(bucket.ids.begin(), bucket.ids.end()), bucket.ids.end());
    bucket.sorted = true;
  }
  const bool need_task = !query.residual.empty();
  size_t keep = 0;
  for (size_t i = 0; i < bucket.ids.size(); ++i) {
    const TaskId id = bucket.ids[i];
    const TaskMeta m = meta_[static_cast<size_t>(id)];
    const bool belongs =
        m.alive() && (by_layer ? m.layer == *query.layer_id : m.phase() == *query.phase);
    if (!belongs) {
      continue;
    }
    if (keep != i) {
      bucket.ids[keep] = id;
    }
    ++keep;
    if ((query.type_mask & TaskTypeBit(m.type())) == 0) {
      continue;
    }
    if (by_layer && query.phase.has_value() && m.phase() != *query.phase) {
      continue;
    }
    if (!by_layer && query.layer_id.has_value() && m.layer != *query.layer_id) {
      continue;
    }
    if (need_task && !query.Matches(tasks_[static_cast<size_t>(id)].task)) {
      continue;
    }
    emit(id);
  }
  bucket.ids.resize(keep);
}

DependencyGraph::Bucket* DependencyGraph::BucketFor(const TaskQuery& query,
                                                    bool* by_layer) const {
  if (query.impossible || !select_indexing_enabled_ ||
      (!query.layer_id.has_value() && !query.phase.has_value())) {
    return nullptr;
  }
  EnsureSelectIndexes();
  FlushDirtyIndexEntries();
  if (query.layer_id.has_value()) {
    // Layer buckets are the more selective index (a layer holds a handful of
    // tasks; a phase holds a large fraction of the graph).
    *by_layer = true;
    return &layer_buckets_[*query.layer_id];
  }
  const size_t phase = static_cast<size_t>(*query.phase);
  DD_CHECK_LT(phase, kNumPhases);
  *by_layer = false;
  return &phase_buckets_[phase];
}

std::vector<TaskId> DependencyGraph::SelectFromBucket(Bucket& bucket, bool by_layer,
                                                      const TaskQuery& query) const {
  std::vector<TaskId> out;
  out.reserve(bucket.ids.size());
  VisitBucket(bucket, by_layer, query, [&out](TaskId id) { out.push_back(id); });
  return out;
}

std::vector<TaskId> DependencyGraph::Select(const TaskQuery& query) const {
  if (query.impossible) {
    return {};
  }
  bool by_layer = false;
  Bucket* bucket = BucketFor(query, &by_layer);
  if (bucket == nullptr) {
    return SelectByScan(query);
  }
  return SelectFromBucket(*bucket, by_layer, query);
}

void DependencyGraph::ForEachSelected(const TaskQuery& query,
                                      const std::function<void(const Task&)>& fn) const {
  if (query.impossible) {
    return;
  }
  bool by_layer = false;
  Bucket* bucket = BucketFor(query, &by_layer);
  if (bucket == nullptr) {
    for (const Node& n : tasks_) {
      if (n.alive && query.Matches(n.task)) {
        fn(n.task);
      }
    }
    return;
  }
  VisitBucket(*bucket, by_layer, query,
              [&](TaskId id) { fn(tasks_[static_cast<size_t>(id)].task); });
}

std::vector<TaskId> DependencyGraph::Select(const TaskPredicate& predicate) const {
  std::vector<TaskId> out;
  for (const Node& n : tasks_) {
    if (n.alive && predicate(n.task)) {
      out.push_back(n.task.id);
    }
  }
  return out;
}

void DependencyGraph::EnsureSelectIndexes() const {
  if (indexes_built_ || !select_indexing_enabled_) {
    return;
  }
  meta_.assign(tasks_.size(), TaskMeta{});
  for (const Node& n : tasks_) {
    if (!n.alive) {
      continue;
    }
    const size_t phase = static_cast<size_t>(n.task.phase);
    DD_CHECK_LT(phase, kNumPhases);
    phase_buckets_[phase].ids.push_back(n.task.id);
    layer_buckets_[n.task.layer_id].ids.push_back(n.task.id);
    meta_[static_cast<size_t>(n.task.id)] =
        TaskMeta{n.task.layer_id, TaskMeta::Bits(true, n.task.type, n.task.phase)};
  }
  indexes_built_ = true;
}

void DependencyGraph::IndexNewTask(TaskId id) const {
  if (!indexes_built_) {
    return;
  }
  const Task& t = node(id).task;
  const size_t phase = static_cast<size_t>(t.phase);
  DD_CHECK_LT(phase, kNumPhases);
  Bucket& pb = phase_buckets_[phase];
  pb.sorted = pb.sorted && (pb.ids.empty() || pb.ids.back() < id);
  pb.ids.push_back(id);
  Bucket& lb = layer_buckets_[t.layer_id];
  lb.sorted = lb.sorted && (lb.ids.empty() || lb.ids.back() < id);
  lb.ids.push_back(id);
  meta_.resize(tasks_.size(), TaskMeta{});
  meta_[static_cast<size_t>(id)] = TaskMeta{t.layer_id, TaskMeta::Bits(true, t.type, t.phase)};
}

void DependencyGraph::MarkDirty(TaskId id) {
  if (!indexes_built_) {
    return;
  }
  if (dirty_stamp_.size() < tasks_.size()) {
    dirty_stamp_.resize(tasks_.size(), 0);
  }
  uint32_t& stamp = dirty_stamp_[static_cast<size_t>(id)];
  if (stamp != dirty_epoch_) {
    stamp = dirty_epoch_;
    dirty_.push_back(id);
  }
}

void DependencyGraph::FlushDirtyIndexEntries() const {
  if (dirty_.empty()) {
    return;
  }
  for (TaskId id : dirty_) {
    const Node& n = node(id);
    if (!n.alive) {
      continue;  // bucket compaction drops it
    }
    TaskMeta& m = meta_[static_cast<size_t>(id)];
    if (m.phase() != n.task.phase) {
      const size_t phase = static_cast<size_t>(n.task.phase);
      DD_CHECK_LT(phase, kNumPhases);
      Bucket& pb = phase_buckets_[phase];
      pb.sorted = pb.sorted && (pb.ids.empty() || pb.ids.back() < id);
      pb.ids.push_back(id);
    }
    if (m.layer != n.task.layer_id) {
      Bucket& lb = layer_buckets_[n.task.layer_id];
      lb.sorted = lb.sorted && (lb.ids.empty() || lb.ids.back() < id);
      lb.ids.push_back(id);
    }
    m = TaskMeta{n.task.layer_id, TaskMeta::Bits(true, n.task.type, n.task.phase)};
  }
  dirty_.clear();
  ++dirty_epoch_;
}

Task& DependencyGraph::task(TaskId id) {
  // The caller may change any field, including phase/layer: remember the id so
  // the next structured Select re-buckets it. Exception: `thread` must not be
  // reassigned here — the intrusive lane sequences (and any compiled SimPlan)
  // key off it; moving a task between lanes is not a supported mutation.
  MarkDirty(id);
  return node(id).task;
}

const Task& DependencyGraph::task(TaskId id) const { return node(id).task; }

bool DependencyGraph::alive(TaskId id) const {
  if (id < 0 || id >= static_cast<TaskId>(tasks_.size())) {
    return false;
  }
  return node(id).alive;
}

std::vector<TaskId> DependencyGraph::AliveTasks() const {
  std::vector<TaskId> out;
  out.reserve(static_cast<size_t>(num_alive_));
  for (const Node& n : tasks_) {
    if (n.alive) {
      out.push_back(n.task.id);
    }
  }
  return out;
}

const std::vector<TaskId>& DependencyGraph::parents(TaskId id) const { return node(id).parents; }
const std::vector<TaskId>& DependencyGraph::children(TaskId id) const { return node(id).children; }

std::vector<ExecThread> DependencyGraph::Threads() const {
  std::vector<ExecThread> out;
  out.reserve(threads_.size());
  for (const ThreadSeq& seq : threads_) {
    if (seq.alive_count > 0) {
      out.push_back(seq.thread);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TaskId> DependencyGraph::ThreadSequence(const ExecThread& thread) const {
  std::vector<TaskId> out;
  auto it = thread_index_.find(ThreadKey(thread));
  if (it == thread_index_.end()) {
    return out;
  }
  const ThreadSeq& seq = threads_[static_cast<size_t>(it->second)];
  out.reserve(static_cast<size_t>(seq.alive_count));
  for (TaskId id = seq.head; id != kInvalidTask; id = node(id).seq_next) {
    out.push_back(id);
  }
  return out;
}

TaskId DependencyGraph::NextInThread(TaskId id) const {
  DD_CHECK(alive(id));
  return node(id).seq_next;
}

TaskId DependencyGraph::PrevInThread(TaskId id) const {
  DD_CHECK(alive(id));
  return node(id).seq_prev;
}

int DependencyGraph::lane_of(TaskId id) const {
  DD_CHECK(alive(id));
  return node(id).lane;
}

const ExecThread& DependencyGraph::lane_thread(int lane) const {
  DD_CHECK_GE(lane, 0);
  DD_CHECK_LT(lane, num_lanes());
  return threads_[static_cast<size_t>(lane)].thread;
}

size_t DependencyGraph::ResidentBytes() const {
  size_t bytes = tasks_.capacity() * sizeof(Node) + threads_.capacity() * sizeof(ThreadSeq) +
                 meta_.capacity() * sizeof(TaskMeta);
  for (const Node& n : tasks_) {
    bytes += (n.parents.capacity() + n.children.capacity()) * sizeof(TaskId);
  }
  return bytes;
}

DependencyGraph DependencyGraph::Clone() const {
  if (indexes_built_) {
    FlushDirtyIndexEntries();
  }
  DependencyGraph out;
  const size_t n = tasks_.size();
  // Headroom so the typical transform's inserts never trigger the O(V) node
  // move a capacity-exact copy pays on its first AddTask.
  out.tasks_.reserve(n + n / 8 + 64);
  for (const Node& src : tasks_) {
    if (src.alive) {
      out.tasks_.push_back(src);
    } else {
      // Dead slot: keep the id space (and tie-break determinism) but drop the
      // payload — nothing reads a dead task's data.
      Node dead;
      dead.task.id = src.task.id;
      dead.alive = false;
      out.tasks_.push_back(std::move(dead));
    }
  }
  out.num_alive_ = num_alive_;
  out.structure_stamp_ = structure_stamp_;
  out.threads_ = threads_;
  out.thread_index_ = thread_index_;
  out.select_indexing_enabled_ = select_indexing_enabled_;
  out.indexes_built_ = indexes_built_;
  if (indexes_built_) {
    out.phase_buckets_ = phase_buckets_;
    out.layer_buckets_ = layer_buckets_;
    out.meta_ = meta_;
  }
  return out;
}

std::vector<TaskId> DependencyGraph::TopologicalOrder() const {
  std::vector<int> refs(tasks_.size(), 0);
  std::queue<TaskId> ready;
  for (const Node& n : tasks_) {
    if (!n.alive) {
      continue;
    }
    refs[static_cast<size_t>(n.task.id)] = static_cast<int>(n.parents.size());
    if (n.parents.empty()) {
      ready.push(n.task.id);
    }
  }
  std::vector<TaskId> order;
  order.reserve(static_cast<size_t>(num_alive_));
  while (!ready.empty()) {
    const TaskId id = ready.front();
    ready.pop();
    order.push_back(id);
    for (TaskId c : node(id).children) {
      if (--refs[static_cast<size_t>(c)] == 0) {
        ready.push(c);
      }
    }
  }
  if (static_cast<int>(order.size()) != num_alive_) {
    return {};  // cycle
  }
  return order;
}

bool DependencyGraph::Validate(std::string* error) const {
  // The structural invariants are one GraphLint subset; stop at the first
  // finding since this API reports exactly one. Callers that want the full
  // report (all findings, cycle paths) call GraphLint directly.
  LintOptions options;
  options.max_findings = 1;
  const LintReport report = GraphLint::LintStructure(*this, options);
  if (report.ok()) {
    return true;
  }
  if (error != nullptr) {
    const LintFinding& f = report.findings.front();
    *error = f.pass + ": " + f.message;
  }
  return false;
}

DependencyGraph::Stats DependencyGraph::ComputeStats() const {
  Stats s;
  for (const Node& n : tasks_) {
    if (!n.alive) {
      continue;
    }
    ++s.tasks;
    s.edges += static_cast<int>(n.children.size());
    switch (n.task.type) {
      case TaskType::kCpu:
      case TaskType::kDataLoad:
        ++s.cpu_tasks;
        break;
      case TaskType::kGpu:
        ++s.gpu_tasks;
        break;
      case TaskType::kComm:
        ++s.comm_tasks;
        break;
    }
  }
  for (const ThreadSeq& seq : threads_) {
    if (seq.alive_count > 0) {
      ++s.threads;
    }
  }
  return s;
}

}  // namespace daydream
