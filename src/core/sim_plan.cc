#include "src/core/sim_plan.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/util/logging.h"

namespace daydream {

int SimPlan::num_tasks() const {
  return structure_ == nullptr ? 0 : static_cast<int>(structure_->task_ids.size());
}

int SimPlan::num_lanes() const {
  return structure_ == nullptr ? 0 : static_cast<int>(structure_->lane_threads.size());
}

bool SimPlan::CompatibleWith(const DependencyGraph& graph) const {
  return structure_ != nullptr && structure_->graph_stamp == graph.structure_stamp() &&
         structure_->capacity == graph.capacity();
}

namespace {

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

size_t SimPlan::ResidentBytes() const {
  size_t bytes = VectorBytes(duration_) + VectorBytes(gap_) + VectorBytes(order_key_);
  if (structure_ != nullptr) {
    const Structure& s = *structure_;
    bytes += sizeof(Structure) + VectorBytes(s.task_ids) + VectorBytes(s.lane) +
             VectorBytes(s.lane_threads) + VectorBytes(s.succ_offset) + VectorBytes(s.succ) +
             VectorBytes(s.pred_count) + VectorBytes(s.lane_offset) + VectorBytes(s.lane_tasks) +
             VectorBytes(s.initial_ready);
  }
  return bytes;
}

SimResult SimPlan::Run() const { return RunEventEngine(*this); }

void SimPlan::FillTimingAndKeys(const DependencyGraph& graph, const Scheduler& scheduler) {
  const Structure& s = *structure_;
  const size_t n = s.task_ids.size();
  duration_.resize(n);
  gap_.resize(n);
  order_key_.resize(n);

  bool static_keys = true;
  for (size_t i = 0; i < n; ++i) {
    const Task& task = graph.task(s.task_ids[i]);
    duration_[i] = task.duration;
    gap_[i] = task.gap;
    uint32_t key = 0;
    if (!scheduler.StaticPlanKey(task, &key)) {
      static_keys = false;
      break;
    }
    order_key_[i] = (static_cast<uint64_t>(key) << 32) | static_cast<uint32_t>(i);
  }
  if (static_keys) {
    return;
  }

  // Fallback for comparator-based schedulers without a static key: rank every
  // task with one TieBreakLess sort. Plan indices ascend with task id, so
  // refining the tie-break by plan index preserves the documented id order.
  std::vector<int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    const Task& ta = graph.task(s.task_ids[static_cast<size_t>(a)]);
    const Task& tb = graph.task(s.task_ids[static_cast<size_t>(b)]);
    if (scheduler.TieBreakLess(ta, tb)) {
      return true;
    }
    if (scheduler.TieBreakLess(tb, ta)) {
      return false;
    }
    return a < b;
  });
  for (size_t rank = 0; rank < n; ++rank) {
    const size_t i = static_cast<size_t>(order[rank]);
    const Task& task = graph.task(s.task_ids[i]);
    duration_[i] = task.duration;
    gap_[i] = task.gap;
    order_key_[i] = (static_cast<uint64_t>(rank) << 32) | static_cast<uint32_t>(i);
  }
}

SimPlan SimPlan::Compile(const DependencyGraph& graph, const Scheduler& scheduler) {
  DD_CHECK(scheduler.comparator_based()) << "plan compilation needs a comparator-based scheduler";

  auto s = std::make_shared<Structure>();
  s->capacity = graph.capacity();
  s->graph_stamp = graph.structure_stamp();

  const int num_lanes = graph.num_lanes();
  s->lane_threads.reserve(static_cast<size_t>(num_lanes));
  for (int lane = 0; lane < num_lanes; ++lane) {
    s->lane_threads.push_back(graph.lane_thread(lane));
  }

  const size_t n = static_cast<size_t>(graph.num_alive());
  s->task_ids.reserve(n);
  // Dense plan index <- alive ids in ascending order; the reverse map is only
  // needed during compilation.
  std::vector<int32_t> plan_of(static_cast<size_t>(graph.capacity()), -1);
  for (TaskId id = 0; id < graph.capacity(); ++id) {
    if (graph.alive(id)) {
      plan_of[static_cast<size_t>(id)] = static_cast<int32_t>(s->task_ids.size());
      s->task_ids.push_back(id);
    }
  }
  DD_CHECK_EQ(s->task_ids.size(), n);

  s->lane.resize(n);
  s->pred_count.resize(n);
  s->succ_offset.assign(n + 1, 0);
  s->lane_offset.assign(static_cast<size_t>(num_lanes) + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const TaskId id = s->task_ids[i];
    s->lane[i] = static_cast<int32_t>(graph.lane_of(id));
    s->pred_count[i] = static_cast<int32_t>(graph.parents(id).size());
    s->succ_offset[i + 1] = static_cast<int32_t>(graph.children(id).size());
    ++s->lane_offset[static_cast<size_t>(s->lane[i]) + 1];
    if (s->pred_count[i] == 0) {
      s->initial_ready.push_back(static_cast<int32_t>(i));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    s->succ_offset[i + 1] += s->succ_offset[i];
  }
  for (int lane = 0; lane < num_lanes; ++lane) {
    s->lane_offset[static_cast<size_t>(lane) + 1] +=
        s->lane_offset[static_cast<size_t>(lane)];
  }

  s->succ.resize(static_cast<size_t>(s->succ_offset[n]));
  std::vector<int32_t> lane_cursor(s->lane_offset.begin(), s->lane_offset.end() - 1);
  s->lane_tasks.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const TaskId id = s->task_ids[i];
    int32_t cursor = s->succ_offset[i];
    for (TaskId child : graph.children(id)) {
      const int32_t child_index = plan_of[static_cast<size_t>(child)];
      DD_CHECK_GE(child_index, 0) << "edge to dead task " << child;
      s->succ[static_cast<size_t>(cursor++)] = child_index;
    }
    s->lane_tasks[static_cast<size_t>(lane_cursor[static_cast<size_t>(s->lane[i])]++)] =
        static_cast<int32_t>(i);
  }

  SimPlan plan;
  plan.structure_ = std::move(s);
  plan.FillTimingAndKeys(graph, scheduler);
  return plan;
}

namespace {

// Union-find over lanes with path halving; components become shard atoms.
class LaneUnionFind {
 public:
  explicit LaneUnionFind(size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  int32_t Find(int32_t x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] = parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }

  void Union(int32_t a, int32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) {
      return;
    }
    if (size_[static_cast<size_t>(a)] < size_[static_cast<size_t>(b)]) {
      std::swap(a, b);
    }
    parent_[static_cast<size_t>(b)] = a;
    size_[static_cast<size_t>(a)] += size_[static_cast<size_t>(b)];
  }

 private:
  std::vector<int32_t> parent_;
  std::vector<int32_t> size_;
};

}  // namespace

ShardPlan ShardPlan::Compile(const SimPlan& plan, int num_shards) {
  DD_CHECK(!plan.empty()) << "shard compilation needs a compiled plan";
  ShardPlan sp;
  sp.plan_ = &plan;
  const SimPlan::Structure& s = *plan.structure_;
  const size_t n = s.task_ids.size();
  const size_t num_lanes = s.lane_threads.size();

  // 1. Lane components. Lanes joined by an edge simulate in one shard —
  // except across the compute/comm boundary: all-reduce and P2P channels are
  // exactly where the windowed synchronization pays for itself, so those
  // edges cut the partition instead of collapsing a cluster graph into one
  // component.
  LaneUnionFind uf(num_lanes);
  std::vector<uint8_t> comm_lane(num_lanes, 0);
  for (size_t l = 0; l < num_lanes; ++l) {
    comm_lane[l] = s.lane_threads[l].kind == ExecThread::Kind::kCommChannel ? 1 : 0;
  }
  for (size_t i = 0; i < n; ++i) {
    const int32_t lu = s.lane[i];
    const int32_t* child = s.succ.data() + s.succ_offset[i];
    const int32_t* child_end = s.succ.data() + s.succ_offset[i + 1];
    for (; child != child_end; ++child) {
      const int32_t lc = s.lane[static_cast<size_t>(*child)];
      if (lu != lc && comm_lane[static_cast<size_t>(lu)] == comm_lane[static_cast<size_t>(lc)]) {
        uf.Union(lu, lc);
      }
    }
  }

  // 2. Longest-processing-time binning of components into shards: heaviest
  // component (by task count) first, into the lightest bin. Deterministic:
  // ties resolve by root lane, then lowest bin.
  std::vector<int64_t> comp_weight(num_lanes, 0);
  for (size_t l = 0; l < num_lanes; ++l) {
    const int32_t root = uf.Find(static_cast<int32_t>(l));
    comp_weight[static_cast<size_t>(root)] += s.lane_offset[l + 1] - s.lane_offset[l];
  }
  std::vector<int32_t> roots;
  for (size_t l = 0; l < num_lanes; ++l) {
    if (uf.Find(static_cast<int32_t>(l)) == static_cast<int32_t>(l)) {
      roots.push_back(static_cast<int32_t>(l));
    }
  }
  std::sort(roots.begin(), roots.end(), [&](int32_t a, int32_t b) {
    const int64_t wa = comp_weight[static_cast<size_t>(a)];
    const int64_t wb = comp_weight[static_cast<size_t>(b)];
    if (wa != wb) {
      return wa > wb;
    }
    return a < b;
  });
  const int bins = std::clamp(num_shards, 1, std::max(1, static_cast<int>(roots.size())));
  sp.num_shards_ = bins;
  std::vector<int64_t> bin_weight(static_cast<size_t>(bins), 0);
  std::vector<int32_t> bin_of_root(num_lanes, 0);
  for (const int32_t root : roots) {
    int best = 0;
    for (int b = 1; b < bins; ++b) {
      if (bin_weight[static_cast<size_t>(b)] < bin_weight[static_cast<size_t>(best)]) {
        best = b;
      }
    }
    bin_of_root[static_cast<size_t>(root)] = best;
    bin_weight[static_cast<size_t>(best)] += comp_weight[static_cast<size_t>(root)];
  }

  sp.shard_of_lane_.resize(num_lanes);
  sp.shard_lane_offset_.assign(static_cast<size_t>(bins) + 1, 0);
  sp.shard_task_count_.assign(static_cast<size_t>(bins), 0);
  for (size_t l = 0; l < num_lanes; ++l) {
    const int32_t shard = bin_of_root[static_cast<size_t>(uf.Find(static_cast<int32_t>(l)))];
    sp.shard_of_lane_[l] = shard;
    ++sp.shard_lane_offset_[static_cast<size_t>(shard) + 1];
    sp.shard_task_count_[static_cast<size_t>(shard)] +=
        static_cast<int32_t>(s.lane_offset[l + 1] - s.lane_offset[l]);
  }
  for (int b = 0; b < bins; ++b) {
    sp.shard_lane_offset_[static_cast<size_t>(b) + 1] += sp.shard_lane_offset_[static_cast<size_t>(b)];
  }
  sp.shard_lanes_.resize(num_lanes);
  std::vector<int32_t> lane_cursor(sp.shard_lane_offset_.begin(), sp.shard_lane_offset_.end() - 1);
  for (size_t l = 0; l < num_lanes; ++l) {
    sp.shard_lanes_[static_cast<size_t>(lane_cursor[static_cast<size_t>(sp.shard_of_lane_[l])]++)] =
        static_cast<int32_t>(l);
  }

  // 3. Structural topological order (Kahn over the CSR).
  sp.topo_order_.reserve(n);
  std::vector<int32_t> degree = s.pred_count;
  for (const int32_t idx : s.initial_ready) {
    sp.topo_order_.push_back(idx);
  }
  for (size_t cursor = 0; cursor < sp.topo_order_.size(); ++cursor) {
    const size_t i = static_cast<size_t>(sp.topo_order_[cursor]);
    const int32_t* child = s.succ.data() + s.succ_offset[i];
    const int32_t* child_end = s.succ.data() + s.succ_offset[i + 1];
    for (; child != child_end; ++child) {
      if (--degree[static_cast<size_t>(*child)] == 0) {
        sp.topo_order_.push_back(*child);
      }
    }
  }
  DD_CHECK_EQ(sp.topo_order_.size(), n) << "cycle in plan CSR";

  sp.FillWindows();
  return sp;
}

ShardPlan ShardPlan::Compile(std::shared_ptr<const SimPlan> plan, int num_shards) {
  DD_CHECK(plan != nullptr);
  ShardPlan sp = Compile(*plan, num_shards);
  sp.owned_ = std::move(plan);
  sp.plan_ = sp.owned_.get();
  return sp;
}

void ShardPlan::FillWindows() {
  const SimPlan::Structure& s = *plan_->structure_;
  const std::vector<TimeNs>& duration = plan_->duration_;
  const size_t n = s.task_ids.size();

  // Static lower bound on each task's simulated start: the longest
  // duration-path over the frozen CSR, ignoring lane contention and trailing
  // gaps (both only push simulated times later, so the bound stays valid).
  static_start_lb_.assign(n, 0);
  for (const int32_t ti : topo_order_) {
    const size_t i = static_cast<size_t>(ti);
    const TimeNs end_lb = static_start_lb_[i] + duration[i];
    const int32_t* child = s.succ.data() + s.succ_offset[i];
    const int32_t* child_end = s.succ.data() + s.succ_offset[i + 1];
    for (; child != child_end; ++child) {
      TimeNs& lb = static_start_lb_[static_cast<size_t>(*child)];
      lb = std::max(lb, end_lb);
    }
  }

  // One window entry per cross-shard edge, owned by the target shard and
  // sorted by the source's static completion bound: the target's horizon is
  // the first entry whose source has not yet published.
  struct WindowEdge {
    TimeNs end_bound;
    int32_t source;
    int32_t slot;  // CSR slot index
  };
  window_offset_.assign(static_cast<size_t>(num_shards_) + 1, 0);
  edge_window_pos_.assign(s.succ.size(), -1);
  std::vector<WindowEdge> edges;
  for (size_t i = 0; i < n; ++i) {
    const int32_t si = shard_of_lane_[static_cast<size_t>(s.lane[i])];
    for (int32_t k = s.succ_offset[i]; k < s.succ_offset[i + 1]; ++k) {
      const size_t ci = static_cast<size_t>(s.succ[static_cast<size_t>(k)]);
      const int32_t sc = shard_of_lane_[static_cast<size_t>(s.lane[ci])];
      if (sc == si) {
        continue;
      }
      edges.push_back(WindowEdge{static_start_lb_[i] + duration[i], static_cast<int32_t>(i), k});
      ++window_offset_[static_cast<size_t>(sc) + 1];
    }
  }
  for (int b = 0; b < num_shards_; ++b) {
    window_offset_[static_cast<size_t>(b) + 1] += window_offset_[static_cast<size_t>(b)];
  }
  // Bucket edges by target shard, then sort each shard's range ascending.
  std::vector<WindowEdge> bucketed(edges.size());
  std::vector<int32_t> cursor(window_offset_.begin(), window_offset_.end() - 1);
  for (const WindowEdge& e : edges) {
    const size_t ci = static_cast<size_t>(s.succ[static_cast<size_t>(e.slot)]);
    const int32_t sc = shard_of_lane_[static_cast<size_t>(s.lane[ci])];
    bucketed[static_cast<size_t>(cursor[static_cast<size_t>(sc)]++)] = e;
  }
  for (int b = 0; b < num_shards_; ++b) {
    std::sort(bucketed.begin() + window_offset_[static_cast<size_t>(b)],
              bucketed.begin() + window_offset_[static_cast<size_t>(b) + 1],
              [](const WindowEdge& a, const WindowEdge& e) {
                if (a.end_bound != e.end_bound) {
                  return a.end_bound < e.end_bound;
                }
                if (a.source != e.source) {
                  return a.source < e.source;
                }
                return a.slot < e.slot;
              });
  }
  window_end_.resize(bucketed.size());
  window_source_.resize(bucketed.size());
  for (size_t pos = 0; pos < bucketed.size(); ++pos) {
    window_end_[pos] = bucketed[pos].end_bound;
    window_source_[pos] = bucketed[pos].source;
    edge_window_pos_[static_cast<size_t>(bucketed[pos].slot)] = static_cast<int32_t>(pos);
  }
}

SimResult ShardPlan::Run(ThreadPool* pool, const Deadline* deadline, bool* deadline_hit) const {
  return RunShardedEngine(*this, pool, deadline, deadline_hit);
}

SimPlan SimPlan::Retime(const SimPlan& donor, const DependencyGraph& graph,
                        const Scheduler& scheduler) {
  DD_CHECK(!donor.empty()) << "retime needs a compiled donor plan";
  DD_CHECK(scheduler.comparator_based()) << "plan compilation needs a comparator-based scheduler";
  DD_CHECK(donor.CompatibleWith(graph))
      << "retime requires a graph structurally unchanged since the donor was compiled "
      << "(stamp " << graph.structure_stamp() << " vs " << donor.structure_->graph_stamp << ")";
  DD_CHECK_EQ(static_cast<int>(donor.structure_->task_ids.size()), graph.num_alive());
  // Reassigning task.thread through the mutable accessor is unsupported (it
  // would desync the graph's intrusive lane sequences, not just this plan)
  // and does not bump the structure stamp — cheap insurance that the frozen
  // lane table still matches before the timings are trusted.
  for (size_t i = 0; i < donor.structure_->task_ids.size(); ++i) {
    DD_CHECK_EQ(graph.lane_of(donor.structure_->task_ids[i]),
                static_cast<int>(donor.structure_->lane[i]))
        << "task " << donor.structure_->task_ids[i] << " changed lanes since the donor compile";
  }

  SimPlan plan;
  plan.structure_ = donor.structure_;  // shared, immutable
  plan.FillTimingAndKeys(graph, scheduler);
  return plan;
}

}  // namespace daydream
