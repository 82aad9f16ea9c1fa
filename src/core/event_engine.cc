// The event-driven engine: Algorithm 1 over a compiled plan. One lane engine
// (LaneSet) holds the ready structure and the dispatch step; the serial
// SimPlan::Run drives one lane set over every lane, and ShardPlan::Run drives
// one per shard between conservative synchronization windows. See
// docs/engine.md, "Ready-structure layout" and "Parallel dispatch".
#include "src/core/sim_plan.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace daydream {
namespace {

// Plan index of a packed order key (upper 32 bits are the scheduler key).
inline size_t IndexOf(uint64_t packed) { return static_cast<size_t>(packed & 0xffffffffu); }

// Sentinel lane for LaneSet::Release callers outside a dispatch.
constexpr uint32_t kNoLane = ~uint32_t{0};

// All ready structures are binary min-heaps over plain vectors (std::*_heap
// needs a "greater" comparator for a min-heap): no per-node allocation, and
// every comparison is a plain integer compare on pre-resolved keys.

struct LaneState {
  TimeNs progress = 0;
  TimeNs busy = 0;  // sum of dispatched durations
  bool dispatched_any = false;
  std::vector<uint64_t> now;  // packed keys; heap over std::greater
  // (bound, packed key): pair's lexicographic order is exactly (bound, key).
  std::vector<std::pair<TimeNs, uint64_t>> future;
  // Generation stamp for lazy invalidation of head-index entries: bumped on
  // every head change, so stale entries are skipped when they surface.
  uint32_t stamp = 0;
};

// One head-index entry: a lane's head task at the time it was pushed.
struct HeadEntry {
  TimeNs feasible = 0;
  uint64_t packed = 0;
  uint32_t lane = 0;
  uint32_t stamp = 0;
};

struct HeadCmp {
  bool operator()(const HeadEntry& a, const HeadEntry& b) const {
    if (a.feasible != b.feasible) {
      return b.feasible < a.feasible;
    }
    return b.packed < a.packed;  // same head, different stamps: order irrelevant
  }
};

// What one run shares across its lane sets: the plan's frozen columns, the
// result's start/end (by task id) and the release bookkeeping (by plan
// index). Every task has one owner lane set, the only writer of its entries.
struct RunArrays {
  const TaskId* task_ids;
  const int32_t* lane;
  const int32_t* succ_offset;
  const int32_t* succ;
  const TimeNs* duration;
  const TimeNs* gap;
  const uint64_t* order_key;
  TimeNs* start;
  TimeNs* end;
  std::vector<TimeNs> earliest;
  std::vector<int32_t> refs;  // unfinished parents
};

// Sizes `result` for the plan and views both. `Structure` is SimPlan's
// private block, deduced from the two entry points that may read it.
template <typename Structure>
RunArrays BeginRun(const Structure& s, const std::vector<TimeNs>& duration,
                   const std::vector<TimeNs>& gap, const std::vector<uint64_t>& order_key,
                   SimResult* result) {
  result->start.assign(static_cast<size_t>(s.capacity), -1);
  result->end.assign(static_cast<size_t>(s.capacity), -1);
  result->lane_threads = s.lane_threads;
  result->lane_busy.assign(s.lane_threads.size(), 0);
  result->lane_end.assign(s.lane_threads.size(), -1);
  return RunArrays{s.task_ids.data(), s.lane.data(), s.succ_offset.data(), s.succ.data(),
                   duration.data(), gap.data(), order_key.data(),
                   result->start.data(), result->end.data(),
                   std::vector<TimeNs>(s.task_ids.size(), 0), s.pred_count};
}

// Algorithm 1's ready structure and dispatch step over a set of lanes. Per
// lane, ready tasks sit in a `now` heap (feasible at the lane's progress,
// ordered by packed key) or a `future` heap (gated by a parent, ordered by
// (bound, key)); one head index holds each lane's head keyed by (feasible
// time, key), and its minimum is the set's next dispatch — the task the
// reference frontier scan would pick, at O(log F) instead of O(F). Lanes are
// addressed by local index; `lane_ids` maps them to plan lanes.
class LaneSet {
 public:
  LaneSet(RunArrays* run, const int32_t* lane_offset, std::vector<uint32_t> lane_ids)
      : run_(run), lane_ids_(std::move(lane_ids)), lanes_(lane_ids_.size()) {
    // Per-lane heap capacity: a lane's ready set never exceeds its task count.
    for (size_t li = 0; li < lanes_.size(); ++li) {
      const uint32_t lane = lane_ids_[li];
      const size_t lane_tasks = static_cast<size_t>(lane_offset[lane + 1] - lane_offset[lane]);
      lanes_[li].now.reserve(std::min<size_t>(lane_tasks, 64));
      lanes_[li].future.reserve(std::min<size_t>(lane_tasks, 64));
    }
    heads_.reserve(lanes_.size() + 16);
  }

  int dispatched() const { return dispatched_; }

  // Plan index `idx` becomes ready on local lane `local` at `bound`.
  void InsertReady(uint32_t local, size_t idx, TimeNs bound) {
    LaneState& lane = lanes_[local];
    if (bound <= lane.progress) {
      lane.now.push_back(run_->order_key[idx]);
      std::push_heap(lane.now.begin(), lane.now.end(), std::greater<uint64_t>());
    } else {
      lane.future.emplace_back(bound, run_->order_key[idx]);
      std::push_heap(lane.future.begin(), lane.future.end(),
                     std::greater<std::pair<TimeNs, uint64_t>>());
    }
  }

  // Pushes the lane's current head (if any) and invalidates older entries.
  // Tasks in `now` are feasible at `progress`, which is <= every bound in
  // `future`, so `now`'s head wins whenever it exists.
  void Refresh(uint32_t local) {
    LaneState& lane = lanes_[local];
    ++lane.stamp;
    if (!lane.now.empty()) {
      PushHead(HeadEntry{lane.progress, lane.now.front(), local, lane.stamp});
    } else if (!lane.future.empty()) {
      PushHead(HeadEntry{lane.future.front().first, lane.future.front().second, local, lane.stamp});
    }
  }

  void RefreshAll() {
    for (uint32_t li = 0; li < lanes_.size(); ++li) {
      Refresh(li);
    }
  }

  // Drops stale entries off the head index. False when no lane has a ready
  // task; otherwise *head is the set's next dispatch, left in the index for
  // Dispatch to pop.
  bool FreshHead(HeadEntry* head) {
    while (!heads_.empty()) {
      *head = heads_.front();
      if (head->stamp == lanes_[head->lane].stamp) {
        return true;
      }
      PopHead();  // stale: this lane's head changed since the push
    }
    return false;
  }

  // One parent of plan index `child` (on local lane `local`) completed at
  // `end`; after its last parent the child joins its lane's heaps. The lane's
  // head is refreshed unless it is `dispatching`, which Dispatch refreshes
  // once after all of its children.
  void Release(size_t child, TimeNs end, uint32_t local, uint32_t dispatching) {
    TimeNs& e = run_->earliest[child];
    // Same deviation from Algorithm 1 line 16 as the reference engine: the
    // trailing gap delays the task's own lane but not cross-lane children.
    e = std::max(e, end);
    if (--run_->refs[child] == 0) {
      InsertReady(local, child, e);
      if (local != dispatching) {
        Refresh(local);
      }
    }
  }

  // Dispatches `head`, the fresh index minimum FreshHead just returned: pops
  // it, records its start, end and busy time, advances its lane, migrates the
  // bounds the lane crossed, and hands every CSR child slot to
  // `release(slot, child, end, local lane)` — Release, or a route elsewhere.
  template <typename ReleaseStep>
  void Dispatch(const HeadEntry& head, ReleaseStep&& release) {
    PopHead();
    LaneState& lane = lanes_[head.lane];
    const size_t idx = IndexOf(head.packed);
    if (!lane.now.empty()) {
      DD_CHECK_EQ(lane.now.front(), head.packed);
      std::pop_heap(lane.now.begin(), lane.now.end(), std::greater<uint64_t>());
      lane.now.pop_back();
    } else {
      DD_CHECK_EQ(lane.future.front().second, head.packed);
      std::pop_heap(lane.future.begin(), lane.future.end(),
                    std::greater<std::pair<TimeNs, uint64_t>>());
      lane.future.pop_back();
    }

    const TimeNs start = head.feasible;
    const TimeNs end = start + run_->duration[idx];
    const size_t id = static_cast<size_t>(run_->task_ids[idx]);
    run_->start[id] = start;
    run_->end[id] = end;
    lane.progress = end + run_->gap[idx];  // gap occupies the lane (Alg. 1 line 13)
    lane.busy += run_->duration[idx];
    lane.dispatched_any = true;
    makespan_ = std::max(makespan_, end);
    ++dispatched_;

    // Bounds the lane just crossed become plain tie-break candidates.
    while (!lane.future.empty() && lane.future.front().first <= lane.progress) {
      const uint64_t migrated = lane.future.front().second;
      std::pop_heap(lane.future.begin(), lane.future.end(),
                    std::greater<std::pair<TimeNs, uint64_t>>());
      lane.future.pop_back();
      lane.now.push_back(migrated);
      std::push_heap(lane.now.begin(), lane.now.end(), std::greater<uint64_t>());
    }

    for (int32_t k = run_->succ_offset[idx]; k < run_->succ_offset[idx + 1]; ++k) {
      release(k, static_cast<size_t>(run_->succ[k]), end, head.lane);
    }
    Refresh(head.lane);
  }

  // Adds the set's lane accounting, makespan and dispatch count to `result`.
  void Fold(SimResult* result) const {
    for (size_t li = 0; li < lanes_.size(); ++li) {
      result->lane_busy[lane_ids_[li]] = lanes_[li].busy;
      if (lanes_[li].dispatched_any) {
        result->lane_end[lane_ids_[li]] = lanes_[li].progress;
      }
    }
    result->makespan = std::max(result->makespan, makespan_);
    result->dispatched += dispatched_;
  }

 private:
  void PushHead(const HeadEntry& entry) {
    heads_.push_back(entry);
    std::push_heap(heads_.begin(), heads_.end(), HeadCmp());
  }
  void PopHead() {
    std::pop_heap(heads_.begin(), heads_.end(), HeadCmp());
    heads_.pop_back();
  }

  RunArrays* run_;
  std::vector<uint32_t> lane_ids_;  // local lane -> plan lane
  std::vector<LaneState> lanes_;
  std::vector<HeadEntry> heads_;
  TimeNs makespan_ = 0;
  int dispatched_ = 0;
};

// Reports whether the run was cut short; a run that was not must have
// dispatched every task.
void FinishRun(const SimResult& result, size_t n, bool expired, bool* deadline_hit) {
  if (deadline_hit != nullptr) {
    *deadline_hit = expired;
  }
  if (!expired) {
    DD_CHECK_EQ(result.dispatched, static_cast<int>(n)) << "cycle or disconnected bookkeeping";
  }
}

}  // namespace

SimResult SimPlan::Run(const Deadline* deadline, bool* deadline_hit) const {
  if (deadline_hit != nullptr) {
    *deadline_hit = false;
  }
  SimResult result;
  if (empty()) {
    return result;
  }
  const Structure& s = *structure_;
  RunArrays run = BeginRun(s, duration_, gap_, order_key_, &result);
  std::vector<uint32_t> all_lanes(s.lane_threads.size());
  std::iota(all_lanes.begin(), all_lanes.end(), 0u);
  LaneSet lanes(&run, s.lane_offset.data(), std::move(all_lanes));
  for (const int32_t idx : s.initial_ready) {
    lanes.InsertReady(static_cast<uint32_t>(s.lane[static_cast<size_t>(idx)]),
                      static_cast<size_t>(idx), 0);
  }
  lanes.RefreshAll();

  // Cooperative cancellation every 1024 dispatches, under a bounded deadline
  // only: a caller without one pays no clock read.
  const bool bounded = deadline != nullptr && deadline->bounded();
  bool expired = false;
  HeadEntry head;
  while (lanes.FreshHead(&head)) {
    if (bounded && (lanes.dispatched() & 1023) == 0 && deadline->Expired()) {
      expired = true;
      break;
    }
    // The identity lane map: a child's plan lane is its local lane.
    lanes.Dispatch(head, [&](int32_t, size_t child, TimeNs end, uint32_t lane) {
      lanes.Release(child, end, static_cast<uint32_t>(run.lane[child]), lane);
    });
  }
  lanes.Fold(&result);
  FinishRun(result, s.task_ids.size(), expired, deadline_hit);
  return result;
}

// ---------------------------------------------------------------------------
// Sharded dispatch: one lane set per shard, each drained between
// conservative synchronization windows.
//
// Why this is exact and not approximate: a task's simulated start is
// max(lane progress, earliest bound), both of which depend only on the
// *per-lane* dispatch order — never on how dispatches interleave across
// lanes. A shard may therefore dispatch its locally minimal (feasible,
// packed-key) candidate at feasible time f as long as no still-pending
// cross-shard edge could introduce a competitor at or before f. The shard's
// horizon H — the minimum static completion bound over unpublished incoming
// cross-shard edges — guarantees every pending delivery lands with an
// earliest bound >= H, so while f < H (strictly, which settles key ties at
// equal feasible times) the serial engine would have made the identical
// pick. When every shard stalls at its horizon, the globally minimal
// candidate across shards *is* the serial engine's next dispatch: the
// orchestrator dispatches exactly that one task, publishes it, and resumes
// the rounds — so equality holds unconditionally, zero-duration chains and
// bound ties included.
//
// Thread discipline (what makes this TSan-clean without atomics): every
// task, lane, and window entry has one owner shard. During a dispatch round
// a shard writes only its own tasks' result/earliest/refs entries and
// appends to per-(source, target) outboxes; during a delivery round a shard
// drains only the outboxes addressed to it and flips only its own published
// flags. The phases are separated by ParallelFor joins, whose mutex
// publication orders every write before every cross-thread read.

namespace {

constexpr TimeNs kInfTime = std::numeric_limits<TimeNs>::max();

// One cross-shard completion: the CSR child to update plus the window entry
// (owned by the target shard) that the source's completion publishes.
struct ShardDelivery {
  int32_t child = 0;
  int32_t window_pos = 0;
  TimeNs end = 0;
};

struct Shard {
  LaneSet lanes;             // the shard's lanes, heads keyed by local lane
  size_t window_cursor = 0;  // relative to the shard's window range
};

}  // namespace

SimResult ShardPlan::Run(ThreadPool* pool, const Deadline* deadline, bool* deadline_hit) const {
  if (deadline_hit != nullptr) {
    *deadline_hit = false;
  }
  const SimPlan& plan = *plan_;
  SimResult result;
  if (plan.empty()) {
    return result;
  }
  const SimPlan::Structure& s = *plan.structure_;
  const size_t n = s.task_ids.size();
  const int S = num_shards_;

  // Owner-partitioned shared arrays: only the shard owning a task writes its
  // entries (see the thread-discipline note above).
  RunArrays run = BeginRun(s, plan.duration_, plan.gap_, plan.order_key_, &result);
  std::vector<uint8_t> published(window_end_.size(), 0);

  std::vector<uint32_t> local_of_lane(s.lane_threads.size(), 0);
  std::vector<Shard> st;
  st.reserve(static_cast<size_t>(S));
  for (int sh = 0; sh < S; ++sh) {
    const size_t begin = static_cast<size_t>(shard_lane_offset_[static_cast<size_t>(sh)]);
    const size_t end = static_cast<size_t>(shard_lane_offset_[static_cast<size_t>(sh) + 1]);
    std::vector<uint32_t> lane_ids(shard_lanes_.begin() + begin, shard_lanes_.begin() + end);
    for (uint32_t li = 0; li < lane_ids.size(); ++li) {
      local_of_lane[lane_ids[li]] = li;
    }
    st.push_back(Shard{LaneSet(&run, s.lane_offset.data(), std::move(lane_ids))});
  }
  for (const int32_t idx : s.initial_ready) {
    const uint32_t lane = static_cast<uint32_t>(s.lane[static_cast<size_t>(idx)]);
    st[static_cast<size_t>(shard_of_lane_[lane])].lanes.InsertReady(local_of_lane[lane],
                                                                     static_cast<size_t>(idx), 0);
  }
  for (Shard& shard : st) {
    shard.lanes.RefreshAll();
  }

  // outbox[source * S + target]: completions crossing between two shards this
  // round. Written by the source's dispatch, drained by the target's delivery.
  std::vector<std::vector<ShardDelivery>> outbox(static_cast<size_t>(S) * static_cast<size_t>(S));

  // Dispatches shard `sh`'s fresh head; children on other shards are routed
  // to the outboxes instead of released.
  auto dispatch = [&](int sh, const HeadEntry& head) {
    LaneSet& lanes = st[static_cast<size_t>(sh)].lanes;
    lanes.Dispatch(head, [&](int32_t slot, size_t child, TimeNs end, uint32_t lane) {
      const uint32_t cl = static_cast<uint32_t>(s.lane[child]);
      const int32_t cs = shard_of_lane_[cl];
      if (cs != sh) {
        outbox[static_cast<size_t>(sh) * static_cast<size_t>(S) + static_cast<size_t>(cs)]
            .push_back(ShardDelivery{static_cast<int32_t>(child),
                                     edge_window_pos_[static_cast<size_t>(slot)], end});
        return;
      }
      lanes.Release(child, end, local_of_lane[cl], lane);
    });
  };

  // One dispatch round: advance the horizon over newly published entries,
  // then drain the shard's lane set while its head is strictly inside it.
  auto dispatch_phase = [&](int sh) {
    Shard& shard = st[static_cast<size_t>(sh)];
    const size_t wbegin = static_cast<size_t>(window_offset_[static_cast<size_t>(sh)]);
    const size_t wend = static_cast<size_t>(window_offset_[static_cast<size_t>(sh) + 1]);
    while (wbegin + shard.window_cursor < wend && published[wbegin + shard.window_cursor] != 0) {
      ++shard.window_cursor;
    }
    const TimeNs horizon =
        wbegin + shard.window_cursor < wend ? window_end_[wbegin + shard.window_cursor] : kInfTime;
    HeadEntry head;
    while (shard.lanes.FreshHead(&head) && head.feasible < horizon) {
      dispatch(sh, head);
    }
  };

  // One delivery round: apply every completion addressed to this shard and
  // publish the corresponding window entries.
  auto delivery_phase = [&](int sh) {
    LaneSet& lanes = st[static_cast<size_t>(sh)].lanes;
    for (int src = 0; src < S; ++src) {
      std::vector<ShardDelivery>& box =
          outbox[static_cast<size_t>(src) * static_cast<size_t>(S) + static_cast<size_t>(sh)];
      for (const ShardDelivery& d : box) {
        published[static_cast<size_t>(d.window_pos)] = 1;
        const size_t ci = static_cast<size_t>(d.child);
        lanes.Release(ci, d.end, local_of_lane[static_cast<size_t>(s.lane[ci])], kNoLane);
      }
      box.clear();
    }
  };

  size_t total = 0;
  bool expired = false;
  while (total < n) {
    // Cooperative cancellation between dispatch rounds: a round is the
    // natural quiescent point (no shard mid-phase, outboxes drained), so
    // abandoning here leaves no thread wedged — the result is simply partial
    // and the caller reports deadline_exceeded instead of a makespan.
    if (deadline != nullptr && deadline->Expired()) {
      expired = true;
      break;
    }
    if (pool != nullptr && S > 1) {
      pool->ParallelFor(S, dispatch_phase);
      pool->ParallelFor(S, delivery_phase);
    } else {
      for (int sh = 0; sh < S; ++sh) {
        dispatch_phase(sh);
      }
      for (int sh = 0; sh < S; ++sh) {
        delivery_phase(sh);
      }
    }
    const size_t before = total;
    total = 0;
    for (const Shard& shard : st) {
      total += static_cast<size_t>(shard.lanes.dispatched());
    }
    if (total != before || total >= n) {
      continue;
    }
    // Every shard stalled at its horizon without progress, so no outbox
    // received anything and each shard's fresh head is where its drain
    // stopped. The globally minimal head is exactly the serial engine's next
    // dispatch (see the header note): dispatch that single task and publish
    // it immediately — the pool is idle between rounds, so the orchestrator
    // may touch any shard's state.
    int best = -1;
    HeadEntry best_head;
    for (int sh = 0; sh < S; ++sh) {
      HeadEntry head;
      if (st[static_cast<size_t>(sh)].lanes.FreshHead(&head) &&
          (best < 0 || HeadCmp()(best_head, head))) {
        best = sh;
        best_head = head;
      }
    }
    DD_CHECK_GE(best, 0) << "sharded dispatch stalled with no candidates";
    dispatch(best, best_head);
    for (int sh = 0; sh < S; ++sh) {
      delivery_phase(sh);
    }
    ++total;
  }

  for (const Shard& shard : st) {
    shard.lanes.Fold(&result);
  }
  FinishRun(result, n, expired, deadline_hit);
  return result;
}

SimResult RunPlanParallel(const SimPlan& plan, int sim_jobs, ThreadPool* pool,
                          const Deadline* deadline, bool* deadline_hit) {
  if (sim_jobs <= 1 || plan.empty()) {
    return plan.Run(deadline, deadline_hit);
  }
  const ShardPlan shards = ShardPlan::Compile(plan, sim_jobs);
  if (pool != nullptr || shards.num_shards() <= 1) {
    return shards.Run(pool, deadline, deadline_hit);
  }
  ThreadPool local(shards.num_shards() - 1);
  return shards.Run(&local, deadline, deadline_hit);
}

}  // namespace daydream
