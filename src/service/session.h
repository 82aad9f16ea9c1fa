// TraceSession: the load-once / query-many lifecycle behind the prediction
// service.
//
// Every `daydream` CLI invocation used to re-read the trace, rebuild the
// dependency graph and recompile SimPlans from scratch. A TraceSession does
// that work exactly once — trace, built and linted graph, baseline plan and
// baseline simulation — and then answers an arbitrary number of
// predict/sweep/lint queries against it:
//
//   - Predict resolves a WhatIfRequest to a graph transform (the resolution
//     logic that used to be inlined in the CLI) and memoizes the answer per
//     request signature. The simulation is deterministic, so a repeated
//     question is a hash lookup in a small LRU answer cache. A miss runs
//     clone -> transform -> structural lint -> compile (or SimPlan::Retime
//     over the baseline plan's structure for a timing-only what-if) ->
//     dispatch, stores the {prediction, tasks} answer — a few dozen bytes —
//     and frees the transformed graph and its plan before returning.
//   - Sweep runs a case matrix through the existing SweepRunner pipeline over
//     this session's shared Daydream instance.
//   - Lint runs the GraphLint catalog over the session graph (optionally
//     after a what-if transform) plus the compiled plan.
//
// All entry points are thread-safe: the RequestExecutor drives one session
// from many client threads, and the in-process CLI path is the single-client
// special case of the same API. Sessions are addressed by handle through the
// SessionManager (the `daydream serve` session table).
#ifndef SRC_SERVICE_SESSION_H_
#define SRC_SERVICE_SESSION_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/comm/network_spec.h"
#include "src/core/graph_lint.h"
#include "src/core/optimizations/pipeline_transform.h"
#include "src/core/predictor.h"
#include "src/models/model_zoo.h"
#include "src/runtime/sweep.h"
#include "src/util/deadline.h"

namespace daydream {

// One what-if query against a session — the parameters `daydream predict`
// used to scatter across flags, as data so the CLI and the serve protocol
// build the same request.
struct WhatIfRequest {
  std::string what_if;       // amp|fused_adam|rbn|metaflow|gist|vdnn|distributed|pipeline
  ClusterConfig cluster;     // distributed
  PipelineWhatIf pipeline;   // pipeline
  EngineKind engine = EngineKind::kEvent;
  bool validate = false;     // full lint catalog over the transformed graph
  // Shards for the plan dispatch (sharded parallel engine; 1 = serial).
  // Consumption-only, like engine/validate: it changes how fast the answer
  // arrives, never the answer, so it must not enter Signature() — requests
  // differing only in sim_jobs share one cached answer.
  int sim_jobs = 1;

  // Canonical cache signature: every parameter that shapes the transform.
  std::string Signature() const;
};

struct PredictOutcome {
  PredictionResult prediction;
  int tasks = 0;           // alive tasks in the transformed graph
  bool cache_hit = false;  // answered from the session's answer cache
};

// Answer-cache counters. The plan_cache_* names predate the answer cache and
// stay, because the `stats` verb and the benchmarks report them. `retimes`
// and `compiles` say how the misses were filled: SimPlan::Retime over the
// baseline plan's structure (timing-only what-ifs) vs a full CSR compile.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;  // answers dropped past capacity
  uint64_t retimes = 0;
  uint64_t compiles = 0;
};

// How a session call failed; the CLI maps these onto its historical exit
// codes (unknown what-if -> usage, lint findings -> 1, the rest -> 2).
// kDeadlineExceeded: the request's Deadline expired at a cooperative
// cancellation point. kUnavailable: an armed fault site (src/util/fault.h)
// failed the operation — the graceful-degradation path the chaos suite
// drives.
enum class SessionStatus {
  kOk,
  kUnknownWhatIf,
  kBadRequest,
  kLintFailed,
  kDeadlineExceeded,
  kUnavailable,
};

struct SessionOptions {
  // Answers the session memoizes (LRU by request signature).
  size_t plan_cache_capacity = 64;
};

class TraceSession {
 public:
  // Builds the load-once state. Returns nullptr with *error set when the
  // trace is empty or produces a graph that fails structural lint — the
  // daemon must refuse bad input with an envelope, never abort.
  static std::shared_ptr<TraceSession> Create(Trace trace,
                                              SessionOptions options = SessionOptions{},
                                              std::string* error = nullptr);

  const Trace& trace() const { return daydream_.trace(); }
  const Daydream& daydream() const { return daydream_; }
  std::optional<ModelId> model_id() const { return model_id_; }

  // Resolves request.what_if to a graph transform (p3 is not a graph
  // transform — it reports its own metric; see PredictPsIterationTime).
  SessionStatus ResolveTransform(const WhatIfRequest& request,
                                 std::function<void(DependencyGraph*)>* transform,
                                 std::string* error) const;

  // One what-if prediction, memoized per Signature() (see file comment). The
  // reference engine and `validate` requests re-check how an answer is
  // computed, so they always recompute and never touch the answer cache.
  // `deadline` is checked between the pipeline's stages (after the transform,
  // after the compile, between shard horizons when the dispatch is sharded):
  // an expired budget returns kDeadlineExceeded instead of finishing.
  SessionStatus Predict(const WhatIfRequest& request, PredictOutcome* outcome,
                        std::string* error, const Deadline& deadline = Deadline());

  // The sweep matrix over this session's shared Daydream. When
  // options.deadline expires mid-matrix the runner stops claiming cases and
  // sets *deadline_exceeded (remaining outcomes are left blank).
  std::vector<SweepOutcome> Sweep(const std::vector<SweepCase>& cases,
                                  const SweepOptions& options,
                                  bool* deadline_exceeded = nullptr) const;

  // GraphLint catalog over the session graph — after `request`'s transform
  // when non-null — plus the compiled plan when the graph passes structural
  // lint (*plan_passes_run records whether it did).
  SessionStatus Lint(const WhatIfRequest* request, LintReport* report, bool* plan_passes_run,
                     std::string* error) const;

  // The `daydream report` analyses (breakdown, critical path, hottest
  // layers), verbatim.
  std::string ReportText() const;

  PlanCacheStats plan_cache_stats() const;
  size_t plan_cache_size() const;  // answers held

  // Estimated resident footprint — the trace, the baseline graph and plan,
  // the model graph and the answer-cache entries — the quantity
  // SessionManager's max_resident_bytes quota sums. Grows as answers are
  // memoized and stops at the cache's capacity. An estimate on purpose:
  // eviction needs a stable relative ordering, not an allocator audit.
  size_t resident_bytes() const;

 private:
  // Signature -> answer, most-recent first. The index keys view the
  // signatures stored here (list nodes never move), so each is held once.
  using AnswerList = std::list<std::pair<std::string, PredictOutcome>>;

  TraceSession(Trace trace, DependencyGraph graph, SessionOptions options);

  // Answer-cache probe: counts a hit or a miss; on a hit fills `outcome` and
  // promotes the entry.
  bool FindAnswer(const std::string& signature, PredictOutcome* outcome);
  // Records how a miss was filled and memoizes its answer, evicting the
  // least-recently-used entry past capacity.
  void StoreAnswer(const std::string& signature, const PredictOutcome& outcome, bool retimed);

  const SessionOptions options_;
  Daydream daydream_;
  std::optional<ModelId> model_id_;
  // Layer-structured what-ifs need the model graph; built once, shared by
  // every resolved transform (read-only, as in BuildStandardSweep).
  std::shared_ptr<const ModelGraph> model_graph_;
  size_t base_bytes_ = 0;  // resident bytes of everything but the answers

  mutable std::mutex answers_mu_;
  AnswerList answers_;
  std::unordered_map<std::string_view, AnswerList::iterator> answer_index_;
  size_t answer_bytes_ = 0;
  PlanCacheStats stats_;
};

// Resource quotas for the session table; zero disables a bound.
struct SessionManagerLimits {
  size_t max_sessions = 0;
  size_t max_resident_bytes = 0;
};

// The serve session table: handles ("s1", "s2", ...) -> sessions.
// Thread-safe; a session closed while requests are in flight stays alive
// until the last shared_ptr drops. Opening a session past the quotas evicts
// the least-recently-used session (Get bumps recency); an evicted handle
// answers `unknown_session` afterwards — clients re-`open`, which is cheap
// compared to wedging the daemon on resident traces nobody queries.
class SessionManager {
 public:
  SessionManager() = default;
  explicit SessionManager(SessionManagerLimits limits) : limits_(limits) {}

  std::string Open(std::shared_ptr<TraceSession> session);
  std::shared_ptr<TraceSession> Get(const std::string& handle) const;
  bool Close(const std::string& handle);
  size_t size() const;
  // Handles in insertion order (stable listing for the `sessions` verb).
  std::vector<std::string> Handles() const;

  uint64_t evicted() const;        // sessions dropped by quota eviction
  size_t resident_bytes() const;   // summed session estimates

 private:
  struct Entry {
    std::string handle;
    std::shared_ptr<TraceSession> session;
    uint64_t last_use = 0;  // LRU clock; bumped by Get
  };

  // Drops LRU entries until the quotas hold, never evicting `keep` (the
  // just-opened session must survive its own admission). Called under mu_.
  void EnforceQuotasLocked(const std::string& keep);

  const SessionManagerLimits limits_;
  mutable std::mutex mu_;
  // Insertion-ordered (handle "s10" must list after "s9", which a map keyed
  // on the handle string would not give); session counts are small.
  mutable std::vector<Entry> sessions_;
  uint64_t next_handle_ = 0;
  mutable uint64_t use_clock_ = 0;
  uint64_t evicted_ = 0;
};

}  // namespace daydream

#endif  // SRC_SERVICE_SESSION_H_
