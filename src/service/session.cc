#include "src/service/session.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/core/breakdown.h"
#include "src/core/critical_path.h"
#include "src/core/graph_builder.h"
#include "src/core/layer_report.h"
#include "src/core/optimizations/optimizations.h"
#include "src/util/fault.h"
#include "src/util/string_util.h"

namespace daydream {

namespace {

std::optional<ModelId> LookupModel(const std::string& name) {
  for (ModelId id : AllModels()) {
    if (name == ModelName(id)) {
      return id;
    }
  }
  return std::nullopt;
}

std::string NetworkSignature(const NetworkSpec& network) {
  return StrFormat("%.17g/%lld/%.17g/%lld", network.bandwidth_gbps,
                   static_cast<long long>(network.inter_node_latency), network.intra_node_gbs,
                   static_cast<long long>(network.intra_node_latency));
}

}  // namespace

std::string WhatIfRequest::Signature() const {
  // Only parameters that shape the transform belong here: engine/validate/
  // sim_jobs select how a transformed graph is consumed, not what it is, and
  // must not fragment the answer cache.
  if (what_if == "distributed") {
    return StrFormat("distributed:%dx%d:%s", cluster.machines, cluster.gpus_per_machine,
                     NetworkSignature(cluster.network).c_str());
  }
  if (what_if == "pipeline") {
    std::string boundaries;
    for (int b : pipeline.boundaries) {
      boundaries += StrFormat(",%d", b);
    }
    return StrFormat("pipeline:%d:%d:%d:%s:%s:%lld:%.17g", pipeline.num_stages,
                     pipeline.num_microbatches, static_cast<int>(pipeline.schedule),
                     boundaries.c_str(), NetworkSignature(pipeline.network).c_str(),
                     static_cast<long long>(pipeline.launch_overhead),
                     pipeline.microbatch_efficiency);
  }
  return what_if;
}

std::shared_ptr<TraceSession> TraceSession::Create(Trace trace, SessionOptions options,
                                                   std::string* error) {
  if (trace.empty()) {
    if (error != nullptr) {
      *error = "trace contains no events; nothing to analyze (re-run `daydream collect`?)";
    }
    return nullptr;
  }
  DependencyGraph graph = BuildDependencyGraph(trace);
  // Refuse here, with the lint report, rather than letting a later stage
  // DD_CHECK-abort the process on a malformed graph. This is the only
  // structural lint of the baseline: the adopting Daydream constructor
  // trusts it.
  const LintReport report = GraphLint::LintStructure(graph);
  if (!report.ok()) {
    if (error != nullptr) {
      *error = "trace produces an invalid dependency graph:\n" + report.ToString();
    }
    return nullptr;
  }
  return std::shared_ptr<TraceSession>(
      new TraceSession(std::move(trace), std::move(graph), options));
}

TraceSession::TraceSession(Trace trace, DependencyGraph graph, SessionOptions options)
    : options_(options),
      daydream_(std::move(trace), std::move(graph)),
      model_id_(LookupModel(daydream_.trace().model_name())) {
  if (model_id_.has_value()) {
    model_graph_ = std::make_shared<const ModelGraph>(BuildModel(*model_id_));
  }
  base_bytes_ = daydream_.trace().size() * sizeof(TraceEvent) +
                daydream_.graph().ResidentBytes() + daydream_.baseline_plan().ResidentBytes();
  if (model_graph_ != nullptr) {
    base_bytes_ += static_cast<size_t>(model_graph_->num_layers()) * sizeof(Layer);
  }
}

SessionStatus TraceSession::ResolveTransform(const WhatIfRequest& request,
                                             std::function<void(DependencyGraph*)>* transform,
                                             std::string* error) const {
  const std::string& what_if = request.what_if;
  if (what_if == "amp") {
    *transform = [](DependencyGraph* g) { WhatIfAmp(g); };
    return SessionStatus::kOk;
  }
  if (what_if == "fused_adam") {
    *transform = [](DependencyGraph* g) { WhatIfFusedAdam(g); };
    return SessionStatus::kOk;
  }
  if (what_if == "rbn" || what_if == "metaflow" || what_if == "gist" || what_if == "vdnn") {
    if (model_graph_ == nullptr) {
      *error = "trace lacks a known model name (needed for layer kinds)";
      return SessionStatus::kBadRequest;
    }
    // The layer-structured what-ifs need the model graph for layer kinds.
    std::shared_ptr<const ModelGraph> model = model_graph_;
    if (what_if == "rbn") {
      *transform = [model](DependencyGraph* g) { WhatIfRestructuredBatchnorm(g, *model); };
    } else if (what_if == "metaflow") {
      *transform = [model](DependencyGraph* g) { WhatIfMetaFlowFuseConvBn(g, *model); };
    } else if (what_if == "gist") {
      *transform = [model](DependencyGraph* g) { WhatIfGist(g, *model); };
    } else {
      *transform = [model](DependencyGraph* g) { WhatIfVdnn(g, *model); };
    }
    return SessionStatus::kOk;
  }
  if (what_if == "pipeline") {
    if (model_graph_ == nullptr) {
      *error = "trace lacks a known model name (needed for activation/parameter sizes)";
      return SessionStatus::kBadRequest;
    }
    std::shared_ptr<const ModelGraph> model = model_graph_;
    const PipelineWhatIf opts = request.pipeline;
    *transform = [model, opts](DependencyGraph* g) { WhatIfPipeline(g, *model, opts); };
    return SessionStatus::kOk;
  }
  if (what_if == "distributed") {
    DistributedWhatIf opts;
    opts.cluster = request.cluster;
    const std::vector<GradientInfo> gradients = daydream_.trace().gradients();
    *transform = [opts, gradients](DependencyGraph* g) {
      WhatIfDistributed(g, gradients, opts);
    };
    return SessionStatus::kOk;
  }
  // p3 lands here on purpose: it is not a graph transform (it reports its own
  // metric through PredictPsIterationTime against session->daydream()).
  *error = StrFormat("unknown what-if '%s'", what_if.c_str());
  return SessionStatus::kUnknownWhatIf;
}

bool TraceSession::FindAnswer(const std::string& signature, PredictOutcome* outcome) {
  std::lock_guard<std::mutex> lock(answers_mu_);
  auto it = answer_index_.find(signature);
  if (it == answer_index_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  answers_.splice(answers_.begin(), answers_, it->second);
  *outcome = it->second->second;
  outcome->cache_hit = true;
  return true;
}

void TraceSession::StoreAnswer(const std::string& signature, const PredictOutcome& outcome,
                               bool retimed) {
  // Fault site: a failed insert degrades gracefully — the request that
  // computed the answer still returns it, the cache just stays cold.
  const bool dropped = FaultInjector::Global().ShouldFail("plan_cache_insert");
  std::lock_guard<std::mutex> lock(answers_mu_);
  ++(retimed ? stats_.retimes : stats_.compiles);
  if (dropped) {
    return;
  }
  // One entry: its list node (signature, answer, two links), its index node
  // (key view, iterator, bucket link, cached hash) and the signature's bytes.
  auto entry_bytes = [](const std::string& key) {
    return sizeof(AnswerList::value_type) + 2 * sizeof(void*) + sizeof(std::string_view) +
           3 * sizeof(void*) + key.size();
  };
  auto found = answer_index_.find(signature);
  if (found != answer_index_.end()) {
    // A concurrent miss on the same signature stored first. The simulation
    // is deterministic, so its answer is this one; just refresh recency.
    answers_.splice(answers_.begin(), answers_, found->second);
    return;
  }
  answers_.emplace_front(signature, outcome);
  answer_index_.emplace(answers_.front().first, answers_.begin());
  answer_bytes_ += entry_bytes(signature);
  while (answers_.size() > options_.plan_cache_capacity) {
    const std::string& victim = answers_.back().first;
    answer_bytes_ -= entry_bytes(victim);
    answer_index_.erase(victim);
    answers_.pop_back();
    ++stats_.evictions;
  }
}

PlanCacheStats TraceSession::plan_cache_stats() const {
  std::lock_guard<std::mutex> lock(answers_mu_);
  return stats_;
}

size_t TraceSession::plan_cache_size() const {
  std::lock_guard<std::mutex> lock(answers_mu_);
  return answers_.size();
}

size_t TraceSession::resident_bytes() const {
  std::lock_guard<std::mutex> lock(answers_mu_);
  return base_bytes_ + answer_bytes_;
}

SessionStatus TraceSession::Predict(const WhatIfRequest& request, PredictOutcome* outcome,
                                    std::string* error, const Deadline& deadline) {
  const bool memoize = request.engine == EngineKind::kEvent && !request.validate;
  const std::string signature = memoize ? request.Signature() : std::string();
  outcome->cache_hit = false;
  if (memoize && FindAnswer(signature, outcome)) {
    return SessionStatus::kOk;
  }

  std::function<void(DependencyGraph*)> transform;
  const SessionStatus resolved = ResolveTransform(request, &transform, error);
  if (resolved != SessionStatus::kOk) {
    return resolved;
  }
  // The baseline graph supports concurrent const access (the SweepRunner
  // contract), so concurrent misses clone it without a lock.
  DependencyGraph graph = daydream_.CloneGraph();
  transform(&graph);
  // Structural lint before anyone compiles this graph — SimPlan::Compile
  // DD_CHECKs on a broken structure, and a daemon must refuse, not abort.
  const LintReport structure = GraphLint::LintStructure(graph);
  if (!structure.ok()) {
    *error = StrFormat("what-if '%s' produced an invalid graph:\n", request.what_if.c_str()) +
             structure.ToString();
    return SessionStatus::kLintFailed;
  }
  if (deadline.Expired()) {
    *error = "deadline expired after the what-if transform";
    return SessionStatus::kDeadlineExceeded;
  }
  if (request.validate) {
    // Strict mode (`predict --validate`): the full lint catalog over the
    // transformed graph, with every finding reported, before any prediction.
    const LintReport report = GraphLint::LintGraph(graph);
    if (!report.ok()) {
      *error = StrFormat("what-if '%s' fails lint:\n", request.what_if.c_str()) +
               report.ToString();
      return SessionStatus::kLintFailed;
    }
  }

  outcome->tasks = graph.num_alive();
  outcome->prediction.baseline = daydream_.BaselineSimTime();
  if (request.engine == EngineKind::kReference) {
    // The Algorithm-1 differential-debugging scan compiles no plan.
    const Simulator simulator(std::make_shared<EarliestStartScheduler>(), EngineKind::kReference);
    outcome->prediction.predicted = simulator.Run(graph).makespan;
    return SessionStatus::kOk;
  }

  if (FaultInjector::Global().ShouldFail("plan_compile")) {
    *error = "injected fault at plan_compile";
    return SessionStatus::kUnavailable;
  }
  // Timing-only transforms leave the baseline structure stamp intact, so the
  // baseline plan donates its structure block (Retime); anything else pays
  // the full CSR compile.
  const bool retime = daydream_.baseline_plan().CompatibleWith(graph);
  const SimPlan plan =
      Simulator().Compile(graph, retime ? &daydream_.baseline_plan() : nullptr);
  if (deadline.Expired()) {
    *error = "deadline expired before plan dispatch";
    return SessionStatus::kDeadlineExceeded;
  }
  // sim_jobs is clamped to the machine here (the serve executor additionally
  // caps it against its own worker count before the request reaches us).
  const int sim_jobs =
      std::clamp(request.sim_jobs, 1,
                 std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  if (sim_jobs > 1) {
    // The sharded engine checks the deadline between synchronization
    // horizons — the only dispatch path with a cooperative mid-run exit.
    bool deadline_hit = false;
    outcome->prediction.predicted =
        RunPlanParallel(plan, sim_jobs, nullptr, &deadline, &deadline_hit).makespan;
    if (deadline_hit) {
      *error = "deadline expired during sharded plan dispatch";
      return SessionStatus::kDeadlineExceeded;
    }
  } else {
    outcome->prediction.predicted = plan.Run().makespan;
  }
  if (memoize) {
    StoreAnswer(signature, *outcome, retime);
  }
  return SessionStatus::kOk;
}

std::vector<SweepOutcome> TraceSession::Sweep(const std::vector<SweepCase>& cases,
                                              const SweepOptions& options,
                                              bool* deadline_exceeded) const {
  return SweepRunner(daydream_, options).Run(cases, deadline_exceeded);
}

SessionStatus TraceSession::Lint(const WhatIfRequest* request, LintReport* report,
                                 bool* plan_passes_run, std::string* error) const {
  std::function<void(DependencyGraph*)> transform;
  if (request != nullptr) {
    const SessionStatus resolved = ResolveTransform(*request, &transform, error);
    if (resolved != SessionStatus::kOk) {
      return resolved;
    }
  }

  DependencyGraph graph = daydream_.CloneGraph();
  if (transform) {
    transform(&graph);
  }
  *report = GraphLint::LintGraph(graph);

  // Lint the compiled plan too — but only for a graph whose structure held
  // up, since Compile DD_CHECKs on (and a cyclic graph would wedge it).
  *plan_passes_run = report->ok();
  if (report->ok()) {
    const SimPlan plan = Simulator().Compile(graph);
    const LintReport plan_report = GraphLint::LintPlan(plan, graph);
    report->findings.insert(report->findings.end(), plan_report.findings.begin(),
                            plan_report.findings.end());
    report->passes_run.insert(report->passes_run.end(), plan_report.passes_run.begin(),
                              plan_report.passes_run.end());
    report->truncated = report->truncated || plan_report.truncated;
    report->num_errors += plan_report.num_errors;
    report->num_warnings += plan_report.num_warnings;
  }
  return SessionStatus::kOk;
}

std::string TraceSession::ReportText() const {
  const Trace& trace = daydream_.trace();
  std::string out;
  out += "model:  " + trace.model_name() + "\n";
  out += "config: " + trace.config() + "\n";
  out += StrFormat("events: %zu over %.1f ms\n\n", trace.size(), ToMs(trace.makespan()));
  out += ComputeBreakdown(trace).Summary() + "\n";
  out += ComputeCriticalPath(daydream_.graph()).Summary() + "\n\n";
  out += "hottest layer phases by GPU time:\n" + BuildLayerReport(trace).ToString(12);
  return out;
}

void SessionManager::EnforceQuotasLocked(const std::string& keep) {
  auto over_quota = [this] {
    if (limits_.max_sessions != 0 && sessions_.size() > limits_.max_sessions) {
      return true;
    }
    if (limits_.max_resident_bytes != 0) {
      size_t resident = 0;
      for (const Entry& entry : sessions_) {
        resident += entry.session->resident_bytes();
      }
      return resident > limits_.max_resident_bytes;
    }
    return false;
  };
  while (over_quota()) {
    auto victim = sessions_.end();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->handle == keep) {
        continue;  // the just-opened session must survive its own admission
      }
      if (victim == sessions_.end() || it->last_use < victim->last_use) {
        victim = it;
      }
    }
    if (victim == sessions_.end()) {
      break;  // only `keep` is left; a single over-budget session is admitted
    }
    sessions_.erase(victim);
    ++evicted_;
  }
}

std::string SessionManager::Open(std::shared_ptr<TraceSession> session) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string handle = StrFormat("s%llu", static_cast<unsigned long long>(++next_handle_));
  sessions_.push_back(Entry{handle, std::move(session), ++use_clock_});
  EnforceQuotasLocked(handle);
  return handle;
}

std::shared_ptr<TraceSession> SessionManager::Get(const std::string& handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& entry : sessions_) {
    if (entry.handle == handle) {
      entry.last_use = ++use_clock_;  // LRU bump: active sessions evict last
      return entry.session;
    }
  }
  return nullptr;
}

bool SessionManager::Close(const std::string& handle) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->handle == handle) {
      sessions_.erase(it);
      return true;
    }
  }
  return false;
}

size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

uint64_t SessionManager::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

size_t SessionManager::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t resident = 0;
  for (const Entry& entry : sessions_) {
    resident += entry.session->resident_bytes();
  }
  return resident;
}

std::vector<std::string> SessionManager::Handles() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> handles;
  handles.reserve(sessions_.size());
  for (const Entry& entry : sessions_) {
    handles.push_back(entry.handle);
  }
  return handles;
}

}  // namespace daydream
