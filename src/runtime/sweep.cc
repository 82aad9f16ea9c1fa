#include "src/runtime/sweep.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "src/core/optimizations/optimizations.h"
#include "src/models/model_zoo.h"
#include "src/trace/chrome_trace.h"  // JsonEscape
#include "src/util/csv.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace daydream {

// One case through the prepare stage.
struct SweepRunner::Prepared {
  size_t index = 0;
  PreparedWhatIf what_if;
};

SweepRunner::SweepRunner(const Daydream& daydream, SweepOptions options)
    : daydream_(daydream), options_(options) {}

namespace {

WhatIfOptions CaseOptions(const SweepOptions& options) {
  WhatIfOptions what_if;
  what_if.validate = options.validate;
  what_if.sim_jobs = options.sim_jobs;
  return what_if;
}

}  // namespace

SweepRunner::Prepared SweepRunner::Prepare(const SweepCase& sweep_case, size_t index) const {
  Prepared prepared;
  prepared.index = index;
  LintReport report;
  const WhatIfStatus status =
      daydream_.Prepare(sweep_case.transform, CaseOptions(options_), &prepared.what_if, &report);
  // A malformed graph would abort deep inside the engine with no context;
  // abort here instead, naming the case. --validate reports every finding
  // of the full catalog at once.
  DD_CHECK(status == WhatIfStatus::kOk)
      << "sweep case '" << sweep_case.name << "' "
      << WhatIfStatusPhrase(status == WhatIfStatus::kFailsLint ? WhatIfStatus::kInvalidGraph
                                                               : status)
      << ":\n"
      << report.ToString();
  return prepared;
}

TimeNs SweepRunner::Simulate(const Prepared& prepared, ThreadPool* pool) const {
  TimeNs predicted = 0;
  Daydream::Dispatch(prepared.what_if, CaseOptions(options_), pool, &predicted);
  return predicted;
}

std::vector<SweepOutcome> SweepRunner::Run(const std::vector<SweepCase>& cases,
                                           bool* deadline_exceeded) const {
  if (deadline_exceeded != nullptr) {
    *deadline_exceeded = false;
  }
  std::vector<SweepOutcome> outcomes(cases.size());
  if (cases.empty()) {
    return outcomes;
  }
  const bool bounded = options_.deadline.bounded();
  // One thread budget covers both parallelism levels: sim_jobs > 1 trades
  // case-level width for per-case sharded dispatch (workers ~ budget /
  // sim_jobs; the freed threads become the shared shard pool), so cases ×
  // shards never oversubscribes the requested thread count.
  int budget = options_.num_threads;
  if (budget <= 0) {
    budget = static_cast<int>(std::thread::hardware_concurrency());
  }
  budget = std::max(budget, 1);
  const int sim_jobs = std::max(options_.sim_jobs, 1);
  std::unique_ptr<ThreadPool> shard_pool;
  if (sim_jobs > 1) {
    shard_pool = std::make_unique<ThreadPool>(std::max(budget - std::max(budget / sim_jobs, 1), 0));
  }

  auto record = [&](Prepared* prepared, const SweepCase& sweep_case) {
    SweepOutcome& out = outcomes[prepared->index];
    out.name = sweep_case.name;
    out.tasks = prepared->what_if.tasks;
    out.prediction.baseline = daydream_.BaselineSimTime();
    out.prediction.predicted = Simulate(*prepared, shard_pool.get());
  };

  int workers = std::clamp(budget / sim_jobs, 1, static_cast<int>(cases.size()));
  if (workers == 1) {
    for (size_t i = 0; i < cases.size(); ++i) {
      if (bounded && options_.deadline.Expired()) {
        if (deadline_exceeded != nullptr) {
          *deadline_exceeded = true;
        }
        break;
      }
      Prepared prepared = Prepare(cases[i], i);
      record(&prepared, cases[i]);
    }
    return outcomes;
  }

  // Two-stage pipeline over one worker pool: each worker drains ready plans
  // first (simulation is the stage that retires cases) and otherwise claims
  // the next case to prepare. `depth` bounds prepared-but-unsimulated cases
  // so a fast prepare stage cannot balloon memory.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Prepared> ready;
  size_t next_case = 0;
  size_t simulated = 0;
  size_t preparing = 0;
  bool deadline_hit = false;
  const size_t depth = static_cast<size_t>(workers) + 2;

  auto work = [&]() {
    std::unique_lock<std::mutex> lock(mu);
    while (simulated < cases.size()) {
      // Cooperative cancellation: an expired budget abandons unclaimed cases
      // and drains already-prepared ones unrecorded. Cases mid-Prepare still
      // finish (preparers count themselves as simulated on re-entry).
      if (bounded && !deadline_hit && options_.deadline.Expired()) {
        deadline_hit = true;
        simulated += (cases.size() - next_case) + ready.size();
        next_case = cases.size();
        ready.clear();
        cv.notify_all();
        continue;
      }
      if (!ready.empty()) {
        Prepared prepared = std::move(ready.front());
        ready.pop_front();
        cv.notify_all();  // queue space freed for preparers
        lock.unlock();
        record(&prepared, cases[prepared.index]);
        lock.lock();
        if (++simulated == cases.size()) {
          cv.notify_all();
        }
        continue;
      }
      if (next_case < cases.size() && ready.size() + preparing < depth) {
        const size_t i = next_case++;
        ++preparing;
        lock.unlock();
        Prepared prepared = Prepare(cases[i], i);
        lock.lock();
        --preparing;
        if (deadline_hit) {
          // The budget expired while this case was being prepared: retire it
          // unrecorded instead of feeding the abandoned simulate stage.
          if (++simulated == cases.size()) {
            cv.notify_all();
          }
        } else {
          ready.push_back(std::move(prepared));
          cv.notify_all();
        }
        continue;
      }
      cv.wait(lock);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back(work);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  if (deadline_hit && deadline_exceeded != nullptr) {
    *deadline_exceeded = true;
  }
  return outcomes;
}

std::vector<SweepCase> BuildStandardSweep(const Trace& trace,
                                          const std::vector<ClusterConfig>& clusters) {
  std::vector<SweepCase> cases;
  cases.push_back({"amp", [](DependencyGraph* g) { WhatIfAmp(g); }});
  cases.push_back({"fused_adam", [](DependencyGraph* g) { WhatIfFusedAdam(g); }});

  if (const std::optional<ModelId> model_id = LookupModel(trace.model_name())) {
    // One shared immutable model graph serves all layer-structured cases.
    auto model = std::make_shared<const ModelGraph>(BuildModel(*model_id));
    cases.push_back(
        {"rbn", [model](DependencyGraph* g) { WhatIfRestructuredBatchnorm(g, *model); }});
    cases.push_back(
        {"metaflow", [model](DependencyGraph* g) { WhatIfMetaFlowFuseConvBn(g, *model); }});
    cases.push_back({"gist", [model](DependencyGraph* g) { WhatIfGist(g, *model); }});
    cases.push_back({"vdnn", [model](DependencyGraph* g) { WhatIfVdnn(g, *model); }});
  }

  if (!clusters.empty()) {
    auto gradients = std::make_shared<const std::vector<GradientInfo>>(trace.gradients());
    for (const ClusterConfig& cluster : clusters) {
      DistributedWhatIf opts;
      opts.cluster = cluster;
      cases.push_back({"distributed " + cluster.Label(),
                       [gradients, opts](DependencyGraph* g) {
                         WhatIfDistributed(g, *gradients, opts);
                       }});
    }
  }
  return cases;
}

bool AppendPipelineSweep(std::vector<SweepCase>* cases, const Trace& trace,
                         const PipelineSweepSpec& spec) {
  const std::optional<ModelId> model_id = LookupModel(trace.model_name());
  if (!model_id.has_value()) {
    return false;
  }
  auto model = std::make_shared<const ModelGraph>(BuildModel(*model_id));
  std::vector<PipelineScheduleKind> schedules = spec.schedules;
  if (schedules.empty()) {
    schedules = {PipelineScheduleKind::k1F1B, PipelineScheduleKind::kGPipe};
  }
  for (const int stages : spec.stages) {
    for (const PipelineScheduleKind kind : schedules) {
      PipelineWhatIf opts;
      opts.num_stages = stages;
      opts.num_microbatches = spec.microbatches;
      opts.schedule = kind;
      opts.network = spec.network;
      cases->push_back({StrFormat("pipeline %dst/%dmb %s", stages, spec.microbatches,
                                  ToString(kind)),
                        [model, opts](DependencyGraph* g) { WhatIfPipeline(g, *model, opts); }});
    }
  }
  return true;
}

void RankBySpeedup(std::vector<SweepOutcome>* outcomes) {
  std::sort(outcomes->begin(), outcomes->end(), [](const SweepOutcome& a, const SweepOutcome& b) {
    if (a.prediction.predicted != b.prediction.predicted) {
      return a.prediction.predicted < b.prediction.predicted;
    }
    return a.name < b.name;
  });
}

std::string SweepReportJson(const std::vector<SweepOutcome>& outcomes) {
  std::ostringstream os;
  os << "{\n";
  // No outcomes means no baseline was simulated; omit the field rather than
  // reporting a fake 0.0 ms baseline.
  if (!outcomes.empty()) {
    os << StrFormat("  \"baseline_ms\": %.3f,\n", ToMs(outcomes.front().prediction.baseline));
  }
  os << "  \"cases\": [\n";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const SweepOutcome& o = outcomes[i];
    os << StrFormat(
        "    {\"name\": \"%s\", \"predicted_ms\": %.3f, \"speedup_pct\": %.2f, "
        "\"speedup_ratio\": %.3f, \"tasks\": %d}%s\n",
        JsonEscape(o.name).c_str(), ToMs(o.prediction.predicted), o.prediction.SpeedupPct(),
        o.prediction.SpeedupRatio(), o.tasks, i + 1 < outcomes.size() ? "," : "");
  }
  os << "  ]\n}\n";
  return os.str();
}

bool WriteSweepCsv(const std::vector<SweepOutcome>& outcomes, const std::string& path) {
  // CsvWriter reports open failure itself — no probe open/close/reopen, which
  // used to truncate the target twice.
  CsvWriter csv(path,
                {"what_if", "baseline_ms", "predicted_ms", "speedup_pct", "speedup_ratio", "tasks"});
  if (!csv.ok()) {
    return false;
  }
  for (const SweepOutcome& o : outcomes) {
    csv.AddRow({o.name, StrFormat("%.3f", ToMs(o.prediction.baseline)),
                StrFormat("%.3f", ToMs(o.prediction.predicted)),
                StrFormat("%.2f", o.prediction.SpeedupPct()),
                StrFormat("%.3f", o.prediction.SpeedupRatio()), StrFormat("%d", o.tasks)});
  }
  csv.Flush();  // surface flush-time failures (e.g. full disk) in the result
  return csv.ok();
}

}  // namespace daydream
