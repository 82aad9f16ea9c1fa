// perfbench_replay: the in-process half of the what-if answer benchmark
// (perfbench/README.md).
//
// run.py times answers through the real transports (a `daydream serve`
// daemon, or one CLI process per question). This program replays the same
// seeded requests in-process and times every call it makes into a layer's
// public functions, so the per-layer rows can be set against the end-to-end
// numbers. It also computes the expected answers the output check compares
// against. The spans live in the harness, around the calls; nothing inside
// the library is instrumented.
//
//   perfbench_replay oracle --trace F --format ddtrace|chrome --requests F
//       One line per request: id, baseline_ms, predicted_ms, tasks (tab
//       separated), from a fresh TraceSession.
//   perfbench_replay replay --workload W --trace F [--chrome F]
//       [--requests F --warmup F --count N] [--cluster L --gbps L]
//       [--iterations N]
//       W is a workload of run.py, or `sweep` (SweepRunner on a fixed
//       matrix, replayed in the cli-predict traced run). Prints one JSON
//       object with the stage table and the accounting.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/dependency_graph.h"
#include "src/core/graph_builder.h"
#include "src/core/graph_lint.h"
#include "src/core/sim_plan.h"
#include "src/core/simulator.h"
#include "src/models/model_zoo.h"
#include "src/runtime/config.h"
#include "src/runtime/ground_truth.h"
#include "src/runtime/sweep.h"
#include "src/service/request_executor.h"
#include "src/service/session.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/import_chrome.h"
#include "src/trace/trace_io.h"
#include "src/util/json.h"
#include "src/util/string_util.h"
#include "src/util/time_units.h"
#include "tools/cli_args.h"

namespace daydream {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 3;  // set-up replays per workload
constexpr int kSweepJobs = 2;  // SweepRunner width, as `daydream sweep --jobs 2`
constexpr int kSweepReps = 2;  // sweeps per pass in the sweep replay

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// The stage rows, in report order. cli.spawn is timed by run.py.
const char* const kStages[] = {
    "trace.read_ddtrace", "trace.import_chrome", "core.build_graph", "core.lint",
    "core.clone",         "core.transform",      "core.compile",     "core.retime",
    "core.dispatch",      "service.session_create", "service.predict", "service.handle",
    "util.json_parse",    "runtime.sweep",       "runtime.collect",
};

// Per-stage call durations. A disabled log runs the calls untimed, so the
// traced and untraced passes execute the same loop.
class StageLog {
 public:
  explicit StageLog(bool enabled) : enabled_(enabled) {}

  template <typename F>
  auto Time(const char* stage, F&& call) {
    if (!enabled_) {
      return call();
    }
    const Clock::time_point start = Clock::now();
    auto result = call();
    samples_[stage].push_back(MsSince(start));
    return result;
  }

  bool enabled() const { return enabled_; }
  const std::vector<double>& samples(const std::string& stage) const {
    static const std::vector<double> kNone;
    auto it = samples_.find(stage);
    return it == samples_.end() ? kNone : it->second;
  }
  double Busy(const std::string& stage) const {
    double total = 0;
    for (double ms : samples(stage)) {
      total += ms;
    }
    return total;
  }

 private:
  bool enabled_;
  std::map<std::string, std::vector<double>> samples_;
};

// Nearest-rank percentile, the definition run.py uses too.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size()))), 1,
      values.size());
  return values[rank - 1];
}

[[noreturn]] void Fail(const std::string& message) {
  std::cerr << "perfbench_replay: " << message << "\n";
  std::exit(1);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  if (path.empty()) {
    return lines;
  }
  std::ifstream in(path);
  if (!in.good()) {
    Fail("cannot read " + path);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

// A predict request line lowered the way the serve protocol lowers it
// (field `what_if` -> flag --what-if), parsed by the shared flag parser.
WhatIfRequest ParseRequest(const JsonObject& object) {
  Args args;
  args.command = "predict";
  for (const auto& [key, value] : object.fields()) {
    if (key == "id" || key == "verb" || key == "session") {
      continue;
    }
    std::string flag = key;
    std::replace(flag.begin(), flag.end(), '_', '-');
    args.flags[flag] = value.kind == JsonValue::Kind::kString ? value.string : value.raw;
  }
  WhatIfRequest request;
  std::string error;
  if (!ParseWhatIfRequest(args, &request, &error)) {
    Fail("bad request: " + error);
  }
  return request;
}

struct Request {
  std::string line;
  std::string id;
  WhatIfRequest what_if;
};

std::vector<Request> LoadRequests(const std::string& path) {
  std::vector<Request> requests;
  for (const std::string& line : ReadLines(path)) {
    std::string error;
    const std::optional<JsonObject> object = ParseJsonObject(line, &error);
    if (!object.has_value()) {
      Fail("bad request line: " + error);
    }
    const JsonValue* id = object->Find("id");
    requests.push_back({line, id == nullptr ? "" : id->raw, ParseRequest(*object)});
  }
  return requests;
}

Trace LoadTrace(const std::string& path, TraceFormat format) {
  std::string error;
  std::optional<Trace> trace = ReadTraceFileAs(path, format, &error);
  if (!trace.has_value()) {
    Fail("cannot read " + path + ": " + error);
  }
  return std::move(*trace);
}

std::shared_ptr<TraceSession> CreateSession(Trace trace) {
  std::string error;
  std::shared_ptr<TraceSession> session = TraceSession::Create(std::move(trace), {}, &error);
  if (session == nullptr) {
    Fail("session: " + error);
  }
  return session;
}

PredictOutcome Predict(TraceSession* session, const WhatIfRequest& request) {
  PredictOutcome outcome;
  std::string error;
  if (session->Predict(request, &outcome, &error) != SessionStatus::kOk) {
    Fail("predict: " + error);
  }
  return outcome;
}

// What the accounting adds up: time inside the whole in-process calls
// (TraceSession::Create / Predict, SweepRunner::Run) and inside the stage
// calls that replay their pieces.
struct Accounting {
  double whole_ms = 0;
  double parts_ms = 0;
  int64_t answers = 0;
  int64_t answer_tasks = 0;     // tasks in the plans dispatched for answers
  int64_t dispatched_tasks = 0; // every dispatch, baselines included
  int64_t events = 0;           // trace events read or imported
  int64_t mismatches = 0;       // replayed answer != the session's answer
};

// The stages the whole calls are replayed with. Only the replays record
// them, so the growth of their sum across a replay is that replay's parts.
double CoreBusy(const StageLog& log) {
  double total = 0;
  for (const char* stage : {"core.build_graph", "core.lint", "core.clone", "core.transform",
                            "core.compile", "core.retime", "core.dispatch"}) {
    total += log.Busy(stage);
  }
  return total;
}

// The build half of TraceSession::Create, replayed stage by stage:
// build the graph, lint it, compile and dispatch the baseline plan.
struct Baseline {
  DependencyGraph graph;
  SimPlan plan;
  TimeNs makespan = 0;
};

Baseline ReplayBaseline(const Trace& trace, StageLog* log, Accounting* acct) {
  Baseline base;
  base.graph = log->Time("core.build_graph", [&] { return BuildDependencyGraph(trace); });
  const LintReport report =
      log->Time("core.lint", [&] { return GraphLint::LintStructure(base.graph); });
  if (!report.ok()) {
    Fail("baseline graph fails lint");
  }
  const EarliestStartScheduler scheduler;
  base.plan = log->Time("core.compile", [&] { return SimPlan::Compile(base.graph, scheduler); });
  base.makespan = log->Time("core.dispatch", [&] { return base.plan.Run().makespan; });
  acct->dispatched_tasks += base.plan.num_tasks();
  return base;
}

// TraceSession::Predict's pipeline, replayed stage by stage through the
// public calls: clone the baseline, apply the transform the session
// resolves, lint, compile (or retime over the baseline structure), dispatch.
// `memo_` stands in for the session's signature-keyed caches (same capacity,
// same LRU order), so a warm request replays as a dispatch only.
class AnswerReplay {
 public:
  AnswerReplay(const TraceSession& resolver, const DependencyGraph& baseline,
               const SimPlan& baseline_plan)
      : resolver_(resolver), baseline_(baseline), baseline_plan_(baseline_plan) {}

  // Returns the predicted makespan.
  TimeNs Answer(const WhatIfRequest& request, StageLog* log, Accounting* acct) {
    const std::string signature = request.Signature();
    auto it = memo_.find(signature);
    if (it == memo_.end()) {
      std::function<void(DependencyGraph*)> transform;
      std::string error;
      if (resolver_.ResolveTransform(request, &transform, &error) != SessionStatus::kOk) {
        Fail("resolve: " + error);
      }
      DependencyGraph graph = log->Time("core.clone", [&] { return baseline_.Clone(); });
      log->Time("core.transform", [&] {
        transform(&graph);
        return 0;
      });
      const LintReport report =
          log->Time("core.lint", [&] { return GraphLint::LintStructure(graph); });
      if (!report.ok()) {
        Fail("transformed graph fails lint: " + signature);
      }
      const EarliestStartScheduler scheduler;
      SimPlan plan;
      if (baseline_plan_.CompatibleWith(graph)) {
        plan = log->Time(
            "core.retime", [&] { return SimPlan::Retime(baseline_plan_, graph, scheduler); });
      } else {
        plan = log->Time("core.compile", [&] { return SimPlan::Compile(graph, scheduler); });
      }
      it = memo_.emplace(signature, std::move(plan)).first;
      order_.push_back(signature);
      if (memo_.size() > capacity_) {
        memo_.erase(order_.front());
        order_.erase(order_.begin());
      }
    } else {
      order_.erase(std::find(order_.begin(), order_.end(), signature));
      order_.push_back(signature);
    }
    const SimPlan& plan = it->second;
    if (log->enabled()) {  // untimed warm-up dispatches stay out of the rates
      acct->answer_tasks += plan.num_tasks();
      acct->dispatched_tasks += plan.num_tasks();
    }
    return log->Time("core.dispatch", [&] { return plan.Run().makespan; });
  }

 private:
  const TraceSession& resolver_;
  const DependencyGraph& baseline_;
  const SimPlan& baseline_plan_;
  const size_t capacity_ = SessionOptions{}.plan_cache_capacity;
  std::map<std::string, SimPlan> memo_;  // signature -> plan
  std::vector<std::string> order_;  // LRU, least recent first
};

// The ranked sweep computed case by case through the core calls — the
// independent check on SweepRunner, and its stage replay when traced.
std::vector<SweepOutcome> SerialSweep(const TraceSession& session,
                                      const std::vector<SweepCase>& cases, StageLog* log,
                                      Accounting* acct) {
  const Daydream& daydream = session.daydream();
  const EarliestStartScheduler scheduler;
  std::vector<SweepOutcome> outcomes;
  for (const SweepCase& sweep_case : cases) {
    DependencyGraph graph = log->Time("core.clone", [&] { return daydream.graph().Clone(); });
    log->Time("core.transform", [&] {
      sweep_case.transform(&graph);
      return 0;
    });
    if (!log->Time("core.lint", [&] { return GraphLint::LintStructure(graph); }).ok()) {
      Fail("sweep case fails lint: " + sweep_case.name);
    }
    SimPlan plan;
    if (daydream.baseline_plan().CompatibleWith(graph)) {
      plan = log->Time("core.retime",
                       [&] { return SimPlan::Retime(daydream.baseline_plan(), graph, scheduler); });
    } else {
      plan = log->Time("core.compile", [&] { return SimPlan::Compile(graph, scheduler); });
    }
    SweepOutcome outcome;
    outcome.name = sweep_case.name;
    outcome.tasks = graph.num_alive();
    outcome.prediction.baseline = daydream.BaselineSimTime();
    outcome.prediction.predicted = log->Time("core.dispatch", [&] { return plan.Run().makespan; });
    acct->answer_tasks += plan.num_tasks();
    acct->dispatched_tasks += plan.num_tasks();
    outcomes.push_back(std::move(outcome));
  }
  RankBySpeedup(&outcomes);
  return outcomes;
}

std::vector<SweepCase> SweepCases(const Args& args, const Trace& trace) {
  std::string error;
  const std::optional<std::vector<ClusterConfig>> clusters = ParseClusterList(args, &error);
  if (!clusters.has_value()) {
    Fail("sweep matrix: " + error);
  }
  return BuildStandardSweep(trace, *clusters);
}

bool SameOutcomes(const std::vector<SweepOutcome>& a, const std::vector<SweepOutcome>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].tasks != b[i].tasks ||
        a[i].prediction.predicted != b[i].prediction.predicted) {
      return false;
    }
  }
  return true;
}

int Oracle(const Args& args) {
  const std::optional<TraceFormat> format = ParseTraceFormat(args.Get("format", "ddtrace"));
  if (!format.has_value()) {
    Fail("bad --format");
  }
  const std::shared_ptr<TraceSession> session =
      CreateSession(LoadTrace(args.Get("trace"), *format));
  std::map<std::string, PredictOutcome> answers;  // signature -> outcome
  for (const Request& request : LoadRequests(args.Get("requests"))) {
    const std::string signature = request.what_if.Signature();
    auto it = answers.find(signature);
    if (it == answers.end()) {
      it = answers.emplace(signature, Predict(session.get(), request.what_if)).first;
    }
    const PredictionResult& r = it->second.prediction;
    std::cout << request.id << "\t" << StrFormat("%.3f", ToMs(r.baseline)) << "\t"
              << StrFormat("%.3f", ToMs(r.predicted)) << "\t" << it->second.tasks << "\n";
  }
  return 0;
}

int IntFlag(const Args& args, const std::string& name, int fallback) {
  const std::optional<int> value = ParseInt(args.Get(name, std::to_string(fallback)));
  if (!value.has_value() || *value < 0) {
    Fail("bad --" + name);
  }
  return *value;
}

// Set-up stages every workload pays before its first answer: profile the
// model, read the trace back, open a session. The session's build half is
// replayed stage by stage so Create is accounted like any other whole call.
Trace ReplaySetup(const Args& args, StageLog* log, Accounting* acct) {
  const int iterations = std::max(1, IntFlag(args, "iterations", 1));
  const bool chrome = !args.Get("chrome").empty();
  Trace trace;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Trace collected = log->Time("runtime.collect", [&] {
      return CollectBaselineTrace(DefaultRunConfig(ModelId::kBertLarge), iterations);
    });
    if (chrome) {
      // One CLI question starts from the Chrome export; its session is
      // opened per question (see the cli-predict passes), not here.
      std::string error;
      std::optional<Trace> imported = log->Time(
          "trace.import_chrome", [&] { return ImportChromeTraceFile(args.Get("chrome"), &error); });
      if (!imported.has_value()) {
        Fail("chrome import: " + error);
      }
      trace = std::move(*imported);
    } else {
      trace = log->Time("trace.read_ddtrace",
                        [&] { return LoadTrace(args.Get("trace"), TraceFormat::kDdtrace); });
    }
    acct->events += static_cast<int64_t>(trace.size());
    if (collected.size() != trace.size()) {
      Fail("collected trace differs from the file the benchmark wrote");
    }
    if (!chrome) {
      Trace copy = trace;  // Create consumes its trace, as the open verb's read does
      const std::shared_ptr<TraceSession> session = log->Time(
          "service.session_create", [&] { return CreateSession(std::move(copy)); });
      acct->whole_ms += log->samples("service.session_create").back();
      const double before = CoreBusy(*log);
      const Baseline base = ReplayBaseline(trace, log, acct);
      acct->parts_ms += CoreBusy(*log) - before;
      if (base.makespan != session->daydream().BaselineSimTime()) {
        ++acct->mismatches;
      }
    }
  }
  return trace;
}

struct PassResult {
  double wall_ms = 0;
  std::vector<TimeNs> predicted;
  PlanCacheStats timed_stats;  // plan-cache counters over the timed requests
};

// One pass of the serve answer loop against a fresh session: warm-up
// requests untimed, then the timed requests through TraceSession::Predict.
PassResult ServePass(const Trace& trace, const std::vector<Request>& warmup,
                     const std::vector<Request>& requests, StageLog* log) {
  const std::shared_ptr<TraceSession> session = CreateSession(trace);
  for (const Request& request : warmup) {
    Predict(session.get(), request.what_if);
  }
  const PlanCacheStats before = session->plan_cache_stats();
  PassResult result;
  const Clock::time_point start = Clock::now();
  for (const Request& request : requests) {
    const PredictOutcome outcome =
        log->Time("service.predict", [&] { return Predict(session.get(), request.what_if); });
    result.predicted.push_back(outcome.prediction.predicted);
  }
  result.wall_ms = MsSince(start);
  const PlanCacheStats after = session->plan_cache_stats();
  result.timed_stats = {after.hits - before.hits, after.misses - before.misses,
                        after.evictions - before.evictions, after.retimes - before.retimes,
                        after.compiles - before.compiles};
  return result;
}

// Runs `pass` traced and untraced and sums the wall time of each. A discarded
// first pass warms the allocator and the page cache, then traced and
// untraced passes alternate twice so drift lands on both sides. Only the
// first traced pass records into `log` (the stage table); the second records
// into a scratch log so every call is counted once.
template <typename Pass>
void TracedAndUntraced(Pass&& pass, StageLog* log, double* traced_ms, double* untraced_ms) {
  StageLog untimed(false);
  StageLog scratch(true);
  pass(&untimed);
  *traced_ms = pass(log);
  *untraced_ms = pass(&untimed);
  *traced_ms += pass(&scratch);
  *untraced_ms += pass(&untimed);
}

std::vector<Request> Take(std::vector<Request> requests, size_t count) {
  if (count > 0 && requests.size() > count) {
    requests.resize(count);
  }
  return requests;
}

void PrintReport(const StageLog& log, const Accounting& acct, double traced_ms,
                 double untraced_ms, const PlanCacheStats& stats) {
  std::string out = "{\"stages\": {";
  bool first = true;
  for (const char* stage : kStages) {
    const std::vector<double>& samples = log.samples(stage);
    out += StrFormat("%s\"%s\": {\"calls\": %zu, \"busy_ms\": %.6f, \"ms_p50\": %.6f}",
                     first ? "" : ", ", stage, samples.size(), log.Busy(stage),
                     Percentile(samples, 50));
    first = false;
  }
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  const double dispatch_s = log.Busy("core.dispatch") / 1000.0;
  const double ingest_s = (log.Busy("trace.read_ddtrace") + log.Busy("trace.import_chrome")) /
                          1000.0;
  out += StrFormat(
      "}, \"answers\": %lld, \"whole_ms\": %.6f, \"parts_ms\": %.6f, \"unattributed_ms\": %.6f, "
      "\"traced_ms\": %.6f, \"untraced_ms\": %.6f, \"overhead_pct\": %.6f, "
      "\"mismatches\": %lld, \"plan_cache_hit_ratio\": %.6f, \"plan_cache_compiles\": %llu, "
      "\"plan_cache_retimes\": %llu, \"plan_cache_evictions\": %llu, "
      "\"tasks_per_answer\": %.3f, \"dispatch_tasks_per_s\": %.1f, \"events_per_s\": %.1f}",
      static_cast<long long>(acct.answers), acct.whole_ms, acct.parts_ms,
      acct.whole_ms - acct.parts_ms, traced_ms, untraced_ms,
      untraced_ms > 0 ? (traced_ms - untraced_ms) / untraced_ms * 100.0 : 0.0,
      static_cast<long long>(acct.mismatches), lookups > 0 ? stats.hits / lookups : 0.0,
      static_cast<unsigned long long>(stats.compiles),
      static_cast<unsigned long long>(stats.retimes),
      static_cast<unsigned long long>(stats.evictions),
      acct.answers > 0 ? static_cast<double>(acct.answer_tasks) / acct.answers : 0.0,
      dispatch_s > 0 ? acct.dispatched_tasks / dispatch_s : 0.0,
      ingest_s > 0 ? acct.events / ingest_s : 0.0);
  std::cout << out << "\n";
}

// serve-warm / serve-cold: the daemon's answer path in-process. Passes over
// the same timed requests: TraceSession::Predict traced and untraced, the
// stage replay of each Predict, and RequestExecutor::Handle on the request
// lines.
int ReplayServe(const Args& args) {
  StageLog log(true);
  StageLog untimed(false);
  Accounting acct;
  const Trace trace = ReplaySetup(args, &log, &acct);
  const std::vector<Request> warmup = LoadRequests(args.Get("warmup"));
  const std::vector<Request> requests =
      Take(LoadRequests(args.Get("requests")), static_cast<size_t>(IntFlag(args, "count", 0)));

  PassResult traced;
  auto pass = [&](StageLog* pass_log) {
    PassResult result = ServePass(trace, warmup, requests, pass_log);
    if (pass_log == &log) {
      traced = result;
    } else if (!traced.predicted.empty() && result.predicted != traced.predicted) {
      ++acct.mismatches;
    }
    return result.wall_ms;
  };
  double traced_ms = 0;
  double untraced_ms = 0;
  TracedAndUntraced(pass, &log, &traced_ms, &untraced_ms);
  acct.whole_ms += log.Busy("service.predict");
  acct.answers += static_cast<int64_t>(requests.size());

  const std::shared_ptr<TraceSession> resolver = CreateSession(trace);
  const Daydream& daydream = resolver->daydream();
  AnswerReplay replay(*resolver, daydream.graph(), daydream.baseline_plan());
  for (const Request& request : warmup) {
    replay.Answer(request.what_if, &untimed, &acct);
  }
  const double before = CoreBusy(log);
  for (size_t i = 0; i < requests.size(); ++i) {
    if (replay.Answer(requests[i].what_if, &log, &acct) != traced.predicted[i]) {
      ++acct.mismatches;
    }
  }
  acct.parts_ms += CoreBusy(log) - before;

  RequestExecutor executor;
  const std::string open = StrFormat("{\"id\": 0, \"verb\": \"open\", \"trace\": \"%s\"}",
                                     JsonEscape(args.Get("trace")).c_str());
  if (executor.Handle(open).line.find("\"session\": \"s1\"") == std::string::npos) {
    Fail("executor open failed");
  }
  for (const Request& request : warmup) {
    executor.Handle(request.line);
  }
  for (const Request& request : requests) {
    log.Time("util.json_parse", [&] { return ParseJsonObject(request.line); });
    const RequestExecutor::Response response =
        log.Time("service.handle", [&] { return executor.Handle(request.line); });
    if (response.line.find("\"ok\": true") == std::string::npos) {
      ++acct.mismatches;
    }
  }
  PrintReport(log, acct, traced_ms, untraced_ms, traced.timed_stats);
  return 0;
}

// cli-predict: what one `daydream predict --format chrome` process does
// in-process, per question — import the Chrome export, open a session,
// predict. The whole call is Create + Predict; its stage replay rebuilds the
// baseline and replays the answer on a fresh memo (a CLI process starts
// with empty caches).
int ReplayPredict(const Args& args) {
  StageLog log(true);
  Accounting acct;
  const Trace chrome_trace = ReplaySetup(args, &log, &acct);
  const std::vector<Request> requests =
      Take(LoadRequests(args.Get("requests")), static_cast<size_t>(IntFlag(args, "count", 0)));
  const std::string chrome = args.Get("chrome");

  std::vector<TimeNs> predicted;
  PlanCacheStats stats;
  auto pass = [&](StageLog* pass_log) {
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < requests.size(); ++i) {
      std::string error;
      std::optional<Trace> trace = pass_log->Time(
          "trace.import_chrome", [&] { return ImportChromeTraceFile(chrome, &error); });
      if (!trace.has_value()) {
        Fail("chrome import: " + error);
      }
      const int64_t events = static_cast<int64_t>(trace->size());
      const std::shared_ptr<TraceSession> session = pass_log->Time(
          "service.session_create", [&] { return CreateSession(std::move(*trace)); });
      const PredictOutcome outcome = pass_log->Time(
          "service.predict", [&] { return Predict(session.get(), requests[i].what_if); });
      if (pass_log == &log) {
        acct.events += events;
        predicted.push_back(outcome.prediction.predicted);
        const PlanCacheStats s = session->plan_cache_stats();
        stats = {stats.hits + s.hits, stats.misses + s.misses, stats.evictions + s.evictions,
                 stats.retimes + s.retimes, stats.compiles + s.compiles};
      } else if (i < predicted.size() && outcome.prediction.predicted != predicted[i]) {
        ++acct.mismatches;
      }
    }
    return MsSince(start);
  };
  double traced_ms = 0;
  double untraced_ms = 0;
  TracedAndUntraced(pass, &log, &traced_ms, &untraced_ms);
  acct.whole_ms += log.Busy("service.session_create") + log.Busy("service.predict");
  acct.answers += static_cast<int64_t>(requests.size());

  const std::shared_ptr<TraceSession> resolver = CreateSession(chrome_trace);
  const double before = CoreBusy(log);
  for (size_t i = 0; i < requests.size(); ++i) {
    const Baseline base = ReplayBaseline(chrome_trace, &log, &acct);
    AnswerReplay replay(*resolver, base.graph, base.plan);
    if (replay.Answer(requests[i].what_if, &log, &acct) != predicted[i]) {
      ++acct.mismatches;
    }
  }
  acct.parts_ms += CoreBusy(log) - before;
  PrintReport(log, acct, traced_ms, untraced_ms, stats);
  return 0;
}

// sweep: SweepRunner::Run at the CLI's width is the runtime.sweep row.
// A serial SweepRunner::Run is the whole call the serial case-by-case stage
// replay adds up to (a parallel run's wall time cannot equal a sum of
// serial stages).
int ReplaySweep(const Args& args) {
  StageLog log(true);
  Accounting acct;
  const Trace trace = ReplaySetup(args, &log, &acct);
  const std::shared_ptr<TraceSession> session = CreateSession(trace);
  const std::vector<SweepCase> cases = SweepCases(args, session->trace());
  SweepOptions options;
  options.num_threads = kSweepJobs;

  std::vector<SweepOutcome> parallel;
  auto pass = [&](StageLog* pass_log) {
    const Clock::time_point start = Clock::now();
    for (int rep = 0; rep < kSweepReps; ++rep) {
      std::vector<SweepOutcome> outcomes = pass_log->Time("runtime.sweep", [&] {
        std::vector<SweepOutcome> ranked = SweepRunner(session->daydream(), options).Run(cases);
        RankBySpeedup(&ranked);
        return ranked;
      });
      if (parallel.empty()) {
        parallel = std::move(outcomes);
      } else if (!SameOutcomes(outcomes, parallel)) {
        ++acct.mismatches;
      }
    }
    return MsSince(start);
  };
  double traced_ms = 0;
  double untraced_ms = 0;
  TracedAndUntraced(pass, &log, &traced_ms, &untraced_ms);

  SweepOptions serial_options;
  serial_options.num_threads = 1;
  for (int rep = 0; rep < kSweepReps; ++rep) {
    const Clock::time_point start = Clock::now();
    std::vector<SweepOutcome> serial = SweepRunner(session->daydream(), serial_options).Run(cases);
    acct.whole_ms += MsSince(start);
    RankBySpeedup(&serial);
    const double before = CoreBusy(log);
    const std::vector<SweepOutcome> replayed = SerialSweep(*session, cases, &log, &acct);
    acct.parts_ms += CoreBusy(log) - before;
    acct.answers += static_cast<int64_t>(replayed.size());
    if (!SameOutcomes(replayed, serial) || !SameOutcomes(replayed, parallel)) {
      ++acct.mismatches;
    }
  }
  PrintReport(log, acct, traced_ms, untraced_ms, session->plan_cache_stats());
  return 0;
}

int Replay(const Args& args) {
  const std::string workload = args.Get("workload");
  if (workload == "serve-warm" || workload == "serve-cold") {
    return ReplayServe(args);
  }
  if (workload == "cli-predict") {
    return ReplayPredict(args);
  }
  if (workload == "sweep") {
    return ReplaySweep(args);
  }
  Fail("unknown --workload '" + workload + "'");
}

}  // namespace
}  // namespace daydream

int main(int argc, char** argv) {
  const daydream::Args args = daydream::ParseArgs(argc, argv);
  if (!args.ok()) {
    daydream::Fail(args.error);
  }
  if (args.command == "oracle") {
    return daydream::Oracle(args);
  }
  if (args.command == "replay") {
    return daydream::Replay(args);
  }
  std::cerr << "usage: perfbench_replay oracle|replay [flags] (see replay.cc)\n";
  return 2;
}
