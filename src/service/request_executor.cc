#include "src/service/request_executor.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/service/version.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/trace_io.h"
#include "src/util/fault.h"
#include "src/util/json.h"
#include "src/util/string_util.h"
#include "src/util/time_units.h"
#include "tools/cli_args.h"

namespace daydream {

namespace {

// Builds one single-line JSON response object. Values arrive pre-formatted
// (AddRaw) or are escaped/formatted here; keys are trusted literals.
// StrFormat (out-of-line) instead of operator+ chains: GCC 12's -Wrestrict
// misfires on inlined literal-string concatenation (PR105651).
class ResponseWriter {
 public:
  void AddRaw(const std::string& key, const std::string& raw) {
    body_ += separator();
    body_ += StrFormat("\"%s\": %s", key.c_str(), raw.c_str());
  }
  void AddString(const std::string& key, const std::string& value) {
    AddRaw(key, StrFormat("\"%s\"", JsonEscape(value).c_str()));
  }
  void AddBool(const std::string& key, bool value) { AddRaw(key, value ? "true" : "false"); }
  void AddInt(const std::string& key, long long value) {
    AddRaw(key, StrFormat("%lld", value));
  }
  void AddMs(const std::string& key, TimeNs value) {
    AddRaw(key, StrFormat("%.3f", ToMs(value)));
  }
  void AddDouble(const std::string& key, const char* fmt, double value) {
    AddRaw(key, StrFormat(fmt, value));
  }

  std::string Finish() const { return "{" + body_ + "}"; }

 private:
  const char* separator() { return body_.empty() ? "" : ", "; }
  std::string body_;
};

// The verb catalog, for the unknown-verb diagnostic. session.close is the
// namespaced alias of close (the session-layer verbs may grow siblings).
constexpr char kVerbs[] =
    "open, close, session.close, sessions, predict, sweep, lint, report, stats, version, ping, "
    "shutdown";

// The request id, re-encoded for the response. Numbers echo their untouched
// source token; strings are re-escaped; anything else (or no id) is omitted.
std::optional<std::string> IdToken(const JsonObject& request) {
  const JsonValue* id = request.Find("id");
  if (id == nullptr) {
    return std::nullopt;
  }
  switch (id->kind) {
    case JsonValue::Kind::kNumber:
      return id->raw;
    case JsonValue::Kind::kString:
      return StrFormat("\"%s\"", JsonEscape(id->string).c_str());
    case JsonValue::Kind::kBool:
      return std::string(id->boolean ? "true" : "false");
    case JsonValue::Kind::kNull:
      return std::nullopt;
  }
  return std::nullopt;
}

ResponseWriter BeginResponse(const std::optional<std::string>& id, bool ok) {
  ResponseWriter writer;
  if (id.has_value()) {
    writer.AddRaw("id", *id);
  }
  writer.AddBool("ok", ok);
  return writer;
}

// Clamp for the integer fields timeout_ms and cache_capacity before their
// cast from double: a budget past ~31 years or a capacity past 10^12 answers
// never binds, while 1e308 would overflow the cast and the clock arithmetic.
constexpr double kMaxIntegerField = 1e12;

// Error messages quote request text (a verb, a handle, a flag value), which
// may be a 1 MiB string. Past kMaxErrorBytes the message is cut, on a UTF-8
// boundary, so the envelope stays well inside what a parser with the
// request limits (docs/serve.md) reads back.
constexpr size_t kMaxErrorBytes = 64 << 10;

std::string ErrorResponse(const std::optional<std::string>& id, const std::string& code,
                          const std::string& message) {
  ResponseWriter writer = BeginResponse(id, /*ok=*/false);
  writer.AddString("code", code);
  if (message.size() <= kMaxErrorBytes) {
    writer.AddString("error", message);
  } else {
    size_t cut = kMaxErrorBytes;
    while (cut > 0 && (static_cast<unsigned char>(message[cut]) & 0xC0) == 0x80) {
      --cut;  // a UTF-8 continuation byte
    }
    writer.AddString("error", message.substr(0, cut) + "...");
  }
  return writer.Finish();
}

// Lowers a request's extra fields onto the CLI flag map so the serve
// protocol and the command line share one parsing path (tools/cli_args.h):
// `what_if` → --what-if, numbers keep their source token, `true` booleans
// become presence. Transport-level fields (id/verb/session/timeout_ms) are
// not flags. `false` and null fields set nothing and are left out of the
// map, but every field, theirs included, must be one the verb takes: the
// first unknown name is returned in *unknown_field (UnknownFlagError).
Args RequestToArgs(const JsonObject& request, const std::string& verb,
                   std::string* unknown_field) {
  Args args;
  args.command = verb;
  Args unset;  // false and null fields: nothing to set, but names to check
  unset.command = verb;
  for (const auto& [key, value] : request.fields()) {
    if (key == "id" || key == "verb" || key == "session" || key == "timeout_ms") {
      continue;
    }
    std::string name = key;
    for (char& c : name) {
      if (c == '_') {
        c = '-';
      }
    }
    switch (value.kind) {
      case JsonValue::Kind::kString:
        args.flags[name] = value.string;
        break;
      case JsonValue::Kind::kNumber:
        args.flags[name] = value.raw;
        break;
      case JsonValue::Kind::kBool:
        if (value.boolean) {
          args.flags.insert_or_assign(name, std::string("1"));
        } else {
          unset.flags[name];
        }
        break;
      case JsonValue::Kind::kNull:
        unset.flags[name];
        break;
    }
  }
  *unknown_field = UnknownFlagError(args, FlagStyle::kServe);
  if (unknown_field->empty()) {
    *unknown_field = UnknownFlagError(unset, FlagStyle::kServe);
  }
  return args;
}

std::string StatusCode(SessionStatus status) {
  switch (status) {
    case SessionStatus::kOk:
      return "ok";
    case SessionStatus::kUnknownWhatIf:
      return "unknown_what_if";
    case SessionStatus::kBadRequest:
      return "bad_request";
    case SessionStatus::kLintFailed:
      return "lint_failed";
    case SessionStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case SessionStatus::kUnavailable:
      return "unavailable";
  }
  return "internal";
}

// The per-request shard budget: with `workers` requests potentially running
// at once, each may fan out to at most hw/workers shard threads before the
// daemon oversubscribes the machine.
int SimJobsCap(int workers) {
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::max(1, hw / std::max(1, workers));
}

// Best-effort id extraction for the pre-execution rejection envelopes: the
// line may be arbitrary garbage, in which case the envelope goes out without
// an id (same as parse_error).
std::optional<std::string> IdOfLine(const std::string& line) {
  std::string ignored;
  const std::optional<JsonObject> request = ParseJsonObject(line, &ignored);
  if (!request.has_value()) {
    return std::nullopt;
  }
  return IdToken(*request);
}

}  // namespace

RequestExecutor::RequestExecutor(SessionOptions session_options, int workers,
                                 int default_sim_jobs, ServeLimits limits)
    : session_options_(session_options),
      workers_(std::max(1, workers)),
      sim_jobs_cap_(SimJobsCap(workers)),
      default_sim_jobs_(std::clamp(default_sim_jobs, 1, sim_jobs_cap_)),
      limits_(limits),
      sessions_(SessionManagerLimits{limits.max_sessions, limits.max_resident_bytes}) {}

std::string RequestExecutor::OverloadedResponse(const std::string& line) {
  counters_.shed.fetch_add(1, std::memory_order_relaxed);
  return ErrorResponse(IdOfLine(line), "overloaded",
                       "request queue is full; retry later or lower the request rate");
}

std::string RequestExecutor::ExpiredResponse(const std::string& line) {
  counters_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
  return ErrorResponse(IdOfLine(line), "deadline_exceeded",
                       "request deadline expired before execution started");
}

std::string RequestExecutor::FaultedResponse(const std::string& line, const std::string& site) {
  return ErrorResponse(IdOfLine(line), "unavailable", "injected fault at " + site);
}

std::string RequestExecutor::OversizedResponse() {
  counters_.oversized_lines.fetch_add(1, std::memory_order_relaxed);
  return ErrorResponse(std::nullopt, "bad_request",
                       StrFormat("request line exceeds max_line_bytes (%zu)",
                                 limits_.max_line_bytes));
}

RequestExecutor::Response RequestExecutor::Handle(const std::string& line,
                                                  const Deadline& transport_deadline) {
  Response response;

  std::string parse_error;
  const std::optional<JsonObject> request = ParseJsonObject(line, &parse_error);
  if (!request.has_value()) {
    response.line = ErrorResponse(std::nullopt, "parse_error", parse_error);
    return response;
  }
  const std::optional<std::string> id = IdToken(*request);

  // The effective budget: the transport deadline (admission-stamped when the
  // daemon runs with --request-timeout-ms) tightened by the request's own
  // timeout_ms, which counts from execution start — a queued request cannot
  // consult its body before a worker picks it up.
  Deadline deadline = transport_deadline;
  if (request->Has("timeout_ms")) {
    const double timeout_ms = request->GetNumber("timeout_ms", -1.0);
    if (timeout_ms < 1.0) {
      response.line =
          ErrorResponse(id, "bad_request", "bad timeout_ms (expected a positive integer)");
      return response;
    }
    const long long budget_ms = static_cast<long long>(std::min(timeout_ms, kMaxIntegerField));
    deadline = Deadline::Sooner(deadline, Deadline::AfterMs(budget_ms));
  }

  const std::string verb = request->GetString("verb");
  if (verb.empty()) {
    response.line = ErrorResponse(id, "bad_request", "request needs a \"verb\" string field");
    return response;
  }

  if (verb == "ping") {
    response.line = BeginResponse(id, /*ok=*/true).Finish();
    return response;
  }
  if (verb == "version") {
    ResponseWriter writer = BeginResponse(id, /*ok=*/true);
    writer.AddString("version", DaydreamVersionString());
    writer.AddInt("protocol", kServeProtocolVersion);
    writer.AddString("trace_schema", kTraceSchemaVersion);
    response.line = writer.Finish();
    return response;
  }
  if (verb == "shutdown") {
    ResponseWriter writer = BeginResponse(id, /*ok=*/true);
    writer.AddBool("shutting_down", true);
    response.line = writer.Finish();
    response.shutdown = true;
    return response;
  }
  if (verb == "sessions") {
    ResponseWriter writer = BeginResponse(id, /*ok=*/true);
    std::string list = "[";
    for (const std::string& handle : sessions_.Handles()) {
      if (list.size() > 1) {
        list += ", ";
      }
      list += StrFormat("\"%s\"", JsonEscape(handle).c_str());
    }
    list += "]";
    writer.AddRaw("sessions", list);
    response.line = writer.Finish();
    return response;
  }

  // Cooperative cancellation, first checkpoint: a request whose budget is
  // already gone must not start a heavy verb (the cheap verbs above always
  // answer — a ping should succeed even with an absurd timeout).
  const bool heavy = verb == "open" || verb == "predict" || verb == "sweep" || verb == "lint" ||
                     verb == "report";
  if (heavy && deadline.Expired()) {
    counters_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    response.line =
        ErrorResponse(id, "deadline_exceeded", "deadline expired before '" + verb + "' started");
    return response;
  }

  if (verb == "open") {
    if (FaultInjector::Global().ShouldFail("trace_load")) {
      response.line = ErrorResponse(id, "unavailable", "injected fault at trace_load");
      return response;
    }
    const std::string path = request->GetString("trace");
    if (path.empty()) {
      response.line = ErrorResponse(id, "bad_request", "open needs a \"trace\" path field");
      return response;
    }
    // Optional "format" field: ddtrace (default), cupti, or chrome — the
    // same importers `daydream import` uses (docs/trace.md).
    const std::string format_text = request->GetString("format", "ddtrace");
    const std::optional<TraceFormat> format = ParseTraceFormat(format_text);
    if (!format.has_value()) {
      response.line = ErrorResponse(
          id, "bad_request", "bad format '" + format_text + "' (expected ddtrace, cupti or chrome)");
      return response;
    }
    std::string read_error;
    std::optional<Trace> trace = ReadTraceFileAs(path, *format, &read_error);
    if (!trace.has_value()) {
      response.line =
          ErrorResponse(id, "bad_request", "cannot read trace from " + path + ": " + read_error);
      return response;
    }
    SessionOptions options = session_options_;
    if (request->Has("cache_capacity")) {
      const double capacity = request->GetNumber("cache_capacity", -1.0);
      if (capacity < 1.0) {
        response.line = ErrorResponse(id, "bad_request",
                                      "bad cache_capacity (expected a positive integer)");
        return response;
      }
      options.plan_cache_capacity = static_cast<size_t>(std::min(capacity, kMaxIntegerField));
    }
    std::string error;
    std::shared_ptr<TraceSession> session = TraceSession::Create(std::move(*trace), options, &error);
    if (session == nullptr) {
      response.line = ErrorResponse(id, "bad_request", error);
      return response;
    }
    ResponseWriter writer = BeginResponse(id, /*ok=*/true);
    writer.AddString("session", sessions_.Open(session));
    writer.AddString("model", session->trace().model_name());
    writer.AddString("config", session->trace().config());
    writer.AddInt("events", static_cast<long long>(session->trace().size()));
    writer.AddInt("tasks", session->daydream().graph().num_alive());
    writer.AddMs("baseline_ms", session->daydream().BaselineSimTime());
    response.line = writer.Finish();
    return response;
  }

  if (verb != "close" && verb != "session.close" && verb != "stats" && verb != "report" &&
      verb != "predict" && verb != "lint" && verb != "sweep") {
    response.line = ErrorResponse(
        id, "unknown_verb", "unknown verb '" + verb + "' (verbs: " + std::string(kVerbs) + ")");
    return response;
  }

  // Every remaining verb addresses an open session.
  const std::string handle = request->GetString("session");
  std::shared_ptr<TraceSession> session = sessions_.Get(handle);
  if (session == nullptr) {
    response.line = ErrorResponse(id, "unknown_session", "unknown session '" + handle + "'");
    return response;
  }

  if (verb == "close" || verb == "session.close") {
    sessions_.Close(handle);
    ResponseWriter writer = BeginResponse(id, /*ok=*/true);
    writer.AddBool("closed", true);
    response.line = writer.Finish();
    return response;
  }

  if (verb == "stats") {
    const PlanCacheStats stats = session->plan_cache_stats();
    ResponseWriter writer = BeginResponse(id, /*ok=*/true);
    writer.AddInt("plan_cache_size", static_cast<long long>(session->plan_cache_size()));
    writer.AddInt("plan_cache_hits", static_cast<long long>(stats.hits));
    writer.AddInt("plan_cache_misses", static_cast<long long>(stats.misses));
    writer.AddInt("plan_cache_evictions", static_cast<long long>(stats.evictions));
    writer.AddInt("plan_cache_retimes", static_cast<long long>(stats.retimes));
    writer.AddInt("plan_cache_compiles", static_cast<long long>(stats.compiles));
    // The daemon's effective thread budget, so clients can see how a
    // requested sim_jobs will be clamped before sending it.
    writer.AddInt("serve_workers", workers_);
    writer.AddInt("hardware_concurrency",
                  std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
    writer.AddInt("sim_jobs_cap", sim_jobs_cap_);
    // Admission control: the configured limits next to the counters that
    // show them firing (docs/serve.md, "Limits & fault tolerance").
    writer.AddInt("max_queue", limits_.max_queue);
    writer.AddInt("request_timeout_ms", limits_.request_timeout_ms);
    writer.AddInt("max_line_bytes", static_cast<long long>(limits_.max_line_bytes));
    writer.AddInt("max_connections", limits_.max_connections);
    writer.AddInt("max_sessions", static_cast<long long>(limits_.max_sessions));
    writer.AddInt("max_resident_bytes", static_cast<long long>(limits_.max_resident_bytes));
    writer.AddInt("shed", static_cast<long long>(counters_.shed.load(std::memory_order_relaxed)));
    writer.AddInt("deadline_exceeded",
                  static_cast<long long>(
                      counters_.deadline_exceeded.load(std::memory_order_relaxed)));
    writer.AddInt("oversized_lines",
                  static_cast<long long>(counters_.oversized_lines.load(std::memory_order_relaxed)));
    writer.AddInt("connections_refused",
                  static_cast<long long>(
                      counters_.connections_refused.load(std::memory_order_relaxed)));
    writer.AddInt("queue_high_water",
                  counters_.queue_high_water.load(std::memory_order_relaxed));
    writer.AddInt("active_connections",
                  counters_.active_connections.load(std::memory_order_relaxed));
    writer.AddInt("sessions_open", static_cast<long long>(sessions_.size()));
    writer.AddInt("sessions_evicted", static_cast<long long>(sessions_.evicted()));
    writer.AddInt("resident_bytes", static_cast<long long>(sessions_.resident_bytes()));
    // Fault-injection visibility: the armed spec (empty when unarmed) and how
    // many times any site fired — the chaos suite's liveness probe.
    writer.AddString("faults", FaultInjector::Global().SpecString());
    writer.AddInt("faults_fired",
                  static_cast<long long>(FaultInjector::Global().fired()));
    response.line = writer.Finish();
    return response;
  }

  if (verb == "report") {
    ResponseWriter writer = BeginResponse(id, /*ok=*/true);
    writer.AddString("report", session->ReportText());
    response.line = writer.Finish();
    return response;
  }

  std::string unknown_field;
  const Args args = RequestToArgs(*request, verb, &unknown_field);
  if (!unknown_field.empty()) {
    response.line = ErrorResponse(id, "bad_request", unknown_field);
    return response;
  }

  if (verb == "predict") {
    WhatIfRequest what_if;
    std::string error;
    if (!ParseWhatIfRequest(args, &what_if, &error, FlagStyle::kServe)) {
      response.line = ErrorResponse(id, "bad_request", error);
      return response;
    }
    if (what_if.what_if == "p3") {
      // P3 is not a graph transform — it reports its own metric (the
      // steady-state parameter-server iteration), so it bypasses the answer
      // cache and the session's transform machinery entirely.
      TimeNs predicted = 0;
      if (session->PredictP3(what_if, &predicted, &error) != SessionStatus::kOk) {
        response.line = ErrorResponse(id, "bad_request", error);
        return response;
      }
      ResponseWriter writer = BeginResponse(id, /*ok=*/true);
      writer.AddString("what_if", "p3");
      writer.AddMs("p3_iteration_ms", predicted);
      response.line = writer.Finish();
      return response;
    }
    // Thread-budget clamp: a request's sim_jobs (or the daemon default) may
    // not push workers × shards past the machine. Consumption-only — the
    // response carries no sim_jobs echo, so answers stay byte-identical
    // across shard counts.
    if (!args.Has("sim-jobs")) {
      what_if.sim_jobs = default_sim_jobs_;
    }
    what_if.sim_jobs = std::clamp(what_if.sim_jobs, 1, sim_jobs_cap_);
    PredictOutcome outcome;
    const SessionStatus status = session->Predict(what_if, &outcome, &error, deadline);
    if (status != SessionStatus::kOk) {
      if (status == SessionStatus::kDeadlineExceeded) {
        counters_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      }
      response.line = ErrorResponse(id, StatusCode(status), error);
      return response;
    }
    ResponseWriter writer = BeginResponse(id, /*ok=*/true);
    writer.AddString("what_if", what_if.what_if);
    writer.AddMs("baseline_ms", outcome.prediction.baseline);
    writer.AddMs("predicted_ms", outcome.prediction.predicted);
    writer.AddDouble("speedup_pct", "%.2f", outcome.prediction.SpeedupPct());
    writer.AddDouble("speedup_ratio", "%.3f", outcome.prediction.SpeedupRatio());
    writer.AddInt("tasks", outcome.tasks);
    writer.AddBool("cache_hit", outcome.cache_hit);
    response.line = writer.Finish();
    return response;
  }

  if (verb == "lint") {
    std::string error;
    WhatIfRequest what_if;
    const bool has_what_if = !args.Get("what-if").empty();
    if (has_what_if && !ParseWhatIfRequest(args, &what_if, &error, FlagStyle::kServe)) {
      response.line = ErrorResponse(id, "bad_request", error);
      return response;
    }
    LintReport report;
    bool plan_passes_run = false;
    const SessionStatus status =
        session->Lint(has_what_if ? &what_if : nullptr, &report, &plan_passes_run, &error);
    if (status == SessionStatus::kUnknownWhatIf) {
      response.line = ErrorResponse(id, "bad_request",
                                    "cannot lint what-if '" + what_if.what_if +
                                        "' (not a graph transform; see `predict`)");
      return response;
    }
    if (status != SessionStatus::kOk) {
      response.line = ErrorResponse(id, StatusCode(status), error);
      return response;
    }
    const bool strict = args.Has("strict");
    ResponseWriter writer = BeginResponse(id, /*ok=*/true);
    writer.AddInt("errors", report.errors());
    writer.AddInt("warnings", report.warnings());
    writer.AddBool("clean", report.errors() == 0 && (!strict || report.warnings() == 0));
    writer.AddBool("plan_passes_run", plan_passes_run);
    writer.AddString("report", report.ToString());
    response.line = writer.Finish();
    return response;
  }

  if (verb == "sweep") {
    std::string error;
    SweepRequest sweep;
    if (!ParseSweepRequest(args, session->trace(), default_sim_jobs_, FlagStyle::kServe, &sweep,
                           &error)) {
      response.line = ErrorResponse(id, "bad_request", error);
      return response;
    }
    // The same thread-budget clamp as predict's, over both of a sweep's
    // thread counts: case workers and shards per case.
    ClampSweepThreads(sim_jobs_cap_, &sweep.options);
    sweep.options.deadline = deadline;
    bool sweep_expired = false;
    std::vector<SweepOutcome> outcomes =
        session->Sweep(sweep.cases, sweep.options, &sweep_expired);
    if (sweep_expired) {
      counters_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      response.line = ErrorResponse(id, "deadline_exceeded",
                                    "deadline expired inside the sweep matrix");
      return response;
    }
    RankBySpeedup(&outcomes);
    ResponseWriter writer = BeginResponse(id, /*ok=*/true);
    writer.AddMs("baseline_ms", session->daydream().BaselineSimTime());
    std::string list = "[";
    for (const SweepOutcome& outcome : outcomes) {
      if (list.size() > 1) {
        list += ", ";
      }
      list += SweepCaseJson(outcome);
    }
    list += "]";
    writer.AddRaw("cases", list);
    response.line = writer.Finish();
    return response;
  }

  // Unreachable: the verb whitelist above is exhaustive.
  response.line = ErrorResponse(id, "internal", "verb dispatch fell through");
  return response;
}

}  // namespace daydream
