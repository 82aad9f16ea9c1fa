// Command-line argument parsing for the daydream CLI, split out of the main
// binary so unit tests can link against it.
//
// Every Parse* helper comes in two flavours: the core overload reports
// malformed input through a std::string* (the serve protocol wraps it in a
// per-request error envelope), and the historical overload prints the same
// diagnostic to stderr for the CLI.
#ifndef TOOLS_CLI_ARGS_H_
#define TOOLS_CLI_ARGS_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/comm/network_spec.h"
#include "src/core/simulator.h"
#include "src/parallel/pipeline.h"
#include "src/service/session.h"

namespace daydream {

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
  // Non-empty when the command line was malformed (e.g. a trailing flag with
  // no value). Callers must check before trusting `flags`.
  std::string error;

  bool ok() const { return error.empty(); }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }

  bool Has(const std::string& key) const { return flags.count(key) != 0; }
};

// Parses `<command> [--flag value]...`. A flag with no following value, or a
// positional token where a flag was expected, sets `error` instead of being
// silently dropped or misparsed. Boolean flags take no value; their presence
// is the signal (query with Args::Has). Which flags are boolean depends on
// the command: --validate/--strict always are, and --json is only for
// `version` (everywhere else --json FILE names an output file).
Args ParseArgs(int argc, const char* const* argv);

// The CLI verbs, in usage order. UnknownCommandMessage names the attempted
// verb and lists these (the `daydream frobnicate` diagnostic).
const std::vector<std::string>& KnownCommands();
std::string UnknownCommandMessage(const std::string& command);

// Strict decimal parsing: the whole string must be a plain decimal number.
// Returns nullopt (never throws) on garbage like "4xa", "fast", " 42",
// "inf", "0x10", or "".
std::optional<int> ParseInt(const std::string& text);
std::optional<double> ParseDouble(const std::string& text);

// Documented maxima of the size flags (shared by the CLI and serve
// requests). A value past one is malformed input: exit 2 on the CLI, a
// `bad_request` envelope in serve. They keep every derived product — total
// GPUs, stages x micro-batches — far from integer overflow.
constexpr int kMaxClusterMachines = 1024;    // --cluster M
constexpr int kMaxGpusPerMachine = 64;       // --cluster G
constexpr int kMaxPipelineStages = 1024;     // --pipeline-stages
constexpr int kMaxMicrobatches = 1024;       // --microbatches

// Builds a ClusterConfig from --cluster MxG and --gbps BW. Fills *error
// (core) or prints a diagnostic to stderr and returns nullopt on malformed
// input, including a shape past kMaxClusterMachines x kMaxGpusPerMachine.
std::optional<ClusterConfig> ParseCluster(const Args& args, std::string* error);
std::optional<ClusterConfig> ParseCluster(const Args& args);

// Parses --engine {event,reference} for `daydream predict`/`sweep` (default
// "event", the compiled-plan engine; "reference" forces the Algorithm-1 scan
// for differential debugging without a rebuild).
std::optional<EngineKind> ParseEngineKind(const Args& args, std::string* error);
std::optional<EngineKind> ParseEngineKind(const Args& args);

// Builds the cluster matrix for `daydream sweep`: the cross product of
// --cluster (comma-separated MxG shapes, default "2x1,2x2,4x1,4x2") and
// --gbps (comma-separated bandwidths, default "10").
std::optional<std::vector<ClusterConfig>> ParseClusterList(const Args& args, std::string* error);
std::optional<std::vector<ClusterConfig>> ParseClusterList(const Args& args);

// Pipeline-parallel what-if flags:
//   --pipeline-stages N[,N...]   stage counts to evaluate (1..kMaxPipelineStages)
//   --microbatches M             micro-batches per iteration (default 4;
//                                1..kMaxMicrobatches)
//   --schedule gpipe|1f1b|both   schedule kind(s) (default both)
// The first --gbps value (shared with the cluster flags; default 10) prices
// the inter-stage P2P links, so pipeline and distributed cases rank under
// the same network assumption. `enabled` is false when --pipeline-stages is
// absent; --microbatches / --schedule without it are an error (diagnostic +
// nullopt), as is any malformed value.
struct PipelineFlags {
  bool enabled = false;
  std::vector<int> stages;
  int microbatches = 4;
  std::vector<PipelineScheduleKind> schedules;  // empty = both kinds
  NetworkSpec network;
};
std::optional<PipelineFlags> ParsePipelineFlags(const Args& args, std::string* error);
std::optional<PipelineFlags> ParsePipelineFlags(const Args& args);

// Builds the session-layer WhatIfRequest from predict-style flags: --what-if
// plus --engine/--validate/--sim-jobs always, --cluster/--gbps for
// distributed and p3, and the pipeline flags (with predict's
// single-stage/single-schedule constraints) for pipeline. Unknown what-if
// names parse fine — resolution is the session's job
// (TraceSession::ResolveTransform). Returns false with *error set on
// malformed flags.
bool ParseWhatIfRequest(const Args& args, WhatIfRequest* request, std::string* error);

}  // namespace daydream

#endif  // TOOLS_CLI_ARGS_H_
