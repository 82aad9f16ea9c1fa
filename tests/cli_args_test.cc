#include "tools/cli_args.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/runtime/ground_truth.h"

namespace daydream {
namespace {

// Sink for the parsers' diagnostics where a test reads only the result.
std::string ignored_error;

Args ParseVec(const std::vector<const char*>& argv) {
  return ParseArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(ParseArgs, CommandAndFlags) {
  const Args args = ParseVec({"daydream", "predict", "--trace", "p.ddtrace", "--what-if", "amp"});
  EXPECT_TRUE(args.ok());
  EXPECT_EQ(args.command, "predict");
  EXPECT_EQ(args.Get("trace"), "p.ddtrace");
  EXPECT_EQ(args.Get("what-if"), "amp");
  EXPECT_EQ(args.Get("missing", "fallback"), "fallback");
}

TEST(ParseArgs, NoArguments) {
  const Args args = ParseVec({"daydream"});
  EXPECT_TRUE(args.ok());
  EXPECT_TRUE(args.command.empty());
  EXPECT_TRUE(args.flags.empty());
}

TEST(ParseArgs, TrailingFlagWithoutValueIsAnError) {
  const Args args = ParseVec({"daydream", "report", "--trace"});
  EXPECT_FALSE(args.ok());
  EXPECT_EQ(args.error, "flag --trace requires a value");
}

TEST(ParseArgs, PositionalTokenIsAnError) {
  // A forgotten flag name must not shift the whole command line by one.
  const Args args = ParseVec({"daydream", "predict", "p.ddtrace", "--what-if", "amp"});
  EXPECT_FALSE(args.ok());
  EXPECT_EQ(args.error, "unexpected argument 'p.ddtrace' (flags look like --name value)");
}

TEST(ParseInt, AcceptsIntegers) {
  EXPECT_EQ(ParseInt("0"), 0);
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-7"), -7);
}

TEST(ParseInt, RejectsGarbage) {
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("4xa").has_value());
  EXPECT_FALSE(ParseInt("fast").has_value());
  EXPECT_FALSE(ParseInt("1.5").has_value());
  EXPECT_FALSE(ParseInt("99999999999999999999").has_value());
  EXPECT_FALSE(ParseInt(" 42").has_value());
  EXPECT_FALSE(ParseInt("0x10").has_value());
}

TEST(ParseDouble, AcceptsNumbers) {
  EXPECT_EQ(ParseDouble("10"), 10.0);
  EXPECT_EQ(ParseDouble("2.5"), 2.5);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("fast").has_value());
  EXPECT_FALSE(ParseDouble("10Gbps").has_value());
  EXPECT_FALSE(ParseDouble(" 42").has_value());
  EXPECT_FALSE(ParseDouble("inf").has_value());
  EXPECT_FALSE(ParseDouble("nan").has_value());
  EXPECT_FALSE(ParseDouble("0x10").has_value());
  EXPECT_FALSE(ParseDouble("1e999").has_value());
}

TEST(ParseCluster, ParsesShapeAndBandwidth) {
  Args args;
  args.flags["cluster"] = "4x2";
  args.flags["gbps"] = "25";
  const std::optional<ClusterConfig> cluster = ParseCluster(args, &ignored_error);
  ASSERT_TRUE(cluster.has_value());
  EXPECT_EQ(cluster->machines, 4);
  EXPECT_EQ(cluster->gpus_per_machine, 2);
  EXPECT_DOUBLE_EQ(cluster->network.bandwidth_gbps, 25.0);
}

TEST(ParseCluster, DefaultsWhenFlagsAbsent) {
  const std::optional<ClusterConfig> cluster = ParseCluster(Args{}, &ignored_error);
  ASSERT_TRUE(cluster.has_value());
  EXPECT_EQ(cluster->machines, 4);
  EXPECT_EQ(cluster->gpus_per_machine, 1);
  EXPECT_DOUBLE_EQ(cluster->network.bandwidth_gbps, 10.0);
}

TEST(ParseCluster, RejectsMalformedShape) {
  for (const char* bad : {"4xa", "ax2", "4", "4x2x1", "0x2", "4x0", "-1x2", ""}) {
    Args args;
    args.flags["cluster"] = bad;
    EXPECT_FALSE(ParseCluster(args, &ignored_error).has_value()) << "--cluster " << bad;
  }
}

TEST(ParseCluster, EnforcesTheDocumentedMaxima) {
  Args largest;
  largest.flags["cluster"] =
      std::to_string(kMaxClusterMachines) + "x" + std::to_string(kMaxGpusPerMachine);
  const std::optional<ClusterConfig> cluster = ParseCluster(largest, &ignored_error);
  ASSERT_TRUE(cluster.has_value());
  EXPECT_EQ(cluster->total_gpus(), int64_t{kMaxClusterMachines} * kMaxGpusPerMachine);
  for (const std::string bad :
       {std::to_string(kMaxClusterMachines + 1) + "x1", "1x" + std::to_string(kMaxGpusPerMachine + 1),
        std::string("100000x100000")}) {
    Args args;
    args.flags["cluster"] = bad;
    std::string error;
    EXPECT_FALSE(ParseCluster(args, &error).has_value()) << "--cluster " << bad;
    EXPECT_NE(error.find("M <= 1024"), std::string::npos) << error;
    args.flags["cluster"] = "2x2," + bad;
    EXPECT_FALSE(ParseClusterList(args, &error).has_value()) << "--cluster 2x2," << bad;
  }
}

TEST(ParseCluster, RejectsMalformedBandwidth) {
  for (const char* bad : {"fast", "0", "-5", "10Gbps"}) {
    Args args;
    args.flags["cluster"] = "4x2";
    args.flags["gbps"] = bad;
    EXPECT_FALSE(ParseCluster(args, &ignored_error).has_value()) << "--gbps " << bad;
  }
}

TEST(ParseClusterList, DefaultsToFourShapesAtTenGbps) {
  const std::optional<std::vector<ClusterConfig>> clusters = ParseClusterList(Args{}, &ignored_error);
  ASSERT_TRUE(clusters.has_value());
  ASSERT_EQ(clusters->size(), 4u);
  EXPECT_EQ((*clusters)[0].machines, 2);
  EXPECT_EQ((*clusters)[0].gpus_per_machine, 1);
  EXPECT_EQ((*clusters)[3].machines, 4);
  EXPECT_EQ((*clusters)[3].gpus_per_machine, 2);
  for (const ClusterConfig& c : *clusters) {
    EXPECT_DOUBLE_EQ(c.network.bandwidth_gbps, 10.0);
  }
}

TEST(ParseClusterList, CrossProductOfShapesAndBandwidths) {
  Args args;
  args.flags["cluster"] = "2x2,4x4";
  args.flags["gbps"] = "10,25,40";
  const std::optional<std::vector<ClusterConfig>> clusters = ParseClusterList(args, &ignored_error);
  ASSERT_TRUE(clusters.has_value());
  ASSERT_EQ(clusters->size(), 6u);
  EXPECT_EQ((*clusters)[0].machines, 2);
  EXPECT_DOUBLE_EQ((*clusters)[0].network.bandwidth_gbps, 10.0);
  EXPECT_DOUBLE_EQ((*clusters)[2].network.bandwidth_gbps, 40.0);
  EXPECT_EQ((*clusters)[3].machines, 4);
  EXPECT_EQ((*clusters)[3].gpus_per_machine, 4);
}

TEST(UnknownFlag, NamesTheFirstFlagAVerbDoesNotTake) {
  // `--clutser 8x8` used to answer the default cluster's question.
  Args args;
  args.command = "predict";
  args.flags["what-if"] = "distributed";
  args.flags["clutser"] = "8x8";
  EXPECT_EQ(UnknownFlagError(args, FlagStyle::kCli), "unknown flag '--clutser' for predict");
  EXPECT_EQ(UnknownFlagError(args, FlagStyle::kServe), "unknown field 'clutser' for predict");
  args.flags.erase("clutser");
  args.flags["cluster"] = "8x8";
  EXPECT_EQ(UnknownFlagError(args, FlagStyle::kCli), "");
}

TEST(UnknownFlag, EngineIsRejectedByEveryWhatIfVerb) {
  // The simulation engine is no longer a request parameter: the
  // differential oracle (RunReference) lives in the tests.
  for (const char* command : {"predict", "lint", "sweep"}) {
    Args args;
    args.command = command;
    args.flags["trace"] = "p.ddtrace";
    args.flags["engine"] = "reference";
    EXPECT_EQ(UnknownFlagError(args, FlagStyle::kCli),
              std::string("unknown flag '--engine' for ") + command);
  }
}

TEST(UnknownFlag, WhatIfVerbsNeedNoEngineFlag) {
  // A request that names no engine runs the one event-driven simulator.
  for (const char* command : {"predict", "lint", "sweep"}) {
    Args args;
    args.command = command;
    args.flags["trace"] = "p.ddtrace";
    EXPECT_EQ(UnknownFlagError(args, FlagStyle::kCli), "") << command;
  }
}

TEST(UnknownFlag, EveryEngineValueIsRejected) {
  // No value of --engine selects anything, so every one, the two old
  // engine names included, is refused the same way.
  for (const char* value : {"event", "reference", "Event", "ref", "plan", "", " event"}) {
    Args args;
    args.command = "predict";
    args.flags["engine"] = value;
    EXPECT_EQ(UnknownFlagError(args, FlagStyle::kCli), "unknown flag '--engine' for predict")
        << "--engine '" << value << "'";
    EXPECT_EQ(UnknownFlagError(args, FlagStyle::kServe), "unknown field 'engine' for predict")
        << "engine '" << value << "'";
  }
}

TEST(UnknownFlag, EachVerbTakesItsOwnFlags) {
  Args sweep;
  sweep.command = "sweep";
  for (const char* flag : {"trace", "format", "csv", "json", "cluster", "gbps", "jobs",
                           "sim-jobs", "pipeline-stages", "microbatches", "schedule",
                           "validate"}) {
    sweep.flags[flag] = "1";
  }
  EXPECT_EQ(UnknownFlagError(sweep, FlagStyle::kCli), "");
  sweep.flags["what-if"] = "amp";
  EXPECT_EQ(UnknownFlagError(sweep, FlagStyle::kCli), "unknown flag '--what-if' for sweep");

  Args lint;
  lint.command = "lint";
  lint.flags["strict"] = "1";
  lint.flags["what-if"] = "distributed";
  lint.flags["cluster"] = "2x2";
  EXPECT_EQ(UnknownFlagError(lint, FlagStyle::kCli), "");
  lint.command = "predict";
  EXPECT_EQ(UnknownFlagError(lint, FlagStyle::kCli), "unknown flag '--strict' for predict");
  lint.flags.erase("strict");
  lint.flags["jobs"] = "2";
  EXPECT_EQ(UnknownFlagError(lint, FlagStyle::kServe), "unknown field 'jobs' for predict");

  // lint reads no dispatch flags, and a serve request names no trace or
  // output file.
  lint.command = "lint";
  lint.flags.erase("jobs");
  lint.flags["validate"] = "1";
  EXPECT_EQ(UnknownFlagError(lint, FlagStyle::kCli), "unknown flag '--validate' for lint");
  Args served;
  served.command = "predict";
  served.flags["trace"] = "p.ddtrace";
  EXPECT_EQ(UnknownFlagError(served, FlagStyle::kCli), "");
  EXPECT_EQ(UnknownFlagError(served, FlagStyle::kServe), "unknown field 'trace' for predict");

  // Verbs outside the three keep their own flag handling.
  Args collect;
  collect.command = "collect";
  collect.flags["engine"] = "reference";
  EXPECT_EQ(UnknownFlagError(collect, FlagStyle::kCli), "");
}

TEST(ParseClusterList, RejectsAnyBadEntry) {
  for (const char* bad : {"2x2,4xa", "2x2,", ",2x2", "0x1"}) {
    Args args;
    args.flags["cluster"] = bad;
    EXPECT_FALSE(ParseClusterList(args, &ignored_error).has_value()) << "--cluster " << bad;
  }
  Args args;
  args.flags["cluster"] = "2x2";
  args.flags["gbps"] = "10,zoom";
  EXPECT_FALSE(ParseClusterList(args, &ignored_error).has_value());
}

TEST(ParsePipelineFlags, DisabledWhenStagesAbsent) {
  const std::optional<PipelineFlags> flags = ParsePipelineFlags(Args{}, &ignored_error);
  ASSERT_TRUE(flags.has_value());
  EXPECT_FALSE(flags->enabled);
}

TEST(ParsePipelineFlags, ParsesStagesMicrobatchesAndSchedule) {
  Args args;
  args.flags["pipeline-stages"] = "2,4,8";
  args.flags["microbatches"] = "16";
  args.flags["schedule"] = "gpipe";
  const std::optional<PipelineFlags> flags = ParsePipelineFlags(args, &ignored_error);
  ASSERT_TRUE(flags.has_value());
  EXPECT_TRUE(flags->enabled);
  EXPECT_EQ(flags->stages, (std::vector<int>{2, 4, 8}));
  EXPECT_EQ(flags->microbatches, 16);
  ASSERT_EQ(flags->schedules.size(), 1u);
  EXPECT_EQ(flags->schedules.front(), PipelineScheduleKind::kGPipe);
}

TEST(ParsePipelineFlags, DefaultsToFourMicrobatchesAndBothSchedules) {
  Args args;
  args.flags["pipeline-stages"] = "2";
  const std::optional<PipelineFlags> flags = ParsePipelineFlags(args, &ignored_error);
  ASSERT_TRUE(flags.has_value());
  EXPECT_EQ(flags->microbatches, 4);
  EXPECT_TRUE(flags->schedules.empty());  // empty = both kinds
}

TEST(ParsePipelineFlags, RejectsMalformedValues) {
  for (const char* bad : {"0", "-2", "2,", "2,x", "fast"}) {
    Args args;
    args.flags["pipeline-stages"] = bad;
    EXPECT_FALSE(ParsePipelineFlags(args, &ignored_error).has_value()) << "--pipeline-stages " << bad;
  }
  Args bad_mb;
  bad_mb.flags["pipeline-stages"] = "2";
  bad_mb.flags["microbatches"] = "0";
  EXPECT_FALSE(ParsePipelineFlags(bad_mb, &ignored_error).has_value());
  Args bad_schedule;
  bad_schedule.flags["pipeline-stages"] = "2";
  bad_schedule.flags["schedule"] = "warp";
  EXPECT_FALSE(ParsePipelineFlags(bad_schedule, &ignored_error).has_value());
}

TEST(ParsePipelineFlags, EnforcesTheDocumentedMaxima) {
  Args largest;
  largest.flags["pipeline-stages"] = std::to_string(kMaxPipelineStages);
  largest.flags["microbatches"] = std::to_string(kMaxMicrobatches);
  EXPECT_TRUE(ParsePipelineFlags(largest, &ignored_error).has_value());
  Args stages;
  stages.flags["pipeline-stages"] = "2," + std::to_string(kMaxPipelineStages + 1);
  EXPECT_FALSE(ParsePipelineFlags(stages, &ignored_error).has_value());
  Args microbatches;
  microbatches.flags["pipeline-stages"] = "2";
  microbatches.flags["microbatches"] = "5000000";
  std::string error;
  EXPECT_FALSE(ParsePipelineFlags(microbatches, &error).has_value());
  EXPECT_NE(error.find("1..1024"), std::string::npos) << error;
}

TEST(ParsePipelineFlags, ScheduleWithoutStagesIsAnError) {
  Args args;
  args.flags["schedule"] = "1f1b";
  EXPECT_FALSE(ParsePipelineFlags(args, &ignored_error).has_value());
  Args mb;
  mb.flags["microbatches"] = "4";
  EXPECT_FALSE(ParsePipelineFlags(mb, &ignored_error).has_value());
}


TEST(KnownCommands, MatchUsageOrder) {
  const std::vector<std::string> expected = {"models", "collect", "import", "report", "predict",
                                             "lint",   "sweep",   "serve",  "version"};
  EXPECT_EQ(KnownCommands(), expected);
}

TEST(UnknownCommandMessage, NamesTheAttemptAndTheCatalog) {
  const std::string message = UnknownCommandMessage("frobnicate");
  EXPECT_NE(message.find("unknown command 'frobnicate'"), std::string::npos);
  for (const std::string& command : KnownCommands()) {
    EXPECT_NE(message.find(command), std::string::npos) << command;
  }
}

TEST(ParseArgs, BooleanFlagsTakeNoValue) {
  // --json is boolean only for `version`; for every other command it names
  // an output file and must consume a value.
  const Args version = ParseVec({"daydream", "version", "--json"});
  EXPECT_TRUE(version.ok());
  EXPECT_TRUE(version.Has("json"));
  const Args predict = ParseVec({"daydream", "predict", "--json"});
  EXPECT_FALSE(predict.ok());
  EXPECT_EQ(predict.error, "flag --json requires a value");
  const Args lint = ParseVec({"daydream", "lint", "--strict", "--trace", "p.ddtrace"});
  EXPECT_TRUE(lint.ok());
  EXPECT_TRUE(lint.Has("strict"));
  EXPECT_EQ(lint.Get("trace"), "p.ddtrace");
}

TEST(ParseWhatIfRequest, BuildsTheSessionRequest) {
  Args args;
  args.command = "predict";
  args.flags["what-if"] = "distributed";
  args.flags["cluster"] = "2x4";
  args.flags["gbps"] = "25";
  args.flags["validate"] = "1";
  WhatIfRequest request;
  std::string error;
  ASSERT_TRUE(ParseWhatIfRequest(args, &request, &error)) << error;
  EXPECT_EQ(request.what_if, "distributed");
  EXPECT_EQ(request.cluster.machines, 2);
  EXPECT_EQ(request.cluster.gpus_per_machine, 4);
  EXPECT_DOUBLE_EQ(request.cluster.network.bandwidth_gbps, 25.0);
  EXPECT_TRUE(request.validate);
}

TEST(ParseWhatIfRequest, SimJobsDefaultsToSerialAndRejectsGarbage) {
  Args args;
  args.command = "predict";
  args.flags["what-if"] = "amp";
  WhatIfRequest request;
  std::string error;
  ASSERT_TRUE(ParseWhatIfRequest(args, &request, &error)) << error;
  EXPECT_EQ(request.sim_jobs, 1);

  args.flags["sim-jobs"] = "4";
  ASSERT_TRUE(ParseWhatIfRequest(args, &request, &error)) << error;
  EXPECT_EQ(request.sim_jobs, 4);

  for (const char* bad : {"0", "-2", "fast"}) {
    args.flags["sim-jobs"] = bad;
    EXPECT_FALSE(ParseWhatIfRequest(args, &request, &error)) << bad;
    EXPECT_NE(error.find("--sim-jobs"), std::string::npos);
  }
}

TEST(ParseWhatIfRequest, UnknownNamesParseResolutionIsTheSessionsJob) {
  Args args;
  args.command = "predict";
  args.flags["what-if"] = "overclock";
  WhatIfRequest request;
  std::string error;
  EXPECT_TRUE(ParseWhatIfRequest(args, &request, &error)) << error;
  EXPECT_EQ(request.what_if, "overclock");
}

TEST(ParseWhatIfRequest, PipelineNeedsASingleStageAndSchedule) {
  Args args;
  args.command = "predict";
  args.flags["what-if"] = "pipeline";
  WhatIfRequest request;
  std::string error;
  EXPECT_FALSE(ParseWhatIfRequest(args, &request, &error));
  EXPECT_NE(error.find("--pipeline-stages"), std::string::npos);

  args.flags["pipeline-stages"] = "2,4";  // a sweep list, not a single value
  EXPECT_FALSE(ParseWhatIfRequest(args, &request, &error));
  EXPECT_NE(error.find("single"), std::string::npos);

  args.flags["pipeline-stages"] = "4";
  args.flags["microbatches"] = "8";
  args.flags["schedule"] = "1f1b";
  ASSERT_TRUE(ParseWhatIfRequest(args, &request, &error)) << error;
  EXPECT_EQ(request.what_if, "pipeline");
  EXPECT_EQ(request.pipeline.num_stages, 4);
  EXPECT_EQ(request.pipeline.num_microbatches, 8);
  EXPECT_EQ(request.pipeline.schedule, PipelineScheduleKind::k1F1B);
}

TEST(ParseWhatIfRequest, RejectsMalformedClusterFlags) {
  Args args;
  args.command = "predict";
  args.flags["what-if"] = "distributed";
  args.flags["cluster"] = "banana";
  WhatIfRequest request;
  std::string error;
  EXPECT_FALSE(ParseWhatIfRequest(args, &request, &error));
  EXPECT_FALSE(error.empty());
}

const Trace& TinyTrace() {
  static const Trace* trace = new Trace(CollectBaselineTrace(DefaultRunConfig(ModelId::kTinyMlp)));
  return *trace;
}

TEST(ParseSweepRequest, BuildsTheMatrixAndTheRunnerOptions) {
  Args args;
  args.command = "sweep";
  args.flags["cluster"] = "2x2";
  args.flags["gbps"] = "10,25";
  args.flags["pipeline-stages"] = "2";
  args.flags["jobs"] = "3";
  args.flags["validate"] = "1";
  SweepRequest request;
  std::string error;
  ASSERT_TRUE(
      ParseSweepRequest(args, TinyTrace(), /*default_sim_jobs=*/5, FlagStyle::kCli, &request,
                        &error))
      << error;
  // amp + fused_adam + 4 layer what-ifs + 2 distributed + 2 pipeline schedules.
  EXPECT_EQ(request.cases.size(), 10u);
  EXPECT_EQ(request.cases.back().name, "pipeline 2st/4mb gpipe");
  EXPECT_EQ(request.options.num_threads, 3);
  EXPECT_EQ(request.options.sim_jobs, 5);  // the caller's default
  EXPECT_TRUE(request.options.validate);
  args.flags["sim-jobs"] = "2";
  ASSERT_TRUE(ParseSweepRequest(args, TinyTrace(), 5, FlagStyle::kCli, &request, &error));
  EXPECT_EQ(request.options.sim_jobs, 2);
}

TEST(ParseSweepRequest, SpellsDiagnosticsForTheCliAndForServe) {
  const auto error_for = [](const Args& args, const Trace& trace, FlagStyle style) {
    SweepRequest request;
    std::string error;
    EXPECT_FALSE(ParseSweepRequest(args, trace, 1, style, &request, &error));
    return error;
  };
  Args jobs;
  jobs.flags["jobs"] = "-1";
  EXPECT_EQ(error_for(jobs, TinyTrace(), FlagStyle::kCli),
            "bad --jobs '-1' (expected a non-negative integer)");
  EXPECT_EQ(error_for(jobs, TinyTrace(), FlagStyle::kServe),
            "bad jobs '-1' (expected a non-negative integer)");
  Args sim_jobs;
  sim_jobs.flags["sim-jobs"] = "0";
  EXPECT_EQ(error_for(sim_jobs, TinyTrace(), FlagStyle::kCli),
            "bad --sim-jobs '0' (expected a positive integer)");
  EXPECT_EQ(error_for(sim_jobs, TinyTrace(), FlagStyle::kServe),
            "bad sim_jobs '0' (expected a positive integer)");
  Trace unknown_model = TinyTrace();
  unknown_model.set_model_name("mystery-net");
  Args pipeline;
  pipeline.flags["pipeline-stages"] = "2";
  EXPECT_EQ(error_for(pipeline, unknown_model, FlagStyle::kCli),
            "trace lacks a known model name (needed for --pipeline-stages)");
  EXPECT_EQ(error_for(pipeline, unknown_model, FlagStyle::kServe),
            "trace lacks a known model name (needed for pipeline_stages)");
  Args cluster;
  cluster.flags["cluster"] = "4xa";
  EXPECT_NE(error_for(cluster, TinyTrace(), FlagStyle::kServe).find("bad --cluster '4xa'"),
            std::string::npos);
}

// Every thread count has one maximum, checked before anything sizes a pool.
// Parse-only: none of these tests starts a thread.
TEST(ThreadCounts, SweepRefusesPastTheMaximumInBothWordings) {
  const std::string too_many = std::to_string(kMaxJobs + 1);
  const std::string at_most = " (expected at most " + std::to_string(kMaxJobs) + ")";
  const auto error_for = [](const Args& args, FlagStyle style) {
    SweepRequest request;
    std::string error;
    EXPECT_FALSE(ParseSweepRequest(args, TinyTrace(), 1, style, &request, &error));
    return error;
  };
  Args jobs;
  jobs.flags["jobs"] = too_many;
  EXPECT_EQ(error_for(jobs, FlagStyle::kCli), "bad --jobs '" + too_many + "'" + at_most);
  EXPECT_EQ(error_for(jobs, FlagStyle::kServe), "bad jobs '" + too_many + "'" + at_most);
  Args sim_jobs;
  sim_jobs.flags["sim-jobs"] = too_many;
  EXPECT_EQ(error_for(sim_jobs, FlagStyle::kCli), "bad --sim-jobs '" + too_many + "'" + at_most);
  EXPECT_EQ(error_for(sim_jobs, FlagStyle::kServe), "bad sim_jobs '" + too_many + "'" + at_most);

  // The maximum itself is accepted.
  Args at_max;
  at_max.flags["jobs"] = std::to_string(kMaxJobs);
  at_max.flags["sim-jobs"] = std::to_string(kMaxJobs);
  SweepRequest request;
  std::string error;
  ASSERT_TRUE(ParseSweepRequest(at_max, TinyTrace(), 1, FlagStyle::kServe, &request, &error))
      << error;
  EXPECT_EQ(request.options.num_threads, kMaxJobs);
  EXPECT_EQ(request.options.sim_jobs, kMaxJobs);
}

TEST(ThreadCounts, PredictSimJobsRefusesPastTheMaximum) {
  Args args;
  args.command = "predict";
  args.flags["what-if"] = "amp";
  args.flags["sim-jobs"] = std::to_string(kMaxJobs + 1);
  WhatIfRequest request;
  std::string error;
  EXPECT_FALSE(ParseWhatIfRequest(args, &request, &error));
  EXPECT_EQ(error, "bad --sim-jobs '" + std::to_string(kMaxJobs + 1) + "' (expected at most " +
                       std::to_string(kMaxJobs) + ")");
  args.flags["sim-jobs"] = std::to_string(kMaxJobs);
  ASSERT_TRUE(ParseWhatIfRequest(args, &request, &error)) << error;
  EXPECT_EQ(request.sim_jobs, kMaxJobs);
}

TEST(ThreadCounts, ServeJobsFlagsRefusePastTheMaximum) {
  // `daydream serve --jobs N --sim-jobs M` parses both through ParseJobsFlag
  // with a minimum of 1 and defaults 4 and 1.
  for (const char* flag : {"jobs", "sim-jobs"}) {
    Args args;
    args.command = "serve";
    std::string error;
    EXPECT_EQ(ParseJobsFlag(args, flag, "4", 1, FlagStyle::kCli, &error), 4) << error;
    args.flags[flag] = std::to_string(kMaxJobs + 1);
    EXPECT_FALSE(ParseJobsFlag(args, flag, "4", 1, FlagStyle::kCli, &error).has_value());
    EXPECT_EQ(error, std::string("bad --") + flag + " '" + std::to_string(kMaxJobs + 1) +
                         "' (expected at most " + std::to_string(kMaxJobs) + ")");
    args.flags[flag] = "0";
    EXPECT_FALSE(ParseJobsFlag(args, flag, "4", 1, FlagStyle::kCli, &error).has_value());
    EXPECT_EQ(error, std::string("bad --") + flag + " '0' (expected a positive integer)");
  }
}

TEST(ThreadCounts, ServeClampsASweepToItsThreadBudget) {
  // A serve sweep request, parsed in serve wording, then fitted to a
  // per-request budget of 2 threads.
  const auto clamped = [](const char* jobs, const char* sim_jobs) {
    Args args;
    args.command = "sweep";
    if (jobs != nullptr) {
      args.flags["jobs"] = jobs;
    }
    if (sim_jobs != nullptr) {
      args.flags["sim-jobs"] = sim_jobs;
    }
    SweepRequest request;
    std::string error;
    EXPECT_TRUE(ParseSweepRequest(args, TinyTrace(), 1, FlagStyle::kServe, &request, &error))
        << error;
    ClampSweepThreads(/*budget=*/2, &request.options);
    return std::make_pair(request.options.num_threads, request.options.sim_jobs);
  };
  EXPECT_EQ(clamped(nullptr, nullptr), std::make_pair(2, 1));  // jobs 0: the budget
  EXPECT_EQ(clamped("1", nullptr), std::make_pair(1, 1));
  EXPECT_EQ(clamped("2", "2"), std::make_pair(2, 2));
  EXPECT_EQ(clamped(std::to_string(kMaxJobs).c_str(), std::to_string(kMaxJobs).c_str()),
            std::make_pair(2, 2));
}

}  // namespace
}  // namespace daydream
