#include "tools/cli_args.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace daydream {
namespace {

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
  const std::optional<ClusterConfig> cluster = ParseCluster(args);
  ASSERT_TRUE(cluster.has_value());
  EXPECT_EQ(cluster->machines, 4);
  EXPECT_EQ(cluster->gpus_per_machine, 2);
  EXPECT_DOUBLE_EQ(cluster->network.bandwidth_gbps, 25.0);
}

TEST(ParseCluster, DefaultsWhenFlagsAbsent) {
  const std::optional<ClusterConfig> cluster = ParseCluster(Args{});
  ASSERT_TRUE(cluster.has_value());
  EXPECT_EQ(cluster->machines, 4);
  EXPECT_EQ(cluster->gpus_per_machine, 1);
  EXPECT_DOUBLE_EQ(cluster->network.bandwidth_gbps, 10.0);
}

TEST(ParseCluster, RejectsMalformedShape) {
  for (const char* bad : {"4xa", "ax2", "4", "4x2x1", "0x2", "4x0", "-1x2", ""}) {
    Args args;
    args.flags["cluster"] = bad;
    EXPECT_FALSE(ParseCluster(args).has_value()) << "--cluster " << bad;
  }
}

TEST(ParseCluster, EnforcesTheDocumentedMaxima) {
  Args largest;
  largest.flags["cluster"] =
      std::to_string(kMaxClusterMachines) + "x" + std::to_string(kMaxGpusPerMachine);
  const std::optional<ClusterConfig> cluster = ParseCluster(largest);
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
    EXPECT_FALSE(ParseCluster(args).has_value()) << "--gbps " << bad;
  }
}

TEST(ParseClusterList, DefaultsToFourShapesAtTenGbps) {
  const std::optional<std::vector<ClusterConfig>> clusters = ParseClusterList(Args{});
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
  const std::optional<std::vector<ClusterConfig>> clusters = ParseClusterList(args);
  ASSERT_TRUE(clusters.has_value());
  ASSERT_EQ(clusters->size(), 6u);
  EXPECT_EQ((*clusters)[0].machines, 2);
  EXPECT_DOUBLE_EQ((*clusters)[0].network.bandwidth_gbps, 10.0);
  EXPECT_DOUBLE_EQ((*clusters)[2].network.bandwidth_gbps, 40.0);
  EXPECT_EQ((*clusters)[3].machines, 4);
  EXPECT_EQ((*clusters)[3].gpus_per_machine, 4);
}

TEST(ParseEngineKind, DefaultsToEvent) {
  EXPECT_EQ(ParseEngineKind(Args{}), EngineKind::kEvent);
}

TEST(ParseEngineKind, AcceptsBothEngines) {
  Args args;
  args.flags["engine"] = "event";
  EXPECT_EQ(ParseEngineKind(args), EngineKind::kEvent);
  args.flags["engine"] = "reference";
  EXPECT_EQ(ParseEngineKind(args), EngineKind::kReference);
}

TEST(ParseEngineKind, RejectsUnknownValues) {
  for (const char* bad : {"Event", "ref", "plan", "", " event"}) {
    Args args;
    args.flags["engine"] = bad;
    EXPECT_FALSE(ParseEngineKind(args).has_value()) << "--engine '" << bad << "'";
  }
}

TEST(ParseClusterList, RejectsAnyBadEntry) {
  for (const char* bad : {"2x2,4xa", "2x2,", ",2x2", "0x1"}) {
    Args args;
    args.flags["cluster"] = bad;
    EXPECT_FALSE(ParseClusterList(args).has_value()) << "--cluster " << bad;
  }
  Args args;
  args.flags["cluster"] = "2x2";
  args.flags["gbps"] = "10,zoom";
  EXPECT_FALSE(ParseClusterList(args).has_value());
}

TEST(ParsePipelineFlags, DisabledWhenStagesAbsent) {
  const std::optional<PipelineFlags> flags = ParsePipelineFlags(Args{});
  ASSERT_TRUE(flags.has_value());
  EXPECT_FALSE(flags->enabled);
}

TEST(ParsePipelineFlags, ParsesStagesMicrobatchesAndSchedule) {
  Args args;
  args.flags["pipeline-stages"] = "2,4,8";
  args.flags["microbatches"] = "16";
  args.flags["schedule"] = "gpipe";
  const std::optional<PipelineFlags> flags = ParsePipelineFlags(args);
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
  const std::optional<PipelineFlags> flags = ParsePipelineFlags(args);
  ASSERT_TRUE(flags.has_value());
  EXPECT_EQ(flags->microbatches, 4);
  EXPECT_TRUE(flags->schedules.empty());  // empty = both kinds
}

TEST(ParsePipelineFlags, RejectsMalformedValues) {
  for (const char* bad : {"0", "-2", "2,", "2,x", "fast"}) {
    Args args;
    args.flags["pipeline-stages"] = bad;
    EXPECT_FALSE(ParsePipelineFlags(args).has_value()) << "--pipeline-stages " << bad;
  }
  Args bad_mb;
  bad_mb.flags["pipeline-stages"] = "2";
  bad_mb.flags["microbatches"] = "0";
  EXPECT_FALSE(ParsePipelineFlags(bad_mb).has_value());
  Args bad_schedule;
  bad_schedule.flags["pipeline-stages"] = "2";
  bad_schedule.flags["schedule"] = "warp";
  EXPECT_FALSE(ParsePipelineFlags(bad_schedule).has_value());
}

TEST(ParsePipelineFlags, EnforcesTheDocumentedMaxima) {
  Args largest;
  largest.flags["pipeline-stages"] = std::to_string(kMaxPipelineStages);
  largest.flags["microbatches"] = std::to_string(kMaxMicrobatches);
  EXPECT_TRUE(ParsePipelineFlags(largest).has_value());
  Args stages;
  stages.flags["pipeline-stages"] = "2," + std::to_string(kMaxPipelineStages + 1);
  EXPECT_FALSE(ParsePipelineFlags(stages).has_value());
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
  EXPECT_FALSE(ParsePipelineFlags(args).has_value());
  Args mb;
  mb.flags["microbatches"] = "4";
  EXPECT_FALSE(ParsePipelineFlags(mb).has_value());
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
  args.flags["engine"] = "reference";
  args.flags["validate"] = "1";
  WhatIfRequest request;
  std::string error;
  ASSERT_TRUE(ParseWhatIfRequest(args, &request, &error)) << error;
  EXPECT_EQ(request.what_if, "distributed");
  EXPECT_EQ(request.cluster.machines, 2);
  EXPECT_EQ(request.cluster.gpus_per_machine, 4);
  EXPECT_DOUBLE_EQ(request.cluster.network.bandwidth_gbps, 25.0);
  EXPECT_EQ(request.engine, EngineKind::kReference);
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

}  // namespace
}  // namespace daydream
