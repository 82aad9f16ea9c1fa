// Golden end-to-end fixtures: committed TinyMLP traces plus the exact
// `daydream predict --json` / `daydream sweep --json` outputs they must
// produce. The test shells out to the real CLI binary (path injected by CMake
// as DAYDREAM_CLI_PATH) so the whole pipeline — trace IO, graph construction,
// what-if transforms, both sweep engines, JSON serialization — is covered
// byte-for-byte. Everything downstream of the committed trace is integer
// simulation plus fixed-format printf, so the outputs are stable across
// machines.
//
// To regenerate the fixtures after an intentional behavior change:
//
//   cmake --build build -j --target golden_test daydream_cli
//   DAYDREAM_UPDATE_GOLDEN=1 ./build/golden_test
//   git diff tests/golden/   # review, then commit
//
// Update mode re-collects the traces in-process (the executor's RNG is fully
// self-contained, so collection is deterministic) and rewrites the expected
// JSON from the CLI's fresh output.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/optimizations/p3.h"
#include "src/runtime/ground_truth.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/trace_io.h"

namespace daydream {
namespace {

#ifndef DAYDREAM_CLI_PATH
#error "CMake must define DAYDREAM_CLI_PATH (see golden_test wiring)"
#endif
#ifndef DAYDREAM_GOLDEN_DIR
#error "CMake must define DAYDREAM_GOLDEN_DIR"
#endif

std::string GoldenPath(const std::string& name) {
  return std::string(DAYDREAM_GOLDEN_DIR) + "/" + name;
}

bool UpdateMode() { return std::getenv("DAYDREAM_UPDATE_GOLDEN") != nullptr; }

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path
                         << " (regenerate with DAYDREAM_UPDATE_GOLDEN=1 ./golden_test)";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Runs the CLI; returns its exit code (-1 when a signal killed it) and puts
// its stdout and stderr in *output.
int RunCliExitCode(const std::string& args, std::string* output) {
  // Per process: ctest runs each test in its own process, in parallel.
  const std::string out_path =
      ::testing::TempDir() + "golden_cli_stdout_" + std::to_string(::getpid()) + ".txt";
  const std::string command =
      std::string(DAYDREAM_CLI_PATH) + " " + args + " > " + out_path + " 2>&1";
  const int status = std::system(command.c_str());
  *output = ReadFileOrDie(out_path);
  std::remove(out_path.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// Runs the CLI, asserting exit code 0; returns stdout.
std::string RunCli(const std::string& args) {
  std::string output;
  EXPECT_EQ(RunCliExitCode(args, &output), 0) << args << "\n" << output;
  return output;
}

struct GoldenCase {
  const char* trace;     // committed .ddtrace fixture
  const char* expected;  // committed expected JSON
  const char* args;      // CLI flags after --trace <fixture> --json <tmp>
  const char* command;   // predict | sweep
};

const std::vector<GoldenCase>& Cases() {
  static const std::vector<GoldenCase>* cases = new std::vector<GoldenCase>{
      {"tinymlp_i1.ddtrace", "tinymlp_i1_predict_amp.json", "--what-if amp", "predict"},
      {"tinymlp_i1.ddtrace", "tinymlp_i1_predict_pipeline.json",
       "--what-if pipeline --pipeline-stages 2 --microbatches 4 --schedule 1f1b", "predict"},
      {"tinymlp_i2.ddtrace", "tinymlp_i2_sweep.json",
       "--cluster 2x2,4x2 --gbps 10 --pipeline-stages 2,4 --microbatches 4 --schedule 1f1b",
       "sweep"},
  };
  return *cases;
}

// Update mode entry: regenerate every fixture, then fall through to the
// normal assertions (which must now trivially pass).
void MaybeRegenerate() {
  static bool done = false;
  if (done || !UpdateMode()) {
    return;
  }
  done = true;
  const Trace i1 = CollectBaselineTrace(DefaultRunConfig(ModelId::kTinyMlp), /*iterations=*/1);
  const Trace i2 = CollectBaselineTrace(DefaultRunConfig(ModelId::kTinyMlp), /*iterations=*/2);
  ASSERT_TRUE(WriteTraceFile(i1, GoldenPath("tinymlp_i1.ddtrace")));
  ASSERT_TRUE(WriteTraceFile(i2, GoldenPath("tinymlp_i2.ddtrace")));
  for (const GoldenCase& c : Cases()) {
    RunCli(std::string(c.command) + " --trace " + GoldenPath(c.trace) + " --json " +
           GoldenPath(c.expected) + " " + c.args);
  }
}

TEST(GoldenFixtures, CommittedTracesLoadAndValidate) {
  MaybeRegenerate();
  for (const char* name : {"tinymlp_i1.ddtrace", "tinymlp_i2.ddtrace"}) {
    const std::optional<Trace> trace = ReadTraceFile(GoldenPath(name));
    ASSERT_TRUE(trace.has_value()) << name;
    EXPECT_EQ(trace->model_name(), "TinyMLP");
    EXPECT_FALSE(trace->empty());
    EXPECT_FALSE(trace->gradients().empty());
    const TraceValidation validation = trace->Validate();
    EXPECT_TRUE(validation.ok()) << name << ": " << validation.Summary();
  }
}

TEST(GoldenFixtures, CliOutputMatchesCommittedJson) {
  MaybeRegenerate();
  for (const GoldenCase& c : Cases()) {
    const std::string fresh_path = ::testing::TempDir() + "golden_fresh.json";
    RunCli(std::string(c.command) + " --trace " + GoldenPath(c.trace) + " --json " + fresh_path +
           " " + c.args);
    const std::string fresh = ReadFileOrDie(fresh_path);
    const std::string expected = ReadFileOrDie(GoldenPath(c.expected));
    EXPECT_EQ(fresh, expected)
        << c.expected << " drifted from the CLI's output for `" << c.command << " " << c.args
        << "`.\nIf the change is intentional, regenerate with:\n"
        << "  DAYDREAM_UPDATE_GOLDEN=1 ./golden_test\nand commit the tests/golden/ diff.";
  }
}

// Trace-import acceptance: exporting the committed fixture to Chrome format
// and importing it back (both through `daydream import` and through
// `predict --format chrome` directly) must leave the analysis output
// byte-identical — the Chrome round trip is lossless end to end.
TEST(GoldenFixtures, ChromeRoundTripLeavesPredictOutputByteIdentical) {
  MaybeRegenerate();
  const std::optional<Trace> trace = ReadTraceFile(GoldenPath("tinymlp_i1.ddtrace"));
  ASSERT_TRUE(trace.has_value());
  const std::string chrome_path = ::testing::TempDir() + "golden_roundtrip.chrome.json";
  ASSERT_TRUE(WriteChromeTraceFile(*trace, chrome_path));

  const std::string expected = ReadFileOrDie(GoldenPath("tinymlp_i1_predict_amp.json"));

  // Route 1: explicit conversion through `daydream import`.
  const std::string ddtrace_path = ::testing::TempDir() + "golden_roundtrip.ddtrace";
  RunCli("import --in " + chrome_path + " --format chrome --out " + ddtrace_path);
  const std::string via_import = ::testing::TempDir() + "golden_roundtrip_import.json";
  RunCli("predict --trace " + ddtrace_path + " --json " + via_import + " --what-if amp");
  EXPECT_EQ(ReadFileOrDie(via_import), expected)
      << "chrome export -> `daydream import` -> predict drifted from the committed output";

  // Route 2: the analysis verb ingesting the Chrome file directly.
  const std::string via_format = ::testing::TempDir() + "golden_roundtrip_format.json";
  RunCli("predict --trace " + chrome_path + " --format chrome --json " + via_format +
         " --what-if amp");
  EXPECT_EQ(ReadFileOrDie(via_format), expected)
      << "`predict --format chrome` drifted from the committed output";
}

// The sweep fixture must rank the pipeline cases alongside the standard
// what-ifs — the end-to-end acceptance shape for `--pipeline-stages 2,4`.
TEST(GoldenFixtures, SweepFixtureCoversPipelineAndClusterCases) {
  MaybeRegenerate();
  const std::string sweep = ReadFileOrDie(GoldenPath("tinymlp_i2_sweep.json"));
  EXPECT_NE(sweep.find("\"pipeline 2st/4mb 1f1b\""), std::string::npos);
  EXPECT_NE(sweep.find("\"pipeline 4st/4mb 1f1b\""), std::string::npos);
  EXPECT_NE(sweep.find("distributed 2x2"), std::string::npos);
  EXPECT_NE(sweep.find("\"amp\""), std::string::npos);
  EXPECT_NE(sweep.find("\"baseline_ms\""), std::string::npos);
}

// `predict --what-if p3` needs a 2-iteration profile. On a 1-iteration trace
// the CLI refuses with exit 2 and the message the serve daemon sends, instead
// of aborting inside PredictPsIterationTime.
TEST(CliPredict, P3OnOneIterationTraceExitsTwoWithTheServeMessage) {
  const std::optional<Trace> trace = ReadTraceFile(GoldenPath("tinymlp_i1.ddtrace"));
  ASSERT_TRUE(trace.has_value());
  std::string refusal;
  ASSERT_FALSE(CheckPsProfile(Daydream(*trace), &refusal));

  std::string output;
  EXPECT_EQ(RunCliExitCode("predict --trace " + GoldenPath("tinymlp_i1.ddtrace") + " --what-if p3",
                           &output),
            2)
      << output;
  EXPECT_EQ(output, refusal + "\n");

  EXPECT_EQ(RunCliExitCode("predict --trace " + GoldenPath("tinymlp_i2.ddtrace") + " --what-if p3",
                           &output),
            0)
      << output;
  EXPECT_NE(output.find("P3 predicted steady-state iteration"), std::string::npos) << output;
}

TEST(CliPredict, OutOfRangeSizesExitTwo) {
  // 100000x100000 used to overflow the GPU count and answer -0.0% with exit 0;
  // 5000000 micro-batches used to die in std::bad_alloc.
  const std::string trace = "predict --trace " + GoldenPath("tinymlp_i1.ddtrace");
  std::string output;
  EXPECT_EQ(RunCliExitCode(trace + " --what-if distributed --cluster 100000x100000", &output), 2)
      << output;
  EXPECT_NE(output.find("bad --cluster '100000x100000'"), std::string::npos) << output;
  EXPECT_EQ(RunCliExitCode(trace + " --what-if pipeline --pipeline-stages 2 --microbatches 5000000",
                           &output),
            2)
      << output;
  EXPECT_NE(output.find("bad --microbatches '5000000'"), std::string::npos) << output;
}

}  // namespace
}  // namespace daydream
