// Parallel what-if sweep — "profile once, ask many questions" at full width.
//
// A SweepRunner evaluates a matrix of optimization × cluster configurations
// against one parsed trace. The expensive per-trace work (parsing, dependency
// graph construction, baseline simulation, baseline plan compilation) happens
// exactly once, in the shared Daydream instance. Each case then runs
// Daydream's two what-if stages (src/core/predictor.h) as a pipeline job:
// Prepare (clone, transform, lint, compile or retime; the clone is released
// as soon as the plan exists, so a prepared case holds plan-sized memory)
// and Dispatch.
//
// Workers interleave the two stages from a shared queue with a bounded number
// of prepared-but-undispatched cases in flight: a case's clone+transform
// overlaps other cases' simulations instead of serializing in front of its
// own, which is what makes wide sweep matrices approach full-machine
// throughput (§7.1's workflow: the profile is collected once, and every
// question asked of it is cheap).
#ifndef SRC_RUNTIME_SWEEP_H_
#define SRC_RUNTIME_SWEEP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/network_spec.h"
#include "src/core/predictor.h"
#include "src/parallel/pipeline.h"
#include "src/util/deadline.h"

namespace daydream {

class ThreadPool;

// One cell of the sweep matrix: a named graph transformation (null = the
// baseline itself).
struct SweepCase {
  std::string name;
  std::function<void(DependencyGraph*)> transform;
};

struct SweepOutcome {
  std::string name;
  PredictionResult prediction;
  // Alive tasks in the transformed graph (sweep cases can grow the graph —
  // distributed what-ifs insert communication tasks).
  int tasks = 0;
};

struct SweepOptions {
  // Worker threads; 0 = one per hardware thread (at least 1).
  int num_threads = 0;
  // Shards per case simulation (sharded parallel dispatch; 1 = the serial
  // engine). The thread budget is shared, not multiplied: with B total
  // threads the runner uses ~B/sim_jobs case workers and pools the rest for
  // shard dispatch, so cases × shards never oversubscribes the machine.
  // Worth > 1 only when the matrix is narrower than the machine — at full
  // case-width, case-level parallelism already saturates every core.
  int sim_jobs = 1;
  // Strict verification (`daydream sweep --validate`): every transformed
  // graph runs the full GraphLint catalog (timing + smell passes, not just
  // the structural set) and every compiled plan is linted against its graph
  // before dispatch. Catches transform bugs at the case that planted them
  // instead of as a wrong number in the ranking.
  bool validate = false;
  // Wall-clock budget for the whole matrix, checked between cases (a serve
  // request's deadline, threaded through TraceSession::Sweep). Unbounded by
  // default — the CLI and benchmarks run to completion.
  Deadline deadline;
};

class SweepRunner {
 public:
  // Keeps a reference to `daydream` (graph, baseline simulation and baseline
  // plan); the caller must keep it alive for the runner's lifetime. All
  // concurrent access to it is read-only. A graph built without a trace (a
  // benchmark's replicated cluster) sweeps through Daydream's adopting
  // constructor.
  explicit SweepRunner(const Daydream& daydream, SweepOptions options = SweepOptions{});

  // Evaluates every case (concurrently when options.num_threads != 1);
  // outcomes are returned in case order. When options.deadline expires the
  // runner stops claiming cases, sets *deadline_exceeded (if non-null), and
  // returns with the unreached outcomes left blank (empty name, zero
  // prediction) — callers that set a deadline must check the flag before
  // trusting the vector.
  std::vector<SweepOutcome> Run(const std::vector<SweepCase>& cases,
                                bool* deadline_exceeded = nullptr) const;

 private:
  struct Prepared;

  Prepared Prepare(const SweepCase& sweep_case, size_t index) const;
  // `pool` is the shared shard-dispatch pool (null when sim_jobs <= 1).
  TimeNs Simulate(const Prepared& prepared, ThreadPool* pool) const;

  const Daydream& daydream_;
  SweepOptions options_;
};

// The standard sweep matrix for `trace`: framework what-ifs (AMP, fused Adam),
// the layer-structured what-ifs when the trace's model is in the zoo (RBN,
// MetaFlow conv+BN fusion, Gist, vDNN), and one distributed data-parallel
// what-if per cluster configuration. P3 is excluded — it needs a two-iteration
// trace and reports a different metric (steady-state iteration span).
std::vector<SweepCase> BuildStandardSweep(const Trace& trace,
                                          const std::vector<ClusterConfig>& clusters);

// The pipeline-parallel corner of the sweep matrix: stages × schedules at one
// micro-batch count (`daydream sweep --pipeline-stages 2,4 --microbatches 4
// --schedule 1f1b`).
struct PipelineSweepSpec {
  std::vector<int> stages;                       // e.g. {2, 4}
  int microbatches = 4;
  std::vector<PipelineScheduleKind> schedules;   // empty = both kinds
  NetworkSpec network;                           // inter-stage P2P link
};

// Appends one case per stages × schedules cell. Pipeline what-ifs need the
// model graph for activation/parameter sizes, so the trace's model must be in
// the zoo: returns false (appending nothing) when it is not.
bool AppendPipelineSweep(std::vector<SweepCase>* cases, const Trace& trace,
                         const PipelineSweepSpec& spec);

// Sorts outcomes best-first: predicted makespan ascending, ties by name.
void RankBySpeedup(std::vector<SweepOutcome>* outcomes);

// Serialization for the CLI and CI artifacts. SweepCaseJson is one case as a
// single-line JSON object — the element both SweepReportJson and serve's
// `sweep` verb list.
std::string SweepCaseJson(const SweepOutcome& outcome);
std::string SweepReportJson(const std::vector<SweepOutcome>& outcomes);
bool WriteSweepCsv(const std::vector<SweepOutcome>& outcomes, const std::string& path);

}  // namespace daydream

#endif  // SRC_RUNTIME_SWEEP_H_
