// What-if model for Priority-Based Parameter Propagation (Algorithm 7, §6.6).
//
// P3 slices each gradient tensor, pushes/pulls slices through the parameter
// server, and prioritizes slices needed earliest by the next forward pass.
// Modeled on a TWO-iteration single-GPU profile: push/pull tasks are inserted
// between a layer's backward tasks (iteration 1) and its forward tasks
// (iteration 2) — the steady-state cross-iteration dependency — and the
// simulator runs with the priority scheduler (the paper's Schedule override).
//
// The prediction knows the wire time of a slice (size / effective bandwidth)
// but not the server-side processing cost, which is why it overestimates P3's
// benefit at high bandwidths exactly as the paper reports (Figure 10).
#ifndef SRC_CORE_OPTIMIZATIONS_P3_H_
#define SRC_CORE_OPTIMIZATIONS_P3_H_

#include <string>

#include "src/comm/network_spec.h"
#include "src/comm/param_server.h"
#include "src/core/dependency_graph.h"
#include "src/core/predictor.h"
#include "src/models/model_graph.h"

namespace daydream {

struct PsWhatIf {
  NetworkSpec network;
  int num_servers = 1;
  // Worker/server NIC sharing (deployment knowledge the predictor has).
  double bandwidth_share = 0.5;
  // P3 slicing; slice_bytes <= 0 means whole-tensor transfers (baseline
  // MXNet kvstore) with FIFO scheduling.
  int64_t slice_bytes = kDefaultSliceBytes;
  bool prioritize = true;
};

// Channels used by inserted push/pull tasks.
inline constexpr int kPushChannel = 0;
inline constexpr int kPullChannel = 1;

// Transforms a 2-iteration graph in place: removes worker-side weight-update
// tasks (the server owns the update) and inserts prioritized push/pull chains.
void WhatIfP3(DependencyGraph* graph, const ModelGraph& model, const PsWhatIf& options);

// End-to-end helper: applies WhatIfP3 to the Daydream instance's 2-iteration
// graph, simulates with the priority scheduler and returns the predicted
// steady-state iteration time (span between the two end-of-iteration syncs).
// DD_CHECKs that the profile has two iterations; callers that must refuse
// instead of aborting check CheckPsProfile first.
TimeNs PredictPsIterationTime(const Daydream& daydream, const ModelGraph& model,
                              const PsWhatIf& options);

// True when `daydream` holds the 2-iteration profile PredictPsIterationTime
// needs. Otherwise sets *error to the refusal the CLI and the serve daemon
// both report.
bool CheckPsProfile(const Daydream& daydream, std::string* error);

}  // namespace daydream

#endif  // SRC_CORE_OPTIMIZATIONS_P3_H_
