// Service-layer tests: TraceSession answers against the Daydream oracle, the
// session's answer cache (LRU, counters, retime/compile attribution,
// bypasses, resident bytes), and the SessionManager table — including the
// multi-client stress the TSan CI job runs (many threads hammering one
// session's cache).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/optimizations/optimizations.h"
#include "src/core/predictor.h"
#include "src/runtime/ground_truth.h"
#include "src/service/session.h"
#include "src/util/fault.h"

namespace daydream {
namespace {

// ---- WhatIfRequest signatures ----

TEST(WhatIfRequestSignature, DistinguishesEveryTransformParameter) {
  WhatIfRequest amp;
  amp.what_if = "amp";
  WhatIfRequest dist;
  dist.what_if = "distributed";
  dist.cluster.machines = 2;
  dist.cluster.gpus_per_machine = 4;
  EXPECT_NE(amp.Signature(), dist.Signature());

  WhatIfRequest dist_fast = dist;
  dist_fast.cluster.network.bandwidth_gbps = 40.0;
  EXPECT_NE(dist.Signature(), dist_fast.Signature());

  // Engine, validate and sim_jobs select how the answer is computed, not
  // which question it answers — they must not split the signature.
  WhatIfRequest amp_reference = amp;
  amp_reference.engine = EngineKind::kReference;
  amp_reference.validate = true;
  amp_reference.sim_jobs = 4;
  EXPECT_EQ(amp.Signature(), amp_reference.Signature());
}

// ---- TraceSession ----

class TraceSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new Trace(CollectBaselineTrace(DefaultRunConfig(ModelId::kTinyMlp)));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static std::shared_ptr<TraceSession> NewSession(
      SessionOptions options = SessionOptions{}) {
    std::string error;
    std::shared_ptr<TraceSession> session = TraceSession::Create(*trace_, options, &error);
    EXPECT_NE(session, nullptr) << error;
    return session;
  }

  static Trace* trace_;
};

Trace* TraceSessionTest::trace_ = nullptr;

TEST_F(TraceSessionTest, CreateRejectsEmptyTrace) {
  std::string error;
  EXPECT_EQ(TraceSession::Create(Trace{}, SessionOptions{}, &error), nullptr);
  EXPECT_NE(error.find("no events"), std::string::npos);
}

TEST_F(TraceSessionTest, PredictMatchesDaydreamOracle) {
  std::shared_ptr<TraceSession> session = NewSession();
  const Daydream oracle(*trace_);
  for (const char* name : {"amp", "fused_adam", "rbn", "metaflow", "gist", "vdnn"}) {
    WhatIfRequest request;
    request.what_if = name;
    PredictOutcome outcome;
    std::string error;
    ASSERT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kOk)
        << name << ": " << error;

    std::function<void(DependencyGraph*)> transform;
    ASSERT_EQ(session->ResolveTransform(request, &transform, &error), SessionStatus::kOk)
        << name << ": " << error;
    const PredictionResult expected = oracle.Predict(transform);
    EXPECT_EQ(outcome.prediction.baseline, expected.baseline) << name;
    EXPECT_EQ(outcome.prediction.predicted, expected.predicted) << name;
  }
}

TEST_F(TraceSessionTest, RepeatedTimingOnlyQueryHitsPlanCacheViaRetime) {
  std::shared_ptr<TraceSession> session = NewSession();
  WhatIfRequest request;
  request.what_if = "amp";
  PredictOutcome first, second;
  std::string error;
  ASSERT_EQ(session->Predict(request, &first, &error), SessionStatus::kOk) << error;
  ASSERT_EQ(session->Predict(request, &second, &error), SessionStatus::kOk) << error;

  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.prediction.predicted, second.prediction.predicted);

  // AMP only edits timings, so the miss was filled by retiming the baseline
  // plan's structure block, never a full CSR compile; the repeat simulated
  // nothing.
  const PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.retimes, 1u);
  EXPECT_EQ(stats.compiles, 0u);
}

TEST_F(TraceSessionTest, StructuralWhatIfCompilesOnceThenHits) {
  std::shared_ptr<TraceSession> session = NewSession();
  WhatIfRequest request;
  request.what_if = "distributed";
  request.cluster.machines = 2;
  request.cluster.gpus_per_machine = 2;
  PredictOutcome first, second;
  std::string error;
  ASSERT_EQ(session->Predict(request, &first, &error), SessionStatus::kOk) << error;
  ASSERT_EQ(session->Predict(request, &second, &error), SessionStatus::kOk) << error;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.prediction.predicted, second.prediction.predicted);
  const PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.retimes, 0u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(TraceSessionTest, DifferentClustersAreDifferentCacheEntries) {
  std::shared_ptr<TraceSession> session = NewSession();
  WhatIfRequest narrow, wide;
  narrow.what_if = wide.what_if = "distributed";
  narrow.cluster.machines = wide.cluster.machines = 2;
  narrow.cluster.gpus_per_machine = wide.cluster.gpus_per_machine = 2;
  narrow.cluster.network.bandwidth_gbps = 10.0;
  wide.cluster.network.bandwidth_gbps = 40.0;

  PredictOutcome a, b;
  std::string error;
  ASSERT_EQ(session->Predict(narrow, &a, &error), SessionStatus::kOk) << error;
  ASSERT_EQ(session->Predict(wide, &b, &error), SessionStatus::kOk) << error;
  EXPECT_FALSE(b.cache_hit);  // a different question, not a warm hit
  EXPECT_LE(b.prediction.predicted, a.prediction.predicted);  // 40 Gbps >= 10
}

TEST_F(TraceSessionTest, TransformCacheEvictionInvalidatesCachedPlans) {
  SessionOptions options;
  options.plan_cache_capacity = 1;
  std::shared_ptr<TraceSession> session = NewSession(options);

  WhatIfRequest amp, dist;
  amp.what_if = "amp";
  dist.what_if = "distributed";
  PredictOutcome outcome;
  std::string error;
  ASSERT_EQ(session->Predict(amp, &outcome, &error), SessionStatus::kOk) << error;
  ASSERT_EQ(session->Predict(dist, &outcome, &error), SessionStatus::kOk) << error;
  // dist evicted amp's answer (capacity 1), so the repeat must recompute.
  ASSERT_EQ(session->Predict(amp, &outcome, &error), SessionStatus::kOk) << error;
  EXPECT_FALSE(outcome.cache_hit);
  const PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST_F(TraceSessionTest, PlansDroppedWithAnEvictedTransformCountAsEvictions) {
  SessionOptions options;
  options.plan_cache_capacity = 2;
  std::shared_ptr<TraceSession> session = NewSession(options);
  PredictOutcome outcome;
  std::string error;
  for (const int machines : {2, 3, 4}) {
    WhatIfRequest request;
    request.what_if = "distributed";
    request.cluster.machines = machines;
    ASSERT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kOk) << error;
  }
  // The third signature pushed the first answer out.
  EXPECT_EQ(session->plan_cache_size(), 2u);
  EXPECT_EQ(session->plan_cache_stats().evictions, 1u);
}

TEST_F(TraceSessionTest, ReferenceEngineBypassesThePlanCache) {
  std::shared_ptr<TraceSession> session = NewSession();
  WhatIfRequest request;
  request.what_if = "amp";
  request.engine = EngineKind::kReference;
  PredictOutcome reference, event;
  std::string error;
  ASSERT_EQ(session->Predict(request, &reference, &error), SessionStatus::kOk) << error;
  EXPECT_FALSE(reference.cache_hit);
  EXPECT_EQ(session->plan_cache_size(), 0u);

  request.engine = EngineKind::kEvent;
  ASSERT_EQ(session->Predict(request, &event, &error), SessionStatus::kOk) << error;
  // Differential check: both engines agree on the same transformed graph.
  EXPECT_EQ(reference.prediction.predicted, event.prediction.predicted);
}

TEST_F(TraceSessionTest, UnknownWhatIfIsReportedNotFatal) {
  std::shared_ptr<TraceSession> session = NewSession();
  WhatIfRequest request;
  request.what_if = "overclock";
  PredictOutcome outcome;
  std::string error;
  EXPECT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kUnknownWhatIf);
  // p3 is deliberately not a graph transform either (it reports its own
  // steady-state metric; callers route it to PredictPsIterationTime).
  request.what_if = "p3";
  EXPECT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kUnknownWhatIf);
}

TEST_F(TraceSessionTest, LayerStructuredWhatIfNeedsAKnownModel) {
  Trace renamed = *trace_;
  renamed.set_model_name("mystery-net");
  std::string error;
  std::shared_ptr<TraceSession> session =
      TraceSession::Create(renamed, SessionOptions{}, &error);
  ASSERT_NE(session, nullptr) << error;
  WhatIfRequest request;
  request.what_if = "rbn";
  PredictOutcome outcome;
  EXPECT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kBadRequest);
  EXPECT_NE(error.find("known model name"), std::string::npos);
}

TEST_F(TraceSessionTest, ValidatedPredictRunsTheFullCatalog) {
  std::shared_ptr<TraceSession> session = NewSession();
  WhatIfRequest request;
  request.what_if = "amp";
  request.validate = true;
  PredictOutcome outcome;
  std::string error;
  EXPECT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kOk) << error;
}

TEST_F(TraceSessionTest, LintCleanGraphRunsPlanPasses) {
  std::shared_ptr<TraceSession> session = NewSession();
  LintReport report;
  bool plan_passes_run = false;
  std::string error;
  ASSERT_EQ(session->Lint(nullptr, &report, &plan_passes_run, &error), SessionStatus::kOk);
  EXPECT_TRUE(plan_passes_run);
  EXPECT_EQ(report.errors(), 0);
}

TEST_F(TraceSessionTest, ReportTextNamesTheModel) {
  std::shared_ptr<TraceSession> session = NewSession();
  const std::string report = session->ReportText();
  EXPECT_NE(report.find(trace_->model_name()), std::string::npos);
  EXPECT_NE(report.find("hottest layer phases"), std::string::npos);
}

TEST_F(TraceSessionTest, SweepRunsTheStandardMatrix) {
  std::shared_ptr<TraceSession> session = NewSession();
  const std::vector<SweepCase> cases =
      BuildStandardSweep(session->trace(), {ClusterConfig{}});
  ASSERT_FALSE(cases.empty());
  const std::vector<SweepOutcome> outcomes = session->Sweep(cases, SweepOptions{});
  ASSERT_EQ(outcomes.size(), cases.size());
  for (const SweepOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.prediction.baseline, session->daydream().BaselineSimTime());
  }
}

TEST_F(TraceSessionTest, ConcurrentClientsShareTheCachesSafely) {
  // The TSan stress: N client threads fire mixed what-ifs at one session.
  // Every request must succeed and agree with the single-threaded answer.
  std::shared_ptr<TraceSession> session = NewSession();

  WhatIfRequest amp, fused, dist;
  amp.what_if = "amp";
  fused.what_if = "fused_adam";
  dist.what_if = "distributed";
  dist.cluster.machines = 2;
  dist.cluster.gpus_per_machine = 2;
  const std::vector<WhatIfRequest> requests = {amp, fused, dist};

  std::vector<TimeNs> expected;
  for (const WhatIfRequest& request : requests) {
    PredictOutcome outcome;
    std::string error;
    ASSERT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kOk) << error;
    expected.push_back(outcome.prediction.predicted);
  }

  constexpr int kThreads = 8;
  constexpr int kIterations = 25;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const size_t pick = static_cast<size_t>(t + i) % requests.size();
        PredictOutcome outcome;
        std::string error;
        if (session->Predict(requests[pick], &outcome, &error) != SessionStatus::kOk ||
            outcome.prediction.predicted != expected[pick]) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  // Every predict is exactly one cache probe, and warm queries dominate.
  const PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kIterations + requests.size()));
  EXPECT_GE(stats.hits, stats.misses);
}

// ---- Answer cache ----

// The answer cache's tests run through TraceSession, on the same trace.
class AnswerCache : public TraceSessionTest {
 protected:
  static PredictOutcome Ask(TraceSession* session, const WhatIfRequest& request) {
    PredictOutcome outcome;
    std::string error;
    EXPECT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kOk) << error;
    return outcome;
  }

  static WhatIfRequest Named(const char* what_if) {
    WhatIfRequest request;
    request.what_if = what_if;
    return request;
  }

  // A 2x2 distributed what-if; integer bandwidths of one digit count give
  // signatures of one length (and so entries of one size).
  static WhatIfRequest Distributed(double gbps) {
    WhatIfRequest request = Named("distributed");
    request.cluster.machines = 2;
    request.cluster.gpus_per_machine = 2;
    request.cluster.network.bandwidth_gbps = gbps;
    return request;
  }
};

TEST_F(AnswerCache, MissThenHitReturnsTheSameAnswer) {
  std::shared_ptr<TraceSession> session = NewSession();
  const PredictOutcome first = Ask(session.get(), Distributed(25));
  const PredictOutcome second = Ask(session.get(), Distributed(25));
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.prediction.baseline, first.prediction.baseline);
  EXPECT_EQ(second.prediction.predicted, first.prediction.predicted);
  EXPECT_EQ(second.tasks, first.tasks);
  EXPECT_EQ(session->plan_cache_size(), 1u);
}

TEST_F(AnswerCache, KeyIsTheRequestSignature) {
  std::shared_ptr<TraceSession> session = NewSession();
  Ask(session.get(), Distributed(10));
  // sim_jobs is consumption-only: same question, same entry.
  WhatIfRequest sharded = Distributed(10);
  sharded.sim_jobs = 2;
  EXPECT_TRUE(Ask(session.get(), sharded).cache_hit);
  // Any parameter that shapes the transform is a different question.
  EXPECT_FALSE(Ask(session.get(), Distributed(40)).cache_hit);
  WhatIfRequest wider = Distributed(10);
  wider.cluster.machines = 4;
  EXPECT_FALSE(Ask(session.get(), wider).cache_hit);
  EXPECT_EQ(session->plan_cache_size(), 3u);
}

TEST_F(AnswerCache, EvictsLeastRecentlyUsedPastCapacity) {
  SessionOptions options;
  options.plan_cache_capacity = 2;
  std::shared_ptr<TraceSession> session = NewSession(options);
  const WhatIfRequest a = Named("amp");
  const WhatIfRequest b = Named("fused_adam");
  const WhatIfRequest c = Distributed(10);
  EXPECT_FALSE(Ask(session.get(), a).cache_hit);
  EXPECT_FALSE(Ask(session.get(), b).cache_hit);
  EXPECT_TRUE(Ask(session.get(), a).cache_hit);   // promotes a
  EXPECT_FALSE(Ask(session.get(), c).cache_hit);  // evicts b, the LRU
  EXPECT_EQ(session->plan_cache_size(), 2u);
  EXPECT_TRUE(Ask(session.get(), a).cache_hit);
  EXPECT_TRUE(Ask(session.get(), c).cache_hit);
  EXPECT_FALSE(Ask(session.get(), b).cache_hit);  // was evicted; evicts a now

  const PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(session->plan_cache_size(), 2u);
  EXPECT_FALSE(Ask(session.get(), a).cache_hit);
}

TEST_F(AnswerCache, MissesAreFilledByRetimeOrCompile) {
  // Timing-only edits keep the baseline structure stamp, so the baseline
  // plan donates its structure block; structural edits bump the stamp and
  // pay a full compile.
  const Daydream daydream(*trace_);
  DependencyGraph amp = daydream.CloneGraph();
  WhatIfAmp(&amp);
  EXPECT_EQ(amp.structure_stamp(), daydream.graph().structure_stamp());
  DependencyGraph fused = daydream.CloneGraph();
  WhatIfFusedAdam(&fused);
  EXPECT_NE(fused.structure_stamp(), daydream.graph().structure_stamp());

  std::shared_ptr<TraceSession> session = NewSession();
  Ask(session.get(), Named("amp"));
  PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.retimes, 1u);
  EXPECT_EQ(stats.compiles, 0u);
  Ask(session.get(), Named("fused_adam"));
  Ask(session.get(), Distributed(10));
  stats = session->plan_cache_stats();
  EXPECT_EQ(stats.retimes, 1u);
  EXPECT_EQ(stats.compiles, 2u);
  // Hits fill nothing.
  Ask(session.get(), Named("amp"));
  Ask(session.get(), Named("fused_adam"));
  stats = session->plan_cache_stats();
  EXPECT_EQ(stats.retimes + stats.compiles, stats.misses);
  EXPECT_EQ(stats.hits, 2u);
}

TEST_F(AnswerCache, ReferenceAndValidateRequestsNeverHit) {
  std::shared_ptr<TraceSession> session = NewSession();
  WhatIfRequest reference = Named("amp");
  reference.engine = EngineKind::kReference;
  WhatIfRequest validated = Named("amp");
  validated.validate = true;

  // Neither fills the cache...
  const PredictOutcome cold_reference = Ask(session.get(), reference);
  Ask(session.get(), validated);
  EXPECT_EQ(session->plan_cache_size(), 0u);
  // ...nor reads it once the event-engine answer is memoized.
  const PredictOutcome event = Ask(session.get(), Named("amp"));
  for (const WhatIfRequest& request : {reference, validated}) {
    const PredictOutcome outcome = Ask(session.get(), request);
    EXPECT_FALSE(outcome.cache_hit);
    EXPECT_EQ(outcome.prediction.predicted, event.prediction.predicted);
  }
  EXPECT_EQ(cold_reference.prediction.predicted, event.prediction.predicted);
  const PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(AnswerCache, DroppedInsertsLeaveEveryRepeatAMiss) {
  std::string error;
  ASSERT_TRUE(FaultInjector::Global().ArmSpec("plan_cache_insert:fail", &error)) << error;
  std::shared_ptr<TraceSession> session = NewSession();
  PredictOutcome first;
  for (int i = 0; i < 3; ++i) {
    const PredictOutcome outcome = Ask(session.get(), Named("amp"));
    EXPECT_FALSE(outcome.cache_hit);
    if (i == 0) {
      first = outcome;
    }
    EXPECT_EQ(outcome.prediction.predicted, first.prediction.predicted);
  }
  FaultInjector::Global().Disarm();
  const PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.retimes, 3u);  // each miss was still filled
  EXPECT_EQ(session->plan_cache_size(), 0u);
}

TEST_F(AnswerCache, ResidentBytesCountWhatTheSessionHolds) {
  SessionOptions options;
  options.plan_cache_capacity = 4;
  std::shared_ptr<TraceSession> session = NewSession(options);
  const size_t fresh = NewSession(options)->resident_bytes();
  EXPECT_EQ(session->resident_bytes(), fresh);
  // At least the trace and the baseline plan it keeps as the retime donor.
  EXPECT_GE(fresh, trace_->size() * sizeof(TraceEvent) +
                       session->daydream().baseline_plan().ResidentBytes());

  for (int gbps = 1; gbps <= 3; ++gbps) {
    Ask(session.get(), Distributed(gbps));
  }
  EXPECT_GT(session->resident_bytes(), fresh);

  Ask(session.get(), Distributed(4));  // the cache is now full
  const size_t full = session->resident_bytes();
  EXPECT_GT(full, fresh);
  for (int gbps = 5; gbps <= 9; ++gbps) {
    Ask(session.get(), Distributed(gbps));
  }
  EXPECT_EQ(session->plan_cache_stats().evictions, 5u);
  EXPECT_EQ(session->resident_bytes(), full);
}

TEST_F(AnswerCache, ConcurrentMissesStoreOneEntryPerSignature) {
  // 8 threads: each asks one shared cold signature, then its own distinct
  // one, then the shared one again. Every answer equals a fresh session's,
  // and racing misses on the shared signature leave a single entry.
  constexpr int kThreads = 8;
  const WhatIfRequest shared = Distributed(25);
  std::vector<WhatIfRequest> own;
  for (int t = 0; t < kThreads; ++t) {
    own.push_back(Distributed(t + 1));
  }
  std::shared_ptr<TraceSession> oracle = NewSession();
  const TimeNs shared_expected = Ask(oracle.get(), shared).prediction.predicted;
  std::vector<TimeNs> own_expected;
  for (const WhatIfRequest& request : own) {
    own_expected.push_back(Ask(oracle.get(), request).prediction.predicted);
  }

  std::shared_ptr<TraceSession> session = NewSession();
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const auto& [request, expected] :
           {std::make_pair(shared, shared_expected),
            std::make_pair(own[static_cast<size_t>(t)], own_expected[static_cast<size_t>(t)]),
            std::make_pair(shared, shared_expected)}) {
        PredictOutcome outcome;
        std::string error;
        if (session->Predict(request, &outcome, &error) != SessionStatus::kOk ||
            outcome.prediction.predicted != expected) {
          ++failures[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[static_cast<size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_EQ(session->plan_cache_size(), static_cast<size_t>(kThreads) + 1);
  const PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(3 * kThreads));
  EXPECT_GE(stats.misses, static_cast<uint64_t>(kThreads) + 1);
  EXPECT_EQ(stats.evictions, 0u);
}

// ---- SessionManager ----

TEST_F(TraceSessionTest, SessionManagerHandsOutStableHandles) {
  SessionManager manager;
  const std::string first = manager.Open(NewSession());
  const std::string second = manager.Open(NewSession());
  EXPECT_NE(first, second);
  EXPECT_EQ(manager.size(), 2u);
  EXPECT_NE(manager.Get(first), nullptr);
  EXPECT_NE(manager.Get(second), nullptr);
  EXPECT_EQ(manager.Get("nope"), nullptr);
  EXPECT_EQ(manager.Handles(), (std::vector<std::string>{first, second}));

  EXPECT_TRUE(manager.Close(first));
  EXPECT_FALSE(manager.Close(first));
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_EQ(manager.Get(first), nullptr);
}

TEST_F(TraceSessionTest, SessionManagerListsHandlesInInsertionOrder) {
  SessionManager manager;
  std::shared_ptr<TraceSession> session = NewSession();
  std::vector<std::string> opened;
  opened.reserve(11);
  for (int i = 0; i < 11; ++i) {
    opened.push_back(manager.Open(session));  // "s1" ... "s11"
  }
  // "s10"/"s11" must list after "s9" — insertion order, not lexicographic.
  EXPECT_EQ(manager.Handles(), opened);
}

TEST_F(TraceSessionTest, SessionManagerSurvivesConcurrentClients) {
  // M sessions opened/queried/closed from N threads; a session closed while
  // another thread holds its shared_ptr stays usable until released.
  SessionManager manager;
  std::shared_ptr<TraceSession> shared_session = NewSession();
  constexpr int kThreads = 6;
  constexpr int kSessionsPerThread = 4;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kSessionsPerThread; ++i) {
        const std::string handle = manager.Open(shared_session);
        std::shared_ptr<TraceSession> session = manager.Get(handle);
        if (session == nullptr) {
          ++failures[t];
          continue;
        }
        WhatIfRequest request;
        request.what_if = "amp";
        PredictOutcome outcome;
        std::string error;
        if (session->Predict(request, &outcome, &error) != SessionStatus::kOk) {
          ++failures[t];
        }
        if (!manager.Close(handle)) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  EXPECT_EQ(manager.size(), 0u);
}

// ---- SessionManager quotas ----

TEST_F(TraceSessionTest, SessionManagerEvictsTheLeastRecentlyUsedSession) {
  SessionManager manager(SessionManagerLimits{/*max_sessions=*/2, /*max_resident_bytes=*/0});
  std::shared_ptr<TraceSession> session = NewSession();
  const std::string first = manager.Open(session);
  const std::string second = manager.Open(session);
  // Touching the first makes the second the LRU candidate.
  EXPECT_NE(manager.Get(first), nullptr);
  const std::string third = manager.Open(session);
  EXPECT_EQ(manager.size(), 2u);
  EXPECT_EQ(manager.evicted(), 1u);
  EXPECT_EQ(manager.Get(second), nullptr);  // evicted handle is gone
  EXPECT_NE(manager.Get(first), nullptr);
  EXPECT_NE(manager.Get(third), nullptr);
}

TEST_F(TraceSessionTest, SessionManagerNeverEvictsTheSessionBeingOpened) {
  // max_sessions=1 forces every Open to evict — but the incoming session must
  // survive its own admission, so each Open replaces the previous one.
  SessionManager manager(SessionManagerLimits{/*max_sessions=*/1, /*max_resident_bytes=*/0});
  std::shared_ptr<TraceSession> session = NewSession();
  const std::string first = manager.Open(session);
  const std::string second = manager.Open(session);
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_EQ(manager.Get(first), nullptr);
  EXPECT_NE(manager.Get(second), nullptr);
  EXPECT_EQ(manager.evicted(), 1u);
}

TEST_F(TraceSessionTest, SessionManagerEnforcesTheResidentBytesQuota) {
  std::shared_ptr<TraceSession> session = NewSession();
  ASSERT_GT(session->resident_bytes(), 0u);
  // A quota that fits exactly one copy of this trace: opening a second evicts
  // the first, and a session alone over quota is never evicted (it is `keep`).
  SessionManager manager(
      SessionManagerLimits{/*max_sessions=*/0, /*max_resident_bytes=*/session->resident_bytes()});
  const std::string first = manager.Open(session);
  EXPECT_EQ(manager.resident_bytes(), session->resident_bytes());
  const std::string second = manager.Open(session);
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_EQ(manager.evicted(), 1u);
  EXPECT_EQ(manager.Get(first), nullptr);
  EXPECT_NE(manager.Get(second), nullptr);
  EXPECT_EQ(manager.resident_bytes(), session->resident_bytes());
}

TEST_F(TraceSessionTest, SessionManagerResidentBytesTracksOpenAndClose) {
  SessionManager manager;  // unlimited
  std::shared_ptr<TraceSession> session = NewSession();
  const std::string first = manager.Open(session);
  const std::string second = manager.Open(session);
  EXPECT_EQ(manager.resident_bytes(), 2 * session->resident_bytes());
  EXPECT_TRUE(manager.Close(first));
  EXPECT_EQ(manager.resident_bytes(), session->resident_bytes());
  EXPECT_TRUE(manager.Close(second));
  EXPECT_EQ(manager.resident_bytes(), 0u);
  EXPECT_EQ(manager.evicted(), 0u);  // Close is not eviction
}

}  // namespace
}  // namespace daydream
