/// The concurrency battery for the serving layer's single-flight
/// compression path (run plain and under ThreadSanitizer in CI):
///
///  - InflightRegistry units: leader/waiter roles, failure non-stickiness.
///  - A 16-way burst of identical compress requests runs the DP exactly
///    once (counted via the injectable compress hook; the leader is held
///    until all 15 waiters have actually joined, so dedup is deterministic,
///    not timing-dependent).
///  - Distinct-key bursts demonstrably overlap: every DP is held at one
///    barrier that only opens when all of them are in flight at once.
///  - A failed DP is shared with concurrent waiters but never poisons the
///    cache: later requests recompute, and a feasible request succeeds.
///  - Randomized differential suite: for seeded random forests/bounds, the
///    responses of a concurrently hammered service (mixed same-key and
///    distinct-key) are byte-identical to a serial service's output — down
///    to the serialized compressed polynomial sets.
///  - A 16-thread mixed load/compress/evaluate/invalidate stress with
///    generation bumps mid-flight (the EvaluateBatcher + ThreadPool
///    invalidation-race soak).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/valuation.h"
#include "io/serializer.h"
#include "server/artifact_store.h"
#include "server/inflight_registry.h"
#include "server/provenance_service.h"
#include "server/wire_protocol.h"
#include "workload/telephony.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

using Clock = std::chrono::steady_clock;
constexpr std::chrono::seconds kTimeout(30);

/// Blocks until `gauge()` reports `target`, yielding the (single, on CI)
/// CPU between polls; returns false on timeout instead of hanging the
/// suite.
template <typename Fn>
bool AwaitGauge(const Fn& gauge, uint64_t target) {
  auto deadline = Clock::now() + kTimeout;
  while (gauge() != target) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// All-or-timeout rendezvous: ArriveAndWait returns true only if all
/// `expected` participants were inside it simultaneously.
class Barrier {
 public:
  explicit Barrier(size_t expected) : expected_(expected) {}

  bool ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ >= expected_) {
      cv_.notify_all();
      return true;
    }
    return cv_.wait_until(lock, Clock::now() + kTimeout,
                          [&] { return arrived_ >= expected_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t arrived_ = 0;
  const size_t expected_;
};

// -------------------------------------------------- InflightRegistry ----

TEST(InflightRegistryTest, SoleCallerComputesAndIsNotDeduped) {
  InflightRegistry registry;
  auto value = std::make_shared<const int>(7);
  bool deduped = true;
  InflightRegistry::Outcome out = registry.DoOrWait(
      "k", [&] { return InflightRegistry::Outcome{Status::OK(), value}; },
      &deduped);
  EXPECT_FALSE(deduped);
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.value.get(), value.get());
  EXPECT_EQ(registry.stats().computations, 1u);
  EXPECT_EQ(registry.stats().dedup_hits, 0u);
  EXPECT_EQ(registry.KeysNow(), 0u);  // slot erased after publication
}

TEST(InflightRegistryTest, FailureIsNotSticky) {
  InflightRegistry registry;
  int runs = 0;
  auto fail = [&] {
    ++runs;
    return InflightRegistry::Outcome{Status::Internal("boom"), nullptr};
  };
  EXPECT_EQ(registry.DoOrWait("k", fail).status.code(),
            StatusCode::kInternal);
  // The failed slot is gone; a second call computes again.
  EXPECT_EQ(registry.DoOrWait("k", fail).status.code(),
            StatusCode::kInternal);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(registry.stats().computations, 2u);
  EXPECT_EQ(registry.stats().dedup_hits, 0u);
}

TEST(InflightRegistryTest, ConcurrentCallersShareOneComputation) {
  InflightRegistry registry;
  constexpr int kCallers = 8;
  std::atomic<int> runs{0};
  auto value = std::make_shared<const int>(42);
  std::vector<std::thread> threads;
  std::vector<InflightRegistry::Outcome> outcomes(kCallers);
  std::vector<char> dedup(kCallers, 0);
  for (int c = 0; c < kCallers; ++c) {
    threads.emplace_back([&, c] {
      bool deduped = false;
      outcomes[c] = registry.DoOrWait(
          "k",
          [&] {
            runs.fetch_add(1);
            // Hold the slot until every other caller has joined it, so
            // the dedup count below is exact rather than scheduling luck.
            EXPECT_TRUE(AwaitGauge([&] { return registry.WaitersNow(); },
                                   kCallers - 1));
            return InflightRegistry::Outcome{Status::OK(), value};
          },
          &deduped);
      dedup[c] = deduped ? 1 : 0;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(runs.load(), 1);
  int dedup_count = 0;
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_TRUE(outcomes[c].status.ok());
    EXPECT_EQ(outcomes[c].value.get(), value.get());
    dedup_count += dedup[c];
  }
  EXPECT_EQ(dedup_count, kCallers - 1);
  InflightRegistry::Stats stats = registry.stats();
  EXPECT_EQ(stats.computations, 1u);
  EXPECT_EQ(stats.dedup_hits, static_cast<uint64_t>(kCallers - 1));
  EXPECT_EQ(stats.peak_waiters, static_cast<uint64_t>(kCallers - 1));
  EXPECT_EQ(registry.WaitersNow(), 0u);
  EXPECT_EQ(registry.KeysNow(), 0u);
}

// ------------------------------------------- service-level single-flight --

/// Running-example service fixture with an injectable DP counter.
class SingleFlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RunningExample ex = MakeRunningExample(vars_);
    polys_ = RunRunningExampleQuery(ex);
    polys_bytes_ = SerializePolynomialSet(polys_, vars_);
    AbstractionForest plans;
    plans.AddTree(MakeFigure2PlansTree(vars_));
    plans_bytes_ = SerializeForest(plans, vars_);
  }

  /// Builds a service whose compress hook runs `hook` after bumping the
  /// DP-execution counter. The artifact carries the plans tree as forest
  /// "plans" and, for requests that need distinct DP states, as "plans0"
  /// through "plans<extra_forests - 1>".
  std::unique_ptr<ProvenanceService> MakeService(
      std::function<void(const ArtifactStore::ResultKey&)> hook = nullptr,
      int extra_forests = 0) {
    ServiceOptions options;
    options.eval_threads = 4;
    options.compress_hook = [this, hook](const ArtifactStore::ResultKey& k) {
      dp_runs_.fetch_add(1);
      if (hook) hook(k);
    };
    auto service = std::make_unique<ProvenanceService>(options);
    LoadRequest load;
    load.artifact = "ex";
    load.polys_bytes = polys_bytes_;
    load.forests = {{"plans", plans_bytes_}};
    for (int f = 0; f < extra_forests; ++f) {
      load.forests.emplace_back("plans" + std::to_string(f), plans_bytes_);
    }
    Response resp = service->Load(load);
    EXPECT_TRUE(resp.ok()) << resp.message;
    return service;
  }

  CompressRequest Request(uint64_t bound, const std::string& algo = "opt") {
    CompressRequest req;
    req.artifact = "ex";
    req.forest = "plans";
    req.algo = algo;
    req.bound = bound;
    return req;
  }

  VariableTable vars_;
  PolynomialSet polys_;
  std::string polys_bytes_;
  std::string plans_bytes_;
  std::atomic<uint64_t> dp_runs_{0};
  /// Set by tests whose hook needs the service's own registry gauges (the
  /// hook closure is built before the service exists).
  ProvenanceService* service_ = nullptr;
};

TEST_F(SingleFlightTest, SameKeyBurstRunsDpExactlyOnce) {
  constexpr int kBurst = 16;
  // The leader parks inside the DP hook until all 15 other requests are
  // blocked on its shared_future — every non-leader is then provably a
  // dedup waiter, not a lucky cache hit.
  auto service = MakeService([&](const ArtifactStore::ResultKey&) {
    EXPECT_TRUE(AwaitGauge(
        [&] { return service_->store().inflight().WaitersNow(); },
        kBurst - 1));
  });
  service_ = service.get();

  const uint64_t bound = polys_.SizeM() - 1;
  std::vector<Response> responses(kBurst);
  std::vector<std::thread> threads;
  for (int c = 0; c < kBurst; ++c) {
    threads.emplace_back(
        [&, c] { responses[c] = service->Compress(Request(bound)); });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(dp_runs_.load(), 1u);
  int leaders = 0;
  int dedup_hits = 0;
  for (const Response& resp : responses) {
    ASSERT_TRUE(resp.ok()) << resp.message;
    if (resp.dedup_hit) {
      ++dedup_hits;
    } else {
      EXPECT_FALSE(resp.cache_hit);
      ++leaders;
    }
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_EQ(dedup_hits, kBurst - 1);

  // Every response carries the result of the single DP run, and that
  // result is identical to a serial service's answer.
  ProvenanceService serial;
  LoadRequest load;
  load.artifact = "ex";
  load.polys_bytes = polys_bytes_;
  load.forests = {{"plans", plans_bytes_}};
  ASSERT_TRUE(serial.Load(load).ok());
  Response expected = serial.Compress(Request(bound));
  ASSERT_TRUE(expected.ok());
  for (const Response& resp : responses) {
    EXPECT_EQ(resp.monomial_loss, expected.monomial_loss);
    EXPECT_EQ(resp.variable_loss, expected.variable_loss);
    EXPECT_EQ(resp.adequate, expected.adequate);
    EXPECT_EQ(resp.vvs, expected.vvs);
    EXPECT_EQ(resp.compressed_monomials, expected.compressed_monomials);
  }

  // The cumulative counters surfaced on the wire agree: one more identical
  // request is now a plain cache hit on a fully drained registry.
  Response after = service->Compress(Request(bound));
  EXPECT_TRUE(after.cache_hit);
  EXPECT_FALSE(after.dedup_hit);
  EXPECT_EQ(after.stats.dedup_hits, static_cast<uint64_t>(kBurst - 1));
  EXPECT_EQ(after.stats.inflight_waiters, 0u);
  EXPECT_EQ(dp_runs_.load(), 1u);
}

TEST_F(SingleFlightTest, DistinctKeyBurstsOverlap) {
  // Eight requests on eight distinct forests (eight distinct DP states, so
  // eight DPs; distinct bounds on one forest would share one state). Each
  // DP blocks at a shared barrier that only opens once ALL eight are
  // inside their DP simultaneously — if compression were serialized by a
  // service-wide lock, at most one DP could be in flight and the barrier
  // would time out.
  constexpr int kDistinct = 8;
  Barrier barrier(kDistinct);
  std::atomic<int> overlapped{0};
  auto service = MakeService(
      [&](const ArtifactStore::ResultKey&) {
        if (barrier.ArriveAndWait()) overlapped.fetch_add(1);
      },
      kDistinct);

  const uint64_t bound = polys_.SizeM() - 1;
  std::vector<Response> responses(kDistinct);
  std::vector<std::thread> threads;
  for (int c = 0; c < kDistinct; ++c) {
    threads.emplace_back([&, c] {
      CompressRequest req = Request(bound);
      req.forest = "plans" + std::to_string(c);
      responses[c] = service->Compress(req);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(overlapped.load(), kDistinct);
  EXPECT_EQ(dp_runs_.load(), static_cast<uint64_t>(kDistinct));
  for (const Response& resp : responses) {
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_FALSE(resp.cache_hit);
    EXPECT_FALSE(resp.dedup_hit);
  }
}

TEST_F(SingleFlightTest, FailedDpSharedWithWaitersButNeverCached) {
  constexpr int kBurst = 8;
  std::atomic<bool> burst_active{true};
  auto service = MakeService([&](const ArtifactStore::ResultKey&) {
    // Only the concurrent burst holds its leader; the sequential requests
    // after the join run straight through.
    if (!burst_active.load()) return;
    EXPECT_TRUE(AwaitGauge(
        [&] { return service_->store().inflight().WaitersNow(); },
        kBurst - 1));
  });
  service_ = service.get();

  // Bound 1 is infeasible for the running example (see server_test.cc).
  std::vector<Response> responses(kBurst);
  std::vector<std::thread> threads;
  for (int c = 0; c < kBurst; ++c) {
    threads.emplace_back(
        [&, c] { responses[c] = service->Compress(Request(1)); });
  }
  for (auto& t : threads) t.join();
  burst_active.store(false);

  // One DP ran; the failure was shared with all concurrent waiters.
  EXPECT_EQ(dp_runs_.load(), 1u);
  for (const Response& resp : responses) {
    EXPECT_EQ(resp.code, StatusCode::kInfeasible);
  }

  // Non-poisoning, part 1: the failure was never published to the cache.
  // The repeat derives kInfeasible again by re-querying the generation's
  // cached DP state, so no second DP runs.
  Response repeat = service->Compress(Request(1));
  EXPECT_EQ(repeat.code, StatusCode::kInfeasible);
  EXPECT_FALSE(repeat.cache_hit);
  EXPECT_EQ(dp_runs_.load(), 1u);
  Response stats_probe = service->Info(InfoRequest{});
  EXPECT_EQ(stats_probe.stats.result_count, 0u);

  // Non-poisoning, part 2: a feasible request on the same artifact works.
  Response good = service->Compress(Request(polys_.SizeM() - 1));
  ASSERT_TRUE(good.ok()) << good.message;
  EXPECT_FALSE(good.cache_hit);
}

// ------------------------------------------- randomized differential ----

/// Small seeded telephony instance (not the 2-polynomial running example:
/// randomized forests need a real leaf population).
struct RandomWorkload {
  std::shared_ptr<VariableTable> vars;
  PolynomialSet polys;
  std::string polys_bytes;
  std::vector<std::pair<std::string, std::string>> forests;
  std::vector<VariableId> month_vars;
};

RandomWorkload MakeRandomWorkload(uint64_t seed) {
  RandomWorkload w;
  w.vars = std::make_shared<VariableTable>();
  TelephonyConfig config;
  config.num_customers = 120;
  config.num_plans = 32;
  config.num_months = 6;
  config.num_zip_codes = 12;
  config.seed = seed;
  Rng rng(seed);
  Database db = GenerateTelephony(config, rng);
  TelephonyVars tv = MakeTelephonyVars(*w.vars, config);
  w.polys = RunTelephonyQuery(db, tv);
  w.polys_bytes = SerializePolynomialSet(w.polys, *w.vars);
  w.month_vars = tv.month_vars;

  // Seeded random forests: uniform trees over the plan leaves with
  // random fan-out shapes.
  const std::vector<std::vector<uint32_t>> shapes = {
      {2}, {4}, {8}, {2, 2}, {4, 4}, {2, 8}};
  for (int f = 0; f < 3; ++f) {
    AbstractionForest forest;
    const auto& shape = shapes[rng.Uniform(shapes.size())];
    forest.AddTree(BuildUniformTree(*w.vars, tv.plan_vars, shape,
                                    "R" + std::to_string(f) + "_"));
    w.forests.emplace_back("f" + std::to_string(f),
                           SerializeForest(forest, *w.vars));
  }
  return w;
}

TEST(ServerConcurrencyDifferentialTest, ConcurrentMatchesSerialByteForByte) {
  const RandomWorkload w = MakeRandomWorkload(/*seed=*/20260730);

  // A seeded pool of request keys, mixing forests, algorithms, and bounds
  // (some repeated → same-key collisions, some unique → distinct-key
  // parallelism; a few infeasibly small → shared failures).
  Rng rng(7);
  struct Key {
    std::string forest;
    std::string algo;
    uint64_t bound;
  };
  std::vector<Key> keys;
  const uint64_t size_m = w.polys.SizeM();
  for (int i = 0; i < 10; ++i) {
    keys.push_back(Key{"f" + std::to_string(rng.Uniform(3)),
                       rng.Bernoulli(0.5) ? "opt" : "greedy",
                       rng.Bernoulli(0.2)
                           ? rng.Uniform(3)  // likely infeasible
                           : size_m / 2 + rng.Uniform(size_m / 2)});
  }

  auto load = [&](ProvenanceService& service) {
    LoadRequest req;
    req.artifact = "rnd";
    req.polys_bytes = w.polys_bytes;
    req.forests = w.forests;
    Response resp = service.Load(req);
    ASSERT_TRUE(resp.ok()) << resp.message;
  };
  auto request = [&](const Key& k) {
    CompressRequest req;
    req.artifact = "rnd";
    req.forest = k.forest;
    req.algo = k.algo;
    req.bound = k.bound;
    return req;
  };

  // Serial reference: one thread, each key once.
  ProvenanceService serial;
  load(serial);
  std::vector<Response> expected;
  for (const Key& k : keys) expected.push_back(serial.Compress(request(k)));

  // Concurrent run: 8 threads × 3 rounds over the same key pool, shifted
  // per thread so every moment mixes same-key and distinct-key traffic.
  ProvenanceService concurrent;
  load(concurrent);
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<std::vector<Response>> responses(
      kThreads, std::vector<Response>(kRounds * keys.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < keys.size(); ++i) {
          const Key& k = keys[(i + t) % keys.size()];
          responses[t][r * keys.size() + i] =
              concurrent.Compress(request(k));
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every concurrent response matches the serial response for its key.
  std::map<std::string, const Response*> by_key;
  for (size_t i = 0; i < keys.size(); ++i) {
    by_key[keys[i].forest + "|" + keys[i].algo + "|" +
           std::to_string(keys[i].bound)] = &expected[i];
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) {
      for (size_t i = 0; i < keys.size(); ++i) {
        const Key& k = keys[(i + t) % keys.size()];
        const Response& got = responses[t][r * keys.size() + i];
        const Response& want =
            *by_key[k.forest + "|" + k.algo + "|" + std::to_string(k.bound)];
        EXPECT_EQ(got.code, want.code);
        EXPECT_EQ(got.monomial_loss, want.monomial_loss);
        EXPECT_EQ(got.variable_loss, want.variable_loss);
        EXPECT_EQ(got.adequate, want.adequate);
        EXPECT_EQ(got.vvs, want.vvs);
        EXPECT_EQ(got.compressed_monomials, want.compressed_monomials);
      }
    }
  }

  // Byte-identical: for every successful key, the compressed polynomial
  // set cached by the concurrent service serializes to exactly the bytes
  // the serial service produced. A compress builds no view, so a
  // compressed Evaluate on each service builds it first (concurrently on
  // the concurrent one).
  auto build_view = [&](ProvenanceService& service, const Key& k) {
    EvaluateRequest req;
    req.artifact = "rnd";
    req.compressed = true;
    req.forest = k.forest;
    req.algo = k.algo;
    req.bound = k.bound;
    return service.Evaluate(req);
  };
  std::vector<std::thread> view_threads;
  for (int t = 0; t < kThreads; ++t) {
    view_threads.emplace_back([&, t] {
      for (size_t i = 0; i < keys.size(); ++i) {
        const size_t k = (i + t) % keys.size();
        if (!expected[k].ok()) continue;
        Response resp = build_view(concurrent, keys[k]);
        EXPECT_TRUE(resp.ok()) << resp.message;
      }
    });
  }
  for (auto& t : view_threads) t.join();
  auto artifact_of = [](ProvenanceService& s) {
    return s.store().Get("rnd");
  };
  auto serial_artifact = artifact_of(serial);
  auto concurrent_artifact = artifact_of(concurrent);
  ASSERT_NE(serial_artifact, nullptr);
  ASSERT_NE(concurrent_artifact, nullptr);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!expected[i].ok()) continue;
    Response serial_view = build_view(serial, keys[i]);
    ASSERT_TRUE(serial_view.ok()) << serial_view.message;
    ArtifactStore::ResultKey rk{"rnd", serial_artifact->generation,
                                keys[i].forest, keys[i].bound,
                                keys[i].algo};
    auto serial_result = serial.store().LookupResult(rk);
    rk.generation = concurrent_artifact->generation;
    auto concurrent_result = concurrent.store().LookupResult(rk);
    ASSERT_NE(serial_result, nullptr) << "key " << i;
    ASSERT_NE(concurrent_result, nullptr) << "key " << i;
    ASSERT_TRUE(serial_result->view_built) << "key " << i;
    ASSERT_TRUE(concurrent_result->view_built) << "key " << i;
    EXPECT_GT(serial_result->compressed.count(), 0u) << "key " << i;
    EXPECT_EQ(concurrent_result->compressed.SizeM(),
              expected[i].compressed_monomials)
        << "key " << i;
    EXPECT_EQ(SerializePolynomialSet(concurrent_result->compressed,
                                     *concurrent_artifact->vars),
              SerializePolynomialSet(serial_result->compressed,
                                     *serial_artifact->vars))
        << "key " << i;
  }

  // Concurrent evaluations under seeded valuations are exact too (the
  // batcher splits work but never changes per-polynomial arithmetic).
  std::vector<Response> eval_responses(kThreads);
  std::vector<std::thread> eval_threads;
  for (int t = 0; t < kThreads; ++t) {
    eval_threads.emplace_back([&, t] {
      EvaluateRequest req;
      req.artifact = "rnd";
      req.assignments = {{"m1", 0.25 * t}, {"m3", 1.5}};
      eval_responses[t] = concurrent.Evaluate(req);
    });
  }
  for (auto& t : eval_threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(eval_responses[t].ok()) << eval_responses[t].message;
    Valuation val;
    val.Set(w.vars->Find("m1"), 0.25 * t);
    val.Set(w.vars->Find("m3"), 1.5);
    std::vector<double> want = val.EvaluateAll(w.polys);
    ASSERT_EQ(eval_responses[t].values.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_DOUBLE_EQ(eval_responses[t].values[i], want[i]) << "thread "
                                                             << t;
    }
  }
}

// ------------------------------------------------- mixed-load stress ----

TEST(ServerConcurrencyStressTest, MixedLoadCompressEvaluateInvalidate) {
  // 16 threads hammer one service with a seeded mix of compress (varying
  // bounds/algos), raw and compressed evaluates, info probes, and — from
  // the two "producer" threads — artifact reloads that bump the generation
  // mid-flight and invalidate every cached result under the other threads'
  // feet. The assertions are about invariants, not timing: every response
  // is either OK or one of the statuses the request could legitimately
  // earn, and the service is still coherent afterwards.
  const RandomWorkload w = MakeRandomWorkload(/*seed=*/99);
  ServiceOptions options;
  options.eval_threads = 4;
  options.cache_bytes = size_t{4} << 20;
  ProvenanceService service(options);
  {
    LoadRequest req;
    req.artifact = "soak";
    req.polys_bytes = w.polys_bytes;
    req.forests = w.forests;
    ASSERT_TRUE(service.Load(req).ok());
  }

  constexpr int kThreads = 16;
  constexpr int kOpsPerThread = 40;
  const uint64_t size_m = w.polys.SizeM();
  std::atomic<int> violations{0};
  std::mutex violations_mutex;
  std::vector<std::string> violation_messages;
  auto violation = [&](const Response& resp) {
    violations.fetch_add(1);
    std::lock_guard<std::mutex> lock(violations_mutex);
    violation_messages.push_back(resp.ToStatus().ToString());
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        Response resp;
        switch (t < 2 && op % 10 == 9 ? 3 : rng.Uniform(3)) {
          case 0: {  // compress, sometimes infeasible
            CompressRequest req;
            req.artifact = "soak";
            req.forest = "f" + std::to_string(rng.Uniform(3));
            req.algo = rng.Bernoulli(0.5) ? "opt" : "greedy";
            req.bound = rng.Bernoulli(0.15)
                            ? 1 + rng.Uniform(2)  // infeasibly small
                            : size_m / 2 + rng.Uniform(size_m / 2);
            resp = service.Compress(req);
            if (!resp.ok() && resp.code != StatusCode::kInfeasible) {
              violation(resp);
            }
            break;
          }
          case 1: {  // evaluate, raw or over a compressed view
            EvaluateRequest req;
            req.artifact = "soak";
            // Month variables survive every plans-forest compression.
            req.assignments = {{"m1", rng.NextDouble()}};
            if (rng.Bernoulli(0.5)) {
              req.compressed = true;
              req.forest = "f" + std::to_string(rng.Uniform(3));
              req.algo = "opt";
              req.bound = size_m / 2 + rng.Uniform(size_m / 2);
            }
            resp = service.Evaluate(req);
            if (!resp.ok() && resp.code != StatusCode::kInfeasible) {
              violation(resp);
            }
            break;
          }
          case 2: {  // info probe (exercises stats under load)
            InfoRequest req;
            req.artifact = "soak";
            resp = service.Info(req);
            if (!resp.ok()) violation(resp);
            break;
          }
          default: {  // reload: generation bump invalidates results
            LoadRequest req;
            req.artifact = "soak";
            req.polys_bytes = w.polys_bytes;
            req.forests = w.forests;
            resp = service.Load(req);
            if (!resp.ok()) violation(resp);
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
  for (const std::string& msg : violation_messages) {
    ADD_FAILURE() << "unexpected response: " << msg;
  }

  // The service is still coherent: the registry drained, stats are sane,
  // and a fresh compress against the final generation succeeds.
  EXPECT_EQ(service.store().inflight().WaitersNow(), 0u);
  EXPECT_EQ(service.store().inflight().KeysNow(), 0u);
  Response info = service.Info(InfoRequest{"soak"});
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.poly_count, w.polys.count());
  CompressRequest final_req;
  final_req.artifact = "soak";
  final_req.forest = "f0";
  final_req.algo = "opt";
  final_req.bound = size_m - 1;
  Response final_resp = service.Compress(final_req);
  ASSERT_TRUE(final_resp.ok()) << final_resp.message;
}

}  // namespace
}  // namespace provabs
