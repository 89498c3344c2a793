#include "server/provenance_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "abstraction/abstraction_forest.h"
#include "algo/optimal_single_tree.h"
#include "algo/tradeoff_curve.h"
#include "core/evaluation_backend.h"
#include "core/valuation.h"
#include "io/serializer.h"
#include "jit/code_cache.h"
#include "scenario/program.h"
#include "server/artifact_store.h"
#include "server/evaluate_batcher.h"
#include "server/wire_protocol.h"
#include "workload/telephony.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

/// Serialized running-example buffers shared by the store/service tests:
/// the paper's P1/P2 polynomials, the Figure 2 plans tree and the Figure 3
/// months tree (label-disjoint, so they can coexist in one artifact).
class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    RunningExample ex = MakeRunningExample(vars_);
    polys_ = RunRunningExampleQuery(ex);
    polys_bytes_ = SerializePolynomialSet(polys_, vars_);
    AbstractionForest plans;
    plans.AddTree(MakeFigure2PlansTree(vars_));
    plans_bytes_ = SerializeForest(plans, vars_);
    AbstractionForest months;
    months.AddTree(MakeFigure3MonthsTree(vars_));
    months_bytes_ = SerializeForest(months, vars_);
  }

  VariableTable vars_;
  PolynomialSet polys_;
  std::string polys_bytes_;
  std::string plans_bytes_;
  std::string months_bytes_;
};

// ------------------------------------------------------- ArtifactStore --

using StoreTest = ServerFixture;

TEST_F(StoreTest, LoadAndGet) {
  ArtifactStore store(1 << 20);
  auto loaded = store.Load("ex", polys_bytes_, {{"plans", plans_bytes_}});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->polys.count(), polys_.count());
  EXPECT_EQ((*loaded)->polys.SizeM(), polys_.SizeM());
  EXPECT_NE((*loaded)->FindForest("plans"), nullptr);
  EXPECT_EQ((*loaded)->FindForest("nope"), nullptr);

  auto got = store.Get("ex");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->generation, (*loaded)->generation);
  EXPECT_EQ(store.Get("missing"), nullptr);
}

TEST_F(StoreTest, LoadRejectsMalformedBytes) {
  ArtifactStore store(1 << 20);
  EXPECT_FALSE(store.Load("bad", "garbage", {}).ok());
  // A forest buffer in the polynomial slot is an artifact-kind error.
  EXPECT_FALSE(store.Load("bad", plans_bytes_, {}).ok());
  EXPECT_FALSE(store.Load("bad", polys_bytes_, {{"f", "junk"}}).ok());
}

TEST_F(StoreTest, ForestOnlyLoadMergesAndBumpsGeneration) {
  ArtifactStore store(1 << 20);
  auto first = store.Load("ex", polys_bytes_, {{"plans", plans_bytes_}});
  ASSERT_TRUE(first.ok());
  uint64_t gen1 = (*first)->generation;

  auto second = store.Load("ex", "", {{"months", months_bytes_}});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT((*second)->generation, gen1);
  EXPECT_NE((*second)->FindForest("plans"), nullptr);
  EXPECT_NE((*second)->FindForest("months"), nullptr);
  EXPECT_EQ((*second)->polys.SizeM(), polys_.SizeM());

  // Forest-only load without a prior artifact is an error.
  EXPECT_EQ(store.Load("fresh", "", {{"months", months_bytes_}})
                .status()
                .code(),
            StatusCode::kNotFound);

  // The forest-only load re-serialized "plans" from the artifact. A
  // compress over it is field-identical to one over a fresh load of the
  // same bytes, and so is one over the newly loaded "months".
  auto fresh = store.Load("fresh", polys_bytes_,
                          {{"plans", plans_bytes_}, {"months", months_bytes_}});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  for (const std::string name : {"plans", "months"}) {
    const AbstractionForest* rebuilt = (*second)->FindForest(name);
    const AbstractionForest* loaded = (*fresh)->FindForest(name);
    ASSERT_NE(rebuilt, nullptr);
    ASSERT_NE(loaded, nullptr);
    for (size_t bound = polys_.SizeM(); bound > 0; --bound) {
      SCOPED_TRACE(name + " bound " + std::to_string(bound));
      auto a = OptimalSingleTree((*second)->polys, *rebuilt, 0, bound);
      auto b = OptimalSingleTree((*fresh)->polys, *loaded, 0, bound);
      ASSERT_EQ(a.status().code(), b.status().code());
      if (!a.ok()) continue;
      EXPECT_EQ(a->loss.monomial_loss, b->loss.monomial_loss);
      EXPECT_EQ(a->loss.variable_loss, b->loss.variable_loss);
      EXPECT_EQ(a->adequate, b->adequate);
      EXPECT_EQ(a->Describe(*rebuilt, *(*second)->vars),
                b->Describe(*loaded, *(*fresh)->vars));
      EXPECT_EQ(SerializePolynomialSet(a->Apply(*rebuilt, (*second)->polys),
                                       *(*second)->vars),
                SerializePolynomialSet(b->Apply(*loaded, (*fresh)->polys),
                                       *(*fresh)->vars));
    }
  }
}

TEST_F(StoreTest, ResultCacheCountsHitsAndMisses) {
  ArtifactStore store(1 << 20);
  ArtifactStore::ResultKey key{"ex", 1, "plans", 10, "opt"};
  EXPECT_EQ(store.LookupResult(key), nullptr);
  EXPECT_EQ(store.stats().result_misses, 1u);

  ArtifactStore::CompressedResult result;
  result.loss.monomial_loss = 3;
  result.vvs_names = "{Plans}";
  store.InsertResult(key, result);
  auto hit = store.LookupResult(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->loss.monomial_loss, 3u);
  EXPECT_EQ(hit->vvs_names, "{Plans}");
  EXPECT_EQ(store.stats().result_hits, 1u);

  // A different bound (or generation) is a different entry.
  ArtifactStore::ResultKey other = key;
  other.bound = 11;
  EXPECT_EQ(store.LookupResult(other), nullptr);
  other = key;
  other.generation = 2;
  EXPECT_EQ(store.LookupResult(other), nullptr);
  EXPECT_EQ(store.stats().result_misses, 3u);
}

TEST_F(StoreTest, LruEvictsUnderByteBudget) {
  // Budget fits roughly one artifact: loading a second evicts the first.
  ArtifactStore tiny(ApproxPolynomialSetBytes(polys_) + polys_bytes_.size());
  ASSERT_TRUE(tiny.Load("a", polys_bytes_, {}).ok());
  ASSERT_TRUE(tiny.Load("b", polys_bytes_, {}).ok());
  EXPECT_GT(tiny.stats().evictions, 0u);
  EXPECT_EQ(tiny.Get("a"), nullptr);
  // The most recently used entry always survives, even over budget.
  EXPECT_NE(tiny.Get("b"), nullptr);
}

TEST_F(StoreTest, ManyArtifactsAllStayVisible) {
  // Sixteen loads well under the budget: all visible, stats count each.
  ArtifactStore store(64 << 20);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        store.Load("art" + std::to_string(i), polys_bytes_, {}).ok());
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_NE(store.Get("art" + std::to_string(i)), nullptr) << i;
  }
  ArtifactStore::Stats stats = store.stats();
  EXPECT_EQ(stats.artifact_count, 16u);
  EXPECT_GT(stats.cached_bytes, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST_F(StoreTest, GetOrComputePublishesOnlyCompletedResults) {
  ArtifactStore store(1 << 20);
  ArtifactStore::ResultKey key{"ex", 1, "plans", 10, "opt"};

  // A failing compute returns its Status and leaves the cache untouched.
  int runs = 0;
  auto failing = [&]() -> StatusOr<ArtifactStore::CompressedResult> {
    ++runs;
    return Status::Infeasible("no adequate VVS");
  };
  ArtifactStore::GetOrComputeInfo info;
  auto failed = store.GetOrCompute(key, failing, &info);
  EXPECT_EQ(failed.status().code(), StatusCode::kInfeasible);
  EXPECT_FALSE(info.cache_hit);
  EXPECT_FALSE(info.dedup_hit);
  EXPECT_EQ(store.stats().result_count, 0u);

  // Not poisoned: the next call recomputes, succeeds, and caches.
  auto succeeding = [&]() -> StatusOr<ArtifactStore::CompressedResult> {
    ++runs;
    ArtifactStore::CompressedResult result;
    result.loss.monomial_loss = 5;
    result.vvs_names = "{Plans}";
    return result;
  };
  auto ok = store.GetOrCompute(key, succeeding, &info);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ((*ok)->loss.monomial_loss, 5u);
  EXPECT_FALSE(info.cache_hit);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(store.stats().result_count, 1u);

  // A third call is a pure cache hit; the compute fn never runs.
  auto hit = store.GetOrCompute(key, failing, &info);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(info.cache_hit);
  EXPECT_EQ((*hit)->loss.monomial_loss, 5u);
  EXPECT_EQ(runs, 2);
}

TEST_F(StoreTest, DerivedInsertsNeverEvictTheLoadedArtifact) {
  ArtifactStore probe(1 << 20);
  auto probed = probe.Load("ex", polys_bytes_, {{"plans", plans_bytes_}});
  ASSERT_TRUE(probed.ok());
  const size_t artifact_bytes = (*probed)->approx_bytes;

  // Room for the artifact beside about 28 results of a quarter of its
  // size. The 64 results overflow the budget, and each Get makes the
  // artifact the most recent entry again, so inserts evict only results. A
  // budget split into eight slices would give the artifact's slice exactly
  // its size, and the first result landing there would evict it.
  ArtifactStore store(8 * artifact_bytes);
  auto loaded = store.Load("ex", polys_bytes_, {{"plans", plans_bytes_}});
  ASSERT_TRUE(loaded.ok());
  for (uint64_t bound = 1; bound <= 64; ++bound) {
    ArtifactStore::CompressedResult result;
    result.vvs_names.assign(artifact_bytes / 4, 'x');
    store.InsertResult({"ex", (*loaded)->generation, "plans", bound, "opt"},
                       result);
    ASSERT_NE(store.Get("ex"), nullptr) << "evicted by result " << bound;
  }
  EXPECT_GT(store.stats().evictions, 0u);
  EXPECT_LE(store.stats().cached_bytes, 8 * artifact_bytes);
}

TEST_F(StoreTest, BudgetSmallerThanOneArtifactStillServesIt) {
  ArtifactStore store(1);
  ASSERT_TRUE(store.Load("only", polys_bytes_, {}).ok());
  EXPECT_NE(store.Get("only"), nullptr);
}

// ----------------------------------------------------- EvaluateBatcher --

using BatcherTest = ServerFixture;

TEST_F(BatcherTest, MatchesSerialEvaluation) {
  ThreadPool pool(4);
  EvaluateBatcher batcher(pool);
  Valuation val;
  val.Set(vars_.Find("m1"), 0.5);
  val.Set(vars_.Find("b1"), 0.25);
  auto shared = std::make_shared<PolynomialSet>(polys_);
  StatusOr<std::vector<double>> batched_or = batcher.Evaluate(shared, val);
  ASSERT_TRUE(batched_or.ok()) << batched_or.status().ToString();
  std::vector<double> batched = std::move(*batched_or);
  std::vector<double> serial = val.EvaluateAll(polys_);
  ASSERT_EQ(batched.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(batched[i], serial[i]);
  }
}

TEST_F(BatcherTest, ConcurrentCallersAllGetTheirOwnAnswers) {
  ThreadPool pool(4);
  EvaluateBatcher batcher(pool);
  auto shared = std::make_shared<PolynomialSet>(polys_);
  constexpr int kCallers = 16;
  std::vector<std::vector<double>> results(kCallers);
  std::vector<std::thread> threads;
  for (int c = 0; c < kCallers; ++c) {
    threads.emplace_back([&, c] {
      Valuation val;
      val.Set(vars_.Find("m1"), 0.1 * c);
      StatusOr<std::vector<double>> got = batcher.Evaluate(shared, val);
      if (got.ok()) results[c] = std::move(*got);
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kCallers; ++c) {
    Valuation val;
    val.Set(vars_.Find("m1"), 0.1 * c);
    std::vector<double> expected = val.EvaluateAll(polys_);
    ASSERT_EQ(results[c].size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(results[c][i], expected[i]) << "caller " << c;
    }
  }
  EvaluateBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kCallers));
  EXPECT_EQ(stats.calls, static_cast<uint64_t>(kCallers));
}

TEST_F(BatcherTest, ReusesPoolAcrossManyRounds) {
  // One pool must survive many evaluation calls (the server's steady
  // state) without wedging or leaking work.
  ThreadPool pool(2);
  EvaluateBatcher batcher(pool);
  auto shared = std::make_shared<PolynomialSet>(polys_);
  for (int round = 0; round < 50; ++round) {
    Valuation val;
    val.Set(vars_.Find("m3"), 0.01 * round);
    StatusOr<std::vector<double>> got = batcher.Evaluate(shared, val);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), polys_.count());
  }
  EXPECT_EQ(batcher.stats().requests, 50u);
}

// -------------------------------------------------- ProvenanceService --

class ServiceTest : public ServerFixture {
 protected:
  void SetUp() override {
    ServerFixture::SetUp();
    service_ = std::make_unique<ProvenanceService>(ServiceOptions{});
    LoadRequest load;
    load.artifact = "ex";
    load.polys_bytes = polys_bytes_;
    load.forests = {{"plans", plans_bytes_}};
    Response resp = service_->Load(load);
    ASSERT_TRUE(resp.ok()) << resp.message;
    ASSERT_EQ(resp.poly_count, polys_.count());
  }

  std::unique_ptr<ProvenanceService> service_;
};

TEST_F(ServiceTest, CompressThenCacheHit) {
  CompressRequest req;
  req.artifact = "ex";
  req.forest = "plans";
  req.algo = "opt";
  req.bound = polys_.SizeM() - 1;
  Response first = service_->Compress(req);
  ASSERT_TRUE(first.ok()) << first.message;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(first.adequate);
  EXPECT_GT(first.vvs.size(), 0u);

  Response second = service_->Compress(req);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.monomial_loss, first.monomial_loss);
  EXPECT_EQ(second.variable_loss, first.variable_loss);
  EXPECT_EQ(second.vvs, first.vvs);
  EXPECT_EQ(second.stats.result_hits, 1u);
  EXPECT_EQ(second.stats.result_misses, 1u);
}

TEST_F(ServiceTest, ReloadInvalidatesResultCache) {
  CompressRequest req;
  req.artifact = "ex";
  req.forest = "plans";
  req.bound = polys_.SizeM() - 1;
  ASSERT_FALSE(service_->Compress(req).cache_hit);
  ASSERT_TRUE(service_->Compress(req).cache_hit);

  LoadRequest reload;
  reload.artifact = "ex";
  reload.polys_bytes = polys_bytes_;
  reload.forests = {{"plans", plans_bytes_}};
  ASSERT_TRUE(service_->Load(reload).ok());

  // Same request, fresh generation: the DP must run again.
  EXPECT_FALSE(service_->Compress(req).cache_hit);
}

TEST_F(ServiceTest, EvaluateRawAndCompressed) {
  EvaluateRequest req;
  req.artifact = "ex";
  req.assignments = {{"m1", 0.5}, {"b1", 0.0}};
  Response raw = service_->Evaluate(req);
  ASSERT_TRUE(raw.ok()) << raw.message;

  Valuation val;
  val.Set(vars_.Find("m1"), 0.5);
  val.Set(vars_.Find("b1"), 0.0);
  std::vector<double> expected = val.EvaluateAll(polys_);
  ASSERT_EQ(raw.values.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(raw.values[i], expected[i]);
  }

  req.compressed = true;
  req.forest = "plans";
  req.algo = "opt";
  req.bound = polys_.SizeM() - 1;
  // b1 was merged into a meta-variable by the compression; assigning it
  // would silently change nothing, so the compressed view rejects it.
  Response rejected = service_->Evaluate(req);
  EXPECT_EQ(rejected.code, StatusCode::kNotFound);
  EXPECT_EQ(rejected.message,
            "variable 'b1' does not occur in the compressed view (set its "
            "surviving meta-variable instead)");

  // Month variables are outside the plans forest and survive compression.
  req.assignments = {{"m1", 0.5}};
  Response compressed = service_->Evaluate(req);
  ASSERT_TRUE(compressed.ok()) << compressed.message;
  EXPECT_EQ(compressed.values.size(), polys_.count());
  // The evaluate populated the compression cache; a repeat is a hit.
  Response again = service_->Evaluate(req);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.cache_hit);
  ASSERT_EQ(again.values.size(), compressed.values.size());
  for (size_t i = 0; i < compressed.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(again.values[i], compressed.values[i]);
  }
}

TEST_F(ServiceTest, ErrorsCarryStatusCodes) {
  CompressRequest missing;
  missing.artifact = "nope";
  missing.bound = 10;
  EXPECT_EQ(service_->Compress(missing).code, StatusCode::kNotFound);

  CompressRequest bad_forest;
  bad_forest.artifact = "ex";
  bad_forest.forest = "nope";
  bad_forest.bound = 10;
  EXPECT_EQ(service_->Compress(bad_forest).code, StatusCode::kNotFound);

  CompressRequest bad_algo;
  bad_algo.artifact = "ex";
  bad_algo.forest = "plans";
  bad_algo.algo = "quantum";
  bad_algo.bound = 10;
  EXPECT_EQ(service_->Compress(bad_algo).code, StatusCode::kInvalidArgument);

  CompressRequest infeasible;
  infeasible.artifact = "ex";
  infeasible.forest = "plans";
  infeasible.bound = 1;
  EXPECT_EQ(service_->Compress(infeasible).code, StatusCode::kInfeasible);

  EvaluateRequest bad_var;
  bad_var.artifact = "ex";
  bad_var.assignments = {{"no_such_var", 2.0}};
  Response unknown = service_->Evaluate(bad_var);
  EXPECT_EQ(unknown.code, StatusCode::kNotFound);
  EXPECT_EQ(unknown.message, "unknown variable 'no_such_var'");

  // A variable that exists in the table (it labels a forest node) but does
  // not occur in the polynomials: assigning it would silently change
  // nothing, so it is rejected rather than ignored.
  EvaluateRequest absent_var;
  absent_var.artifact = "ex";
  absent_var.assignments = {{"Business", 0.5}};
  Response absent = service_->Evaluate(absent_var);
  EXPECT_EQ(absent.code, StatusCode::kNotFound);
  EXPECT_EQ(absent.message, "unknown variable 'Business'");

  LoadRequest bad_load;
  bad_load.artifact = "bad";
  bad_load.polys_bytes = "not a buffer";
  EXPECT_FALSE(service_->Load(bad_load).ok());

  LoadRequest unnamed;
  EXPECT_EQ(service_->Load(unnamed).code, StatusCode::kInvalidArgument);
}

TEST_F(ServiceTest, TradeoffReturnsParetoFrontier) {
  TradeoffRequest req;
  req.artifact = "ex";
  req.forest = "plans";
  Response resp = service_->Tradeoff(req);
  ASSERT_TRUE(resp.ok()) << resp.message;
  ASSERT_GT(resp.points.size(), 0u);
  EXPECT_EQ(resp.points.front().variable_loss, 0u);
  for (size_t i = 1; i < resp.points.size(); ++i) {
    EXPECT_LT(resp.points[i].size_m, resp.points[i - 1].size_m);
    EXPECT_GT(resp.points[i].variable_loss, resp.points[i - 1].variable_loss);
  }
}

TEST_F(ServiceTest, UnknownAlgoErrorEnumeratesRegisteredNames) {
  CompressRequest req;
  req.artifact = "ex";
  req.forest = "plans";
  req.algo = "quantum";
  req.bound = 10;
  Response resp = service_->Compress(req);
  EXPECT_EQ(resp.code, StatusCode::kInvalidArgument);
  EXPECT_NE(resp.message.find("quantum"), std::string::npos);
  EXPECT_NE(resp.message.find("brute, greedy, opt, prox"),
            std::string::npos);
}

TEST_F(ServiceTest, BruteAndProxAreServable) {
  // Every registered algorithm is reachable through the same request path
  // and composes with the result cache (the key carries the algo string).
  for (const std::string algo : {"brute", "prox"}) {
    CompressRequest req;
    req.artifact = "ex";
    req.forest = "plans";
    req.algo = algo;
    req.bound = polys_.SizeM() - 1;
    Response first = service_->Compress(req);
    ASSERT_TRUE(first.ok()) << algo << ": " << first.message;
    EXPECT_FALSE(first.cache_hit) << algo;
    EXPECT_TRUE(first.adequate) << algo;
    EXPECT_FALSE(first.vvs.empty()) << algo;

    Response second = service_->Compress(req);
    ASSERT_TRUE(second.ok()) << algo;
    EXPECT_TRUE(second.cache_hit) << algo;
    EXPECT_EQ(second.vvs, first.vvs) << algo;
    EXPECT_EQ(second.monomial_loss, first.monomial_loss) << algo;
  }
}

TEST_F(ServiceTest, EvaluateOverProxCompressedView) {
  EvaluateRequest req;
  req.artifact = "ex";
  req.compressed = true;
  req.forest = "plans";
  req.algo = "prox";
  req.bound = polys_.SizeM() - 1;
  Response resp = service_->Evaluate(req);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.values.size(), polys_.count());
  // All-ones valuation: every polynomial evaluates to its monomial count
  // weighted by coefficients, unchanged by variable renaming — so the
  // compressed view must agree with the raw artifact.
  EvaluateRequest raw;
  raw.artifact = "ex";
  Response raw_resp = service_->Evaluate(raw);
  ASSERT_TRUE(raw_resp.ok());
  ASSERT_EQ(raw_resp.values.size(), resp.values.size());
  for (size_t i = 0; i < resp.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(resp.values[i], raw_resp.values[i]) << i;
  }
}

TEST_F(ServiceTest, ListAlgosReturnsCapabilityRecords) {
  Response resp = service_->ListAlgos(ListAlgosRequest{});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.request_kind, MessageKind::kListAlgosRequest);
  ASSERT_EQ(resp.algos.size(), 4u);
  EXPECT_EQ(resp.algos[0].name, "brute");
  EXPECT_TRUE(resp.algos[0].exact);
  EXPECT_TRUE(resp.algos[0].produces_cut);
  EXPECT_EQ(resp.algos[1].name, "greedy");
  EXPECT_EQ(resp.algos[2].name, "opt");
  EXPECT_TRUE(resp.algos[2].supports_tradeoff);
  EXPECT_TRUE(resp.algos[2].produces_cut);
  EXPECT_EQ(resp.algos[3].name, "prox");
  EXPECT_FALSE(resp.algos[3].produces_cut);
  for (const AlgoCapability& a : resp.algos) {
    EXPECT_TRUE(a.deterministic) << a.name;
    EXPECT_FALSE(a.summary.empty()) << a.name;
    EXPECT_TRUE(a.supports_time_budget) << a.name;
  }

  // And over the frame path: request 22 round-trips through HandleFrame.
  bool shutdown = false;
  std::string reply = service_->HandleFrame(
      EncodeListAlgosRequest(ListAlgosRequest{}), &shutdown);
  auto decoded = DecodeResponse(reply);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->ok());
  ASSERT_EQ(decoded->algos.size(), 4u);
  EXPECT_EQ(decoded->algos[2].name, "opt");
  EXPECT_FALSE(shutdown);
}

TEST_F(ServiceTest, ListBackendsReturnsCapabilityRecords) {
  Response resp = service_->ListBackends(ListBackendsRequest{});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.request_kind, MessageKind::kListBackendsRequest);
  ASSERT_EQ(resp.backends.size(), 4u);
  EXPECT_EQ(resp.backends[0].name, "compiled");
  EXPECT_FALSE(resp.backends[0].vectorized);
  EXPECT_EQ(resp.backends[1].name, "jit");
  EXPECT_FALSE(resp.backends[1].vectorized);
  EXPECT_EQ(resp.backends[2].name, "naive");
  EXPECT_EQ(resp.backends[3].name, "simd_batch");
  EXPECT_TRUE(resp.backends[3].vectorized);
  EXPECT_GT(resp.backends[3].preferred_batch, 1u);
  for (const EvalBackendCapability& b : resp.backends) {
    EXPECT_TRUE(b.deterministic) << b.name;
    EXPECT_FALSE(b.summary.empty()) << b.name;
    // Routing no longer ranks by tier; the retired bits go out as 0.
    EXPECT_EQ(b.tier, 0u) << b.name;
  }

  // And over the frame path: request 23 round-trips through HandleFrame.
  bool shutdown = false;
  std::string reply = service_->HandleFrame(
      EncodeListBackendsRequest(ListBackendsRequest{}), &shutdown);
  auto decoded = DecodeResponse(reply);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->ok());
  ASSERT_EQ(decoded->backends.size(), 4u);
  EXPECT_EQ(decoded->backends[3].name, "simd_batch");
  EXPECT_FALSE(shutdown);
}

TEST_F(ServiceTest, EvaluateRoutesThroughNamedBackend) {
  EvaluateRequest req;
  req.artifact = "ex";
  req.assignments = {{"m1", 0.5}, {"b1", 0.0}};
  Response reference = service_->Evaluate(req);
  ASSERT_TRUE(reference.ok()) << reference.message;
  // Auto routing echoes the backend that ran: the compiled kernel on a
  // fresh snapshot, below the jit break-even and one lane group.
  EXPECT_EQ(reference.eval_backend, "compiled");

  // Every registered backend returns bitwise-identical values and echoes
  // its name.
  for (const std::string& name :
       EvaluationBackendRegistry::Default().Names()) {
    req.eval_backend = name;
    Response got = service_->Evaluate(req);
    ASSERT_TRUE(got.ok()) << name << ": " << got.message;
    EXPECT_EQ(got.eval_backend, name);
    ASSERT_EQ(got.values.size(), reference.values.size()) << name;
    for (size_t i = 0; i < reference.values.size(); ++i) {
      uint64_t want, have;
      std::memcpy(&want, &reference.values[i], sizeof(want));
      std::memcpy(&have, &got.values[i], sizeof(have));
      EXPECT_EQ(want, have) << name << " polynomial " << i;
    }
  }

  // Unknown names fail up front with the registry's name-listing error.
  req.eval_backend = "turbo";
  Response bad = service_->Evaluate(req);
  EXPECT_EQ(bad.code, StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message.find("unknown evaluation backend 'turbo'"),
            std::string::npos)
      << bad.message;
  EXPECT_NE(bad.message.find("simd_batch"), std::string::npos) << bad.message;
}

// ------------------------------------------- scenario programs ----------

/// Scenario-program service tests. The acceptance bar for the subsystem:
/// one EvaluateScenarioProgram request must be observationally identical —
/// bitwise, not approximately — to issuing every expanded scenario as its
/// own Evaluate request.
/// A set of kSimdBatchMinMonomials monomials, large enough that simd_batch
/// takes its wide calls: 16 polynomials of 64 monomials c * m<k> * b<p>.
std::string WideSetBytes(VariableTable& vars) {
  PolynomialSet polys;
  const size_t per_poly = kSimdBatchMinMonomials / 16;
  for (size_t p = 0; p < 16; ++p) {
    const VariableId b = vars.Intern("bw" + std::to_string(p));
    std::vector<Monomial> terms;
    for (size_t m = 0; m < per_poly; ++m) {
      const VariableId x =
          vars.Intern("mw" + std::to_string(p * per_poly + m));
      terms.push_back(Monomial(1.0 + static_cast<double>(m), {{x, 1}, {b, 1}}));
    }
    polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }
  return SerializePolynomialSet(polys, vars);
}

class ScenarioServiceTest : public ServiceTest {
 protected:
  /// Per-scenario reference arm: expands `program_source` locally against
  /// the raw polynomials and issues one Evaluate request per scenario with
  /// the scenario's variable assignments, concatenating the results
  /// scenario-major (exactly the kValues layout).
  std::vector<double> EvaluatePerScenario(const std::string& program_source) {
    auto compiled = polys_.Compiled();
    auto program =
        scenario::ScenarioProgram::Compile(program_source, compiled, vars_);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    std::vector<DenseValuation> dense;
    EXPECT_TRUE(
        program->ExpandChunk(0, program->scenario_count(), &dense).ok());
    const std::vector<VariableId>& slots = compiled->slot_variables();
    std::vector<double> out;
    for (const DenseValuation& d : dense) {
      EvaluateRequest req;
      req.artifact = "ex";
      for (uint32_t s = 0; s < slots.size(); ++s) {
        req.assignments.emplace_back(vars_.NameOf(slots[s]), d[s]);
      }
      Response resp = service_->Evaluate(req);
      EXPECT_TRUE(resp.ok()) << resp.message;
      out.insert(out.end(), resp.values.begin(), resp.values.end());
    }
    return out;
  }
};

/// A values-shaped family whose response cannot fit the frame budget is
/// refused up front with a structured kOutOfRange naming the --shape top-k
/// workaround — before any valuation is computed, and never by dying in
/// the transport's frame-size check.
TEST_F(ScenarioServiceTest, OversizedValuesResponseRejectedStructured) {
  ServiceOptions small;
  small.max_response_bytes = 4096 + 100;  // fits the envelope, not 10k values
  ProvenanceService service(small);
  LoadRequest load;
  load.artifact = "ex";
  load.polys_bytes = polys_bytes_;
  load.forests = {{"plans", plans_bytes_}};
  ASSERT_TRUE(service.Load(load).ok());

  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.program =
      "LET a = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "LET b = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "LET c = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "SET PREFIX(m) = a; SET PREFIX(b) = b; SET * = c;";
  Response resp = service.EvaluateScenarioProgram(req);
  EXPECT_EQ(resp.code, StatusCode::kOutOfRange);
  EXPECT_NE(resp.message.find("--shape top-k"), std::string::npos)
      << resp.message;
  EXPECT_TRUE(resp.values.empty());

  // The suggested workaround actually works on the same service: top-k
  // keeps the response bounded regardless of family size.
  req.shape = ScenarioShape::kTopK;
  req.top_k = 3;
  Response shaped = service.EvaluateScenarioProgram(req);
  ASSERT_TRUE(shaped.ok()) << shaped.message;
  EXPECT_EQ(shaped.scenario_indices.size(), 3u);
}

/// The HandleFrame backstop: any handler whose encoded response outgrows
/// the budget is replaced by a structured error on a healthy connection.
TEST_F(ScenarioServiceTest, HandleFrameReplacesOversizedResponse) {
  ServiceOptions tiny;
  tiny.max_response_bytes = 8;  // every real response exceeds this
  ProvenanceService service(tiny);
  LoadRequest load;
  load.artifact = "ex";
  load.polys_bytes = polys_bytes_;
  load.forests = {{"plans", plans_bytes_}};
  ASSERT_TRUE(service.Load(load).ok());

  bool shutdown = false;
  std::string encoded =
      service.HandleFrame(EncodeInfoRequest(InfoRequest{"ex"}), &shutdown);
  auto decoded = DecodeResponse(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, StatusCode::kOutOfRange);
  EXPECT_NE(decoded->message.find("response limit"), std::string::npos)
      << decoded->message;
  EXPECT_FALSE(shutdown);
}

// The acceptance check: a three-parameter sweep family (10^3 = 1000
// scenarios) answered in ONE request, bitwise identical to 1000 individual
// Evaluate round trips.
TEST_F(ScenarioServiceTest, ThousandScenarioRequestMatchesIndividualEvaluates) {
  const std::string program_source =
      "LET a = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "LET b = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "LET c = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "SET PREFIX(m) = a; SET PREFIX(b) = b; SET * = c;";

  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.program = program_source;
  Response resp = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.scenario_count, 1000u);
  EXPECT_FALSE(resp.program_cache_hit);
  EXPECT_TRUE(resp.scenario_indices.empty());  // kValues: full vectors

  std::vector<double> expected = EvaluatePerScenario(program_source);
  ASSERT_EQ(resp.values.size(), expected.size());
  ASSERT_EQ(resp.values.size(), 1000 * polys_.count());
  for (size_t i = 0; i < expected.size(); ++i) {
    uint64_t want, have;
    std::memcpy(&want, &expected[i], sizeof(want));
    std::memcpy(&have, &resp.values[i], sizeof(have));
    ASSERT_EQ(want, have) << "value " << i;
  }

  // Chunking is an implementation detail: a service slicing the family
  // into tiny chunks returns the identical byte stream.
  ServiceOptions tiny_chunks;
  tiny_chunks.scenario_chunk = 7;
  ProvenanceService chunked(tiny_chunks);
  LoadRequest load;
  load.artifact = "ex";
  load.polys_bytes = polys_bytes_;
  load.forests = {{"plans", plans_bytes_}};
  ASSERT_TRUE(chunked.Load(load).ok());
  Response chunked_resp = chunked.EvaluateScenarioProgram(req);
  ASSERT_TRUE(chunked_resp.ok()) << chunked_resp.message;
  ASSERT_EQ(chunked_resp.values.size(), resp.values.size());
  for (size_t i = 0; i < resp.values.size(); ++i) {
    uint64_t want, have;
    std::memcpy(&want, &resp.values[i], sizeof(want));
    std::memcpy(&have, &chunked_resp.values[i], sizeof(have));
    ASSERT_EQ(want, have) << "chunked value " << i;
  }
}

// A scenario request echoes the backend that ran, not "" for auto: a
// 16-scenario family on a fresh snapshot fills simd_batch lanes, and a
// family run in 7-scenario chunks echoes its last chunk's backend, which
// is the jit once the snapshot has served its break-even (where the jit is
// available). An explicit name echoes itself.
TEST_F(ScenarioServiceTest, ScenarioRequestsEchoTheBackendThatRan) {
  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.program = "LET a = SWEEP(0.5 .. 2 STEP 0.1); SET PREFIX(m) = a;";
  Response wide = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(wide.ok()) << wide.message;
  ASSERT_EQ(wide.scenario_count, 16u);
  EXPECT_EQ(wide.eval_backend, "simd_batch");

  req.eval_backend = "naive";
  Response named = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(named.ok()) << named.message;
  EXPECT_EQ(named.eval_backend, "naive");

  // Families of one lane group or more run simd_batch on a fresh artifact
  // of kSimdBatchMinMonomials monomials however many scenarios it has
  // served, so they never emit jit code (scalar lanes hand them to an
  // active jit past its break-even).
  const bool wide_jit =
      EvaluationBackendRegistry::Default().Find("jit")->Available() &&
      !SimdBatchAvx2Active();
  LoadRequest fresh;
  fresh.artifact = "fresh";
  fresh.polys_bytes = WideSetBytes(vars_);
  ASSERT_TRUE(service_->Load(fresh).ok());
  const uint64_t misses = jit::JitCodeCache::Default().stats().misses;
  for (size_t width : {16, 64, 256, 1024}) {
    if (wide_jit) break;
    std::string grid;
    for (size_t i = 0; i < width; ++i) {
      grid += (i == 0 ? "" : ", ") + std::to_string(0.5 + 0.001 * i);
    }
    EvaluateScenarioProgramRequest family;
    family.artifact = "fresh";
    family.program = "LET a = GRID(" + grid + "); SET PREFIX(m) = a;";
    family.shape = ScenarioShape::kTopK;
    family.top_k = 1;
    Response resp = service_->EvaluateScenarioProgram(family);
    ASSERT_TRUE(resp.ok()) << resp.message;
    ASSERT_EQ(resp.scenario_count, width);
    EXPECT_EQ(resp.eval_backend, "simd_batch") << "width " << width;
  }
  EXPECT_EQ(jit::JitCodeCache::Default().stats().misses, misses);

  ServiceOptions tiny_chunks;
  tiny_chunks.scenario_chunk = 7;
  ProvenanceService chunked(tiny_chunks);
  fresh.artifact = "wide";
  ASSERT_TRUE(chunked.Load(fresh).ok());
  req.artifact = "wide";
  req.eval_backend.clear();
  req.shape = ScenarioShape::kTopK;
  req.top_k = 1;
  req.program =
      "LET a = SWEEP(0.5 .. 1.4 STEP 0.1); LET b = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "LET c = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "SET PREFIX(m) = a; SET PREFIX(b) = b; SET * = c;";
  Response chunked_resp = chunked.EvaluateScenarioProgram(req);
  ASSERT_TRUE(chunked_resp.ok()) << chunked_resp.message;
  ASSERT_EQ(chunked_resp.scenario_count, 1000u);  // last chunk: 6 scenarios
  EXPECT_EQ(chunked_resp.eval_backend, wide_jit ? "jit" : "simd_batch");
}

TEST_F(ScenarioServiceTest, ShapedResponsesPickByObjective) {
  // One parameter, 4 scenarios. Objective = sum of polynomial values; the
  // catch-all scales every variable by d, so the objective is monotone in
  // d and the extremes are the first and last scenarios.
  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.program = "LET d = GRID(0.5, 1, 2, 4); SET * = d;";
  req.shape = ScenarioShape::kValues;
  Response all = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(all.ok()) << all.message;
  ASSERT_EQ(all.scenario_count, 4u);
  const size_t poly_count = polys_.count();
  std::vector<double> objectives(4, 0.0);
  for (size_t s = 0; s < 4; ++s) {
    for (size_t p = 0; p < poly_count; ++p) {
      objectives[s] += all.values[s * poly_count + p];
    }
  }

  req.shape = ScenarioShape::kArgmin;
  Response argmin = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(argmin.ok()) << argmin.message;
  ASSERT_EQ(argmin.scenario_indices.size(), 1u);
  ASSERT_EQ(argmin.objectives.size(), 1u);
  EXPECT_EQ(argmin.scenario_indices[0], 0u);  // d = 0.5 minimizes
  EXPECT_DOUBLE_EQ(argmin.objectives[0], objectives[0]);
  ASSERT_EQ(argmin.values.size(), poly_count);
  for (size_t p = 0; p < poly_count; ++p) {
    EXPECT_EQ(argmin.values[p], all.values[p]) << p;
  }

  req.shape = ScenarioShape::kArgmax;
  Response argmax = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(argmax.ok());
  ASSERT_EQ(argmax.scenario_indices.size(), 1u);
  EXPECT_EQ(argmax.scenario_indices[0], 3u);  // d = 4 maximizes
  EXPECT_DOUBLE_EQ(argmax.objectives[0], objectives[3]);

  req.shape = ScenarioShape::kTopK;
  req.top_k = 3;
  Response topk = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk.scenario_indices.size(), 3u);
  EXPECT_EQ(topk.scenario_indices,
            (std::vector<uint64_t>{3, 2, 1}));  // descending objective
  EXPECT_DOUBLE_EQ(topk.objectives[0], objectives[3]);
  EXPECT_DOUBLE_EQ(topk.objectives[2], objectives[1]);
  ASSERT_EQ(topk.values.size(), 3 * poly_count);

  // top_k larger than the family returns the whole family, ranked.
  req.top_k = 100;
  Response topall = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(topall.ok());
  EXPECT_EQ(topall.scenario_indices.size(), 4u);
}

TEST_F(ScenarioServiceTest, TiesBreakTowardTheEarlierScenario) {
  // Every scenario produces identical values (the parameter is unused by
  // the catch-all), so argmin/argmax must both pick index 0.
  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.program = "LET d = GRID(1, 2, 3); SET * = 1;";
  for (ScenarioShape shape : {ScenarioShape::kArgmin, ScenarioShape::kArgmax}) {
    req.shape = shape;
    Response resp = service_->EvaluateScenarioProgram(req);
    ASSERT_TRUE(resp.ok()) << resp.message;
    ASSERT_EQ(resp.scenario_indices.size(), 1u);
    EXPECT_EQ(resp.scenario_indices[0], 0u);
  }
}

TEST_F(ScenarioServiceTest, ProgramCacheHitsAndGenerationInvalidation) {
  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.program = "LET d = GRID(1, 2); SET PREFIX(m) = d;";
  Response first = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(first.ok()) << first.message;
  EXPECT_FALSE(first.program_cache_hit);
  EXPECT_EQ(first.stats.program_misses, 1u);
  EXPECT_EQ(first.stats.program_count, 1u);

  Response second = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.program_cache_hit);
  EXPECT_EQ(second.stats.program_hits, 1u);
  for (size_t i = 0; i < first.values.size(); ++i) {
    uint64_t want, have;
    std::memcpy(&want, &first.values[i], sizeof(want));
    std::memcpy(&have, &second.values[i], sizeof(have));
    ASSERT_EQ(want, have) << i;
  }

  // A different program text is its own cache entry.
  EvaluateScenarioProgramRequest other = req;
  other.program = "LET d = GRID(1, 2); SET PREFIX(b) = d;";
  EXPECT_FALSE(service_->EvaluateScenarioProgram(other).program_cache_hit);

  // Reloading bumps the generation: the old compiled program is stale.
  LoadRequest reload;
  reload.artifact = "ex";
  reload.polys_bytes = polys_bytes_;
  reload.forests = {{"plans", plans_bytes_}};
  ASSERT_TRUE(service_->Load(reload).ok());
  Response after_reload = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(after_reload.ok());
  EXPECT_FALSE(after_reload.program_cache_hit);
}

TEST_F(ScenarioServiceTest, CompressedViewProgramsEvaluateAndCache) {
  // Programs against a compressed view select over meta-variables; the
  // whole pipeline (compress -> compile -> expand -> batch) must work and
  // the program key must include the view.
  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.compressed = true;
  req.forest = "plans";
  req.algo = "opt";
  req.bound = polys_.SizeM() - 1;
  req.program = "LET d = GRID(0.5, 2); SET * = d;";
  Response resp = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.scenario_count, 2u);
  EXPECT_EQ(resp.values.size(), 2 * polys_.count());
  EXPECT_FALSE(resp.program_cache_hit);

  // Same text against the RAW view is a distinct program cache entry.
  EvaluateScenarioProgramRequest raw = req;
  raw.compressed = false;
  Response raw_resp = service_->EvaluateScenarioProgram(raw);
  ASSERT_TRUE(raw_resp.ok()) << raw_resp.message;
  EXPECT_FALSE(raw_resp.program_cache_hit);

  Response again = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.program_cache_hit);
}

TEST_F(ScenarioServiceTest, ScenarioErrorsAreStructured) {
  EvaluateScenarioProgramRequest req;
  req.program = "SET * = 1;";
  req.artifact = "nope";
  Response missing = service_->EvaluateScenarioProgram(req);
  EXPECT_EQ(missing.code, StatusCode::kNotFound);

  req.artifact = "ex";
  req.program = "LET d = SWEEP(1 .. 2 STEP);";  // parse error
  Response parse_err = service_->EvaluateScenarioProgram(req);
  EXPECT_EQ(parse_err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(parse_err.message.find("at offset"), std::string::npos)
      << parse_err.message;

  req.program = "SET ghost = 1;";  // semantic error
  Response sema_err = service_->EvaluateScenarioProgram(req);
  EXPECT_EQ(sema_err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(sema_err.message.find("'ghost'"), std::string::npos);

  req.program = "LET d = GRID(1); SET * = d < 1;";  // type error
  Response type_err = service_->EvaluateScenarioProgram(req);
  EXPECT_EQ(type_err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(type_err.message.find("type error"), std::string::npos);

  req.program = "SET * = 1;";
  req.shape = ScenarioShape::kTopK;
  req.top_k = 0;
  Response zero_k = service_->EvaluateScenarioProgram(req);
  EXPECT_EQ(zero_k.code, StatusCode::kInvalidArgument);
  EXPECT_NE(zero_k.message.find("top_k"), std::string::npos);

  req.shape = ScenarioShape::kValues;
  req.eval_backend = "turbo";
  Response bad_backend = service_->EvaluateScenarioProgram(req);
  EXPECT_EQ(bad_backend.code, StatusCode::kInvalidArgument);
  EXPECT_NE(bad_backend.message.find("unknown evaluation backend"),
            std::string::npos);

  // Failed compiles must not poison the cache.
  req.eval_backend.clear();
  Response fine = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(fine.ok()) << fine.message;
}

TEST_F(ScenarioServiceTest, OversizedFamilyIsRejectedUpFront) {
  ServiceOptions small;
  small.max_scenarios_per_request = 10;
  ProvenanceService capped(small);
  LoadRequest load;
  load.artifact = "ex";
  load.polys_bytes = polys_bytes_;
  ASSERT_TRUE(capped.Load(load).ok());

  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.program = "LET a = GRID(1, 2, 3, 4); LET b = GRID(1, 2, 3); SET * = a;";
  Response resp = capped.EvaluateScenarioProgram(req);
  EXPECT_EQ(resp.code, StatusCode::kInvalidArgument);
  EXPECT_NE(resp.message.find("12 scenarios"), std::string::npos)
      << resp.message;
  EXPECT_NE(resp.message.find("limit of 10"), std::string::npos)
      << resp.message;

  // At the limit it still runs.
  req.program = "LET a = GRID(1, 2); LET b = GRID(1, 2, 3, 4, 5); SET * = a;";
  EXPECT_TRUE(capped.EvaluateScenarioProgram(req).ok());
}

TEST_F(ScenarioServiceTest, ScenarioFrameRoundTripsThroughHandleFrame) {
  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.program = "LET d = GRID(1, 2); SET PREFIX(m) = d;";
  bool shutdown = false;
  std::string reply = service_->HandleFrame(
      EncodeEvaluateScenarioProgramRequest(req), &shutdown);
  auto resp = DecodeResponse(reply);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_TRUE(resp->ok()) << resp->message;
  EXPECT_EQ(resp->request_kind, MessageKind::kEvaluateScenarioProgramRequest);
  EXPECT_EQ(resp->scenario_count, 2u);
  EXPECT_EQ(resp->values.size(), 2 * polys_.count());
  EXPECT_FALSE(shutdown);

  // Truncated scenario frames decode-fail into error responses.
  std::string full = EncodeEvaluateScenarioProgramRequest(req);
  for (size_t len : {size_t{0}, size_t{7}, full.size() - 1}) {
    auto err = DecodeResponse(
        service_->HandleFrame(full.substr(0, len), &shutdown));
    ASSERT_TRUE(err.ok());
    EXPECT_FALSE(err->ok());
  }
}

TEST_F(ServiceTest, HandleFrameDispatchesAndSurvivesGarbage) {
  InfoRequest info;
  info.artifact = "ex";
  bool shutdown = false;
  std::string reply =
      service_->HandleFrame(EncodeInfoRequest(info), &shutdown);
  auto resp = DecodeResponse(reply);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->ok());
  EXPECT_EQ(resp->poly_count, polys_.count());
  EXPECT_FALSE(shutdown);

  // Garbage and truncated payloads produce decodable error responses.
  for (std::string bad :
       {std::string("XXXX"), std::string(),
        EncodeInfoRequest(info).substr(0, 7)}) {
    std::string err = service_->HandleFrame(bad, &shutdown);
    auto decoded = DecodeResponse(err);
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(decoded->ok());
  }
  EXPECT_FALSE(shutdown);

  std::string bye =
      service_->HandleFrame(EncodeShutdownRequest(ShutdownRequest{}),
                            &shutdown);
  EXPECT_TRUE(shutdown);
  auto bye_resp = DecodeResponse(bye);
  ASSERT_TRUE(bye_resp.ok());
  EXPECT_TRUE(bye_resp->ok());
}

// -------------------------------------------- compress as a query ----

/// The running example served with a compress hook that counts the full
/// algorithm runs single-flight executes (for "opt", the DPs that build a
/// generation's state).
class RequeryServiceTest : public ServerFixture {
 protected:
  void SetUp() override {
    ServerFixture::SetUp();
    ServiceOptions options;
    options.compress_hook = [this](const ArtifactStore::ResultKey&) {
      dp_runs_.fetch_add(1);
    };
    service_ = std::make_unique<ProvenanceService>(options);
    LoadRequest load;
    load.artifact = "ex";
    load.polys_bytes = polys_bytes_;
    load.forests = {{"plans", plans_bytes_}};
    ASSERT_TRUE(service_->Load(load).ok());
    plans_.AddTree(MakeFigure2PlansTree(vars_));
  }

  CompressRequest Request(uint64_t bound) const {
    CompressRequest req;
    req.artifact = "ex";
    req.forest = "plans";
    req.bound = bound;
    return req;
  }

  std::atomic<int> dp_runs_{0};
  std::unique_ptr<ProvenanceService> service_;
  AbstractionForest plans_;
};

TEST_F(RequeryServiceTest, EightBoundsOnOneGenerationRunOneDp) {
  const size_t size_m = polys_.SizeM();
  for (size_t b = 0; b < 8; ++b) {
    const size_t bound = size_m - b;
    Response resp = service_->Compress(Request(bound));
    auto cold = OptimalSingleTree(polys_, plans_, 0, bound);
    ASSERT_EQ(resp.code, cold.status().code()) << resp.message;
    EXPECT_FALSE(resp.cache_hit);
    if (!cold.ok()) continue;
    EXPECT_EQ(resp.monomial_loss, cold->loss.monomial_loss);
    EXPECT_EQ(resp.variable_loss, cold->loss.variable_loss);
    EXPECT_EQ(resp.adequate, cold->adequate);
    EXPECT_EQ(resp.vvs, cold->Describe(plans_, vars_));
  }
  EXPECT_EQ(dp_runs_.load(), 1);
  EXPECT_EQ(service_->store().stats().state_count, 1u);
}

TEST_F(RequeryServiceTest, CompressBuildsNoViewAndTheFirstReadBuildsIt) {
  const size_t size_m = polys_.SizeM();
  std::vector<Response> compressed;
  for (size_t b = 1; b <= 3; ++b) {
    compressed.push_back(service_->Compress(Request(size_m - b)));
    ASSERT_TRUE(compressed.back().ok()) << compressed.back().message;
  }
  auto built = [&] {
    ProvenanceService::ViewBuildStats stats = service_->view_build_stats();
    return stats.extended + stats.cut_changed + stats.full;
  };
  EXPECT_EQ(built(), 0u);
  auto artifact = service_->store().Get("ex");
  ArtifactStore::ResultKey key{"ex", artifact->generation, "plans",
                               size_m - 1, "opt"};
  auto entry = service_->store().PeekResult(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->view_built);
  EXPECT_EQ(entry->compressed.count(), 0u);

  EvaluateRequest eval;
  eval.artifact = "ex";
  eval.compressed = true;
  eval.forest = "plans";
  eval.bound = size_m - 1;
  Response first = service_->Evaluate(eval);
  ASSERT_TRUE(first.ok()) << first.message;
  EXPECT_TRUE(first.cache_hit);
  EXPECT_EQ(built(), 1u);
  EXPECT_EQ(service_->view_build_stats().full, 1u);
  Response second = service_->Evaluate(eval);
  ASSERT_TRUE(second.ok()) << second.message;
  EXPECT_EQ(second.values, first.values);
  EXPECT_EQ(built(), 1u);

  // The view was republished under the same key and is a cold Apply.
  entry = service_->store().PeekResult(key);
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(entry->view_built);
  EXPECT_EQ(entry->compressed.SizeM(), compressed[0].compressed_monomials);
  const AbstractionForest& served = *artifact->FindForest("plans");
  auto cold = OptimalSingleTree(artifact->polys, served, 0, size_m - 1);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(
      SerializePolynomialSet(entry->compressed, *artifact->vars),
      SerializePolynomialSet(cold->Apply(served, artifact->polys),
                             *artifact->vars));
  EXPECT_EQ(dp_runs_.load(), 1);
}

TEST_F(RequeryServiceTest, StateIsChargedOnceAcrossBounds) {
  const size_t size_m = polys_.SizeM();
  const uint64_t empty = service_->store().stats().cached_bytes;
  ASSERT_TRUE(service_->Compress(Request(size_m)).ok());
  auto artifact = service_->store().Get("ex");
  auto result_bytes = [&](uint64_t bound) {
    auto entry = service_->store().PeekResult(
        {"ex", artifact->generation, "plans", bound, "opt"});
    EXPECT_NE(entry, nullptr);
    EXPECT_FALSE(entry->view_built);
    return entry == nullptr ? uint64_t{0} : uint64_t{entry->approx_bytes};
  };
  const uint64_t after_first = service_->store().stats().cached_bytes;
  const uint64_t state_bytes = after_first - empty - result_bytes(size_m);
  EXPECT_GT(state_bytes, 0u);
  uint64_t results = 0;
  for (size_t b = 1; b <= 5; ++b) {
    Response resp = service_->Compress(Request(size_m - b));
    ASSERT_TRUE(resp.ok()) << resp.message;
    results += result_bytes(size_m - b);
  }
  ArtifactStore::Stats stats = service_->store().stats();
  EXPECT_EQ(stats.cached_bytes, after_first + results);
  EXPECT_EQ(stats.state_count, 1u);
  EXPECT_EQ(stats.result_count, 6u);
  EXPECT_EQ(dp_runs_.load(), 1);
}

TEST_F(RequeryServiceTest, TradeoffReadsTheGenerationState) {
  auto same_points = [](const std::vector<TradeoffPoint>& a,
                        const std::vector<TradeoffPoint>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].size_m != b[i].size_m ||
          a[i].variable_loss != b[i].variable_loss) {
        return false;
      }
    }
    return true;
  };
  TradeoffRequest req;
  req.artifact = "ex";
  req.forest = "plans";
  Response first = service_->Tradeoff(req);
  ASSERT_TRUE(first.ok()) << first.message;
  auto want = OptimalTradeoffCurve(polys_, plans_, 0);
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(same_points(first.points, *want));
  EXPECT_EQ(dp_runs_.load(), 1);
  Response second = service_->Tradeoff(req);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(same_points(second.points, *want));
  EXPECT_EQ(dp_runs_.load(), 1) << "a second Tradeoff ran a DP";
  // Compresses at any bound re-query the same state.
  for (size_t b = 0; b < 4; ++b) {
    Response resp = service_->Compress(Request(polys_.SizeM() - b));
    ASSERT_TRUE(resp.ok() || resp.code == StatusCode::kInfeasible);
  }
  EXPECT_EQ(dp_runs_.load(), 1);

  // An appended generation: the patched state's clamp is the old |P|_M,
  // below the new one, so the curve rebuilds it once.
  PolynomialSet extra;
  extra.Add(polys_.polynomials().front());
  AppendRequest append;
  append.artifact = "ex";
  append.polys_bytes = SerializePolynomialSet(extra, vars_);
  ASSERT_TRUE(service_->Append(append).ok());
  PolynomialSet grown = polys_;
  grown.Add(polys_.polynomials().front());
  auto grown_want = OptimalTradeoffCurve(grown, plans_, 0);
  ASSERT_TRUE(grown_want.ok());
  Response appended = service_->Tradeoff(req);
  ASSERT_TRUE(appended.ok()) << appended.message;
  EXPECT_TRUE(same_points(appended.points, *grown_want));
  EXPECT_EQ(dp_runs_.load(), 2);
  ASSERT_TRUE(service_->Tradeoff(req).ok());
  EXPECT_EQ(dp_runs_.load(), 2);
}

/// compress-cold's traffic shape on a budget of eight times the artifact's
/// charged bytes: compresses at distinct bounds (one cached result each,
/// all queried from one DP state), with a compressed evaluate at every
/// eighth bound building its view. Derived entries overflow the budget,
/// and the loaded artifact must survive every insert: no request may see
/// NotFound.
TEST(StoreBudgetServiceTest, DistinctBoundCompressesKeepTheArtifact) {
  TelephonyConfig config;
  config.num_customers = 200;
  config.num_plans = 16;
  config.num_months = 4;
  config.num_zip_codes = 6;
  Rng rng(2026);
  VariableTable vars;
  TelephonyVars tv = MakeTelephonyVars(vars, config);
  PolynomialSet polys = RunTelephonyQuery(GenerateTelephony(config, rng), tv);
  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(vars, tv.plan_vars, {4, 4}, "CMP_"));
  LoadRequest load;
  load.artifact = "a";
  load.polys_bytes = SerializePolynomialSet(polys, vars);
  load.forests = {{"default", SerializeForest(forest, vars)}};

  size_t artifact_bytes = 0;
  {
    ProvenanceService probe;
    ASSERT_TRUE(probe.Load(load).ok());
    artifact_bytes = probe.store().Get("a")->approx_bytes;
  }
  ServiceOptions options;
  options.cache_bytes = 8 * artifact_bytes;
  options.eval_threads = 2;
  ProvenanceService service(options);
  ASSERT_TRUE(service.Load(load).ok());

  const size_t size_m = polys.SizeM();
  CompressRequest compress;
  compress.artifact = "a";
  // The loosest bound first, as compress-cold's warm-up does; a tighter
  // bound then rebuilds the state at |P|_M.
  compress.bound = size_m - 1;
  ASSERT_TRUE(service.Compress(compress).ok());
  size_t served = 0;
  for (size_t i = 0; i < 96; ++i) {
    const size_t bound = size_m - 2 - i * (size_m / 2) / 96;
    SCOPED_TRACE("request " + std::to_string(i) + " bound " +
                 std::to_string(bound));
    Response resp;
    if (i % 8 == 0) {
      EvaluateRequest eval;
      eval.artifact = "a";
      eval.compressed = true;
      eval.bound = bound;
      resp = service.Evaluate(eval);
    } else {
      compress.bound = bound;
      resp = service.Compress(compress);
    }
    ASSERT_NE(resp.code, StatusCode::kNotFound) << resp.message;
    ASSERT_TRUE(resp.ok() || resp.code == StatusCode::kInfeasible)
        << resp.message;
    served += resp.ok();
  }
  EXPECT_GT(served, 48u);
  ArtifactStore::Stats stats = service.store().stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.artifact_count, 1u);
  EXPECT_LE(stats.cached_bytes, 8 * artifact_bytes);
}

/// |P↓S|_M = |P|_M − ML for every algorithm, so a compress reports the
/// view's size without building it. Checked against the size of a cold
/// Apply and of the view a read builds.
TEST(CompressedMonomialsTest, EqualsTheViewSizeForEveryAlgorithm) {
  struct Instance {
    std::string name;
    VariableTable vars;
    PolynomialSet polys;
    AbstractionForest forest;
  };
  std::vector<Instance> instances(2);
  instances[0].name = "running example";
  instances[0].polys =
      RunRunningExampleQuery(MakeRunningExample(instances[0].vars));
  instances[0].forest.AddTree(MakeFigure2PlansTree(instances[0].vars));
  {
    TelephonyConfig config;
    config.num_customers = 60;
    config.num_plans = 8;
    config.num_months = 4;
    config.num_zip_codes = 6;
    Rng rng(2026);
    Instance& tel = instances[1];
    tel.name = "telephony";
    TelephonyVars tv = MakeTelephonyVars(tel.vars, config);
    tel.polys = RunTelephonyQuery(GenerateTelephony(config, rng), tv);
    tel.forest.AddTree(
        BuildUniformTree(tel.vars, tv.plan_vars, {2, 2}, "CM_"));
  }
  for (Instance& in : instances) {
    ProvenanceService service;
    LoadRequest load;
    load.artifact = "a";
    load.polys_bytes = SerializePolynomialSet(in.polys, in.vars);
    load.forests = {{"f", SerializeForest(in.forest, in.vars)}};
    ASSERT_TRUE(service.Load(load).ok()) << in.name;
    auto artifact = service.store().Get("a");
    const size_t size_m = in.polys.SizeM();
    for (const std::string algo : {"opt", "greedy", "brute", "prox"}) {
      const Compressor* compressor = CompressorRegistry::Default().Find(algo);
      ASSERT_NE(compressor, nullptr);
      for (size_t bound : {size_m - 1, size_m - size_m / 8, size_m / 2}) {
        SCOPED_TRACE(in.name + " " + algo + " bound " +
                     std::to_string(bound));
        CompressRequest req;
        req.artifact = "a";
        req.forest = "f";
        req.algo = algo;
        req.bound = bound;
        Response resp = service.Compress(req);
        CompressOptions copts;
        copts.bound = bound;
        auto cold = compressor->Compress(in.polys, in.forest, copts);
        ASSERT_EQ(resp.code, cold.status().code()) << resp.message;
        if (!cold.ok()) continue;
        EXPECT_EQ(resp.compressed_monomials,
                  cold->Apply(in.forest, in.polys).SizeM());

        EvaluateRequest eval;
        eval.artifact = "a";
        eval.compressed = true;
        eval.forest = "f";
        eval.algo = algo;
        eval.bound = bound;
        ASSERT_TRUE(service.Evaluate(eval).ok());
        auto entry = service.store().PeekResult(
            {"a", artifact->generation, "f", bound, algo});
        ASSERT_NE(entry, nullptr);
        ASSERT_TRUE(entry->view_built);
        EXPECT_EQ(entry->compressed.SizeM(), resp.compressed_monomials);
      }
    }
  }
}

// ------------------------------------------- incremental append path --

/// A workload designed so the opt cut abstracts exactly one mid node and
/// keeps six leaves chosen as themselves: appending over a kept leaf is
/// guaranteed patchable, and the compress_hook (which fires only on FULL
/// runs) proves the DP was skipped.
class IncrementalServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 8; ++i) {
      leaves_.push_back(vars_.Intern("il" + std::to_string(i)));
    }
    forest_.AddTree(BuildUniformTree(vars_, leaves_, {4, 2}, "INC_"));
    for (int p = 0; p < 6; ++p) {
      std::vector<Monomial> terms;
      for (int m = 0; m < 8; ++m) {
        terms.emplace_back(1.0 + p + 0.25 * m,
                           std::vector<Factor>{{leaves_[m], 1}});
      }
      polys_.Add(Polynomial::FromMonomials(std::move(terms)));
    }
    bound_ = polys_.SizeM() - 4;
    polys_bytes_ = SerializePolynomialSet(polys_, vars_);
    forest_bytes_ = SerializeForest(forest_, vars_);

    auto base = OptimalSingleTree(polys_, forest_, 0, bound_);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    const AbstractionTree& tree = forest_.tree(0);
    for (const NodeRef& ref : base->vvs.nodes()) {
      if (tree.node(ref.node).is_leaf()) {
        kept_leaf_ = tree.node(ref.node).label;
        break;
      }
    }
    ASSERT_NE(kept_leaf_, kInvalidVariable);

    ServiceOptions sopts;
    sopts.compress_hook = [this](const ArtifactStore::ResultKey&) {
      full_runs_.fetch_add(1);
    };
    service_ = std::make_unique<ProvenanceService>(sopts);
    LoadRequest load;
    load.artifact = "inc";
    load.polys_bytes = polys_bytes_;
    load.forests = {{"t", forest_bytes_}};
    Response resp = service_->Load(load);
    ASSERT_TRUE(resp.ok()) << resp.message;
  }

  /// One appended polynomial over the kept leaf, serialized for the wire.
  std::string AppendBytes() {
    PolynomialSet extra;
    extra.Add(Polynomial::FromMonomials({Monomial(2.5, {{kept_leaf_, 1}})}));
    return SerializePolynomialSet(extra, vars_);
  }

  VariableTable vars_;
  std::vector<VariableId> leaves_;
  AbstractionForest forest_;
  PolynomialSet polys_;
  size_t bound_ = 0;
  std::string polys_bytes_;
  std::string forest_bytes_;
  VariableId kept_leaf_ = kInvalidVariable;
  std::atomic<int> full_runs_{0};
  std::unique_ptr<ProvenanceService> service_;
};

TEST_F(IncrementalServiceTest, AppendThenCompressSkipsTheFullDp) {
  CompressRequest creq;
  creq.artifact = "inc";
  creq.forest = "t";
  creq.algo = "opt";
  creq.bound = bound_;
  Response first = service_->Compress(creq);
  ASSERT_TRUE(first.ok()) << first.message;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(first.delta_patched);
  EXPECT_EQ(full_runs_.load(), 1);

  AppendRequest areq;
  areq.artifact = "inc";
  areq.polys_bytes = AppendBytes();
  Response appended = service_->Append(areq);
  ASSERT_TRUE(appended.ok()) << appended.message;
  EXPECT_EQ(appended.poly_count, polys_.count() + 1);
  EXPECT_EQ(appended.monomial_count, polys_.SizeM() + 1);

  // Fresh generation: not a cache hit, but answered by patching the
  // cached predecessor — the hook (full runs only) must NOT fire.
  Response second = service_->Compress(creq);
  ASSERT_TRUE(second.ok()) << second.message;
  EXPECT_FALSE(second.cache_hit);
  EXPECT_TRUE(second.delta_patched);
  EXPECT_EQ(full_runs_.load(), 1) << "patched compress ran the full DP";
  EXPECT_EQ(second.stats.delta_patched, 1u);
  EXPECT_EQ(second.stats.delta_fallback_full, 0u);

  // Field equality against a local cold DP over the appended set.
  PolynomialSet grown = polys_;
  grown.Add(Polynomial::FromMonomials({Monomial(2.5, {{kept_leaf_, 1}})}));
  auto cold = OptimalSingleTree(grown, forest_, 0, bound_);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(second.monomial_loss, cold->loss.monomial_loss);
  EXPECT_EQ(second.variable_loss, cold->loss.variable_loss);
  EXPECT_EQ(second.adequate, cold->adequate);
  EXPECT_EQ(second.compressed_monomials,
            cold->Apply(forest_, grown).SizeM());

  // The patched result is cached like any other fill.
  Response third = service_->Compress(creq);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third.cache_hit);
  EXPECT_FALSE(third.delta_patched);
  EXPECT_EQ(full_runs_.load(), 1);
}

// Publishing a generation's result drops its ancestors' results under the
// same key: nothing can reach them, since requests resolve the current
// artifact. A full reload severs the ancestry and erases nothing.
TEST_F(IncrementalServiceTest, SupersededResultsAreDroppedOnPublish) {
  CompressRequest creq;
  creq.artifact = "inc";
  creq.forest = "t";
  creq.algo = "opt";
  creq.bound = bound_;
  ASSERT_TRUE(service_->Compress(creq).ok());
  EXPECT_EQ(service_->store().stats().result_count, 1u);

  AppendRequest areq;
  areq.artifact = "inc";
  areq.polys_bytes = AppendBytes();
  ASSERT_TRUE(service_->Append(areq).ok());
  Response patched = service_->Compress(creq);
  ASSERT_TRUE(patched.ok()) << patched.message;
  EXPECT_TRUE(patched.delta_patched);
  EXPECT_EQ(service_->store().stats().result_count, 1u);

  // Two appends before the next compress: the patch reaches back past the
  // uncompressed middle generation, and the publish still leaves one.
  ASSERT_TRUE(service_->Append(areq).ok());
  ASSERT_TRUE(service_->Append(areq).ok());
  ASSERT_TRUE(service_->Compress(creq).ok());
  EXPECT_EQ(service_->store().stats().result_count, 1u);

  LoadRequest reload;
  reload.artifact = "inc";
  reload.polys_bytes = polys_bytes_;
  reload.forests = {{"t", forest_bytes_}};
  ASSERT_TRUE(service_->Load(reload).ok());
  ASSERT_TRUE(service_->Compress(creq).ok());
  EXPECT_EQ(service_->store().stats().result_count, 2u);
}

// A forest-only Load rebuilds the artifact's current polynomials, appends
// included, into a fresh table.
TEST_F(IncrementalServiceTest, ForestOnlyLoadAfterAppendKeepsTheAppends) {
  AppendRequest areq;
  areq.artifact = "inc";
  areq.polys_bytes = AppendBytes();
  ASSERT_TRUE(service_->Append(areq).ok());

  AbstractionForest second;
  second.AddTree(BuildUniformTree(vars_, leaves_, {2, 2, 2}, "INC2_"));
  LoadRequest forest_only;
  forest_only.artifact = "inc";
  forest_only.forests = {{"t2", SerializeForest(second, vars_)}};
  Response loaded = service_->Load(forest_only);
  ASSERT_TRUE(loaded.ok()) << loaded.message;
  EXPECT_EQ(loaded.poly_count, polys_.count() + 1);
  EXPECT_EQ(loaded.monomial_count, polys_.SizeM() + 1);
  EXPECT_EQ(loaded.variable_count, leaves_.size());

  PolynomialSet grown = polys_;
  grown.Add(Polynomial::FromMonomials({Monomial(2.5, {{kept_leaf_, 1}})}));
  EvaluateRequest ereq;
  ereq.artifact = "inc";
  ereq.assignments = {{vars_.NameOf(kept_leaf_), 0.5}};
  Response raw = service_->Evaluate(ereq);
  ASSERT_TRUE(raw.ok()) << raw.message;
  Valuation val;
  val.Set(kept_leaf_, 0.5);
  std::vector<double> expected;
  for (const Polynomial& p : grown.polynomials()) {
    expected.push_back(val.Evaluate(p));
  }
  EXPECT_EQ(raw.values, expected);

  // Both forests compress the rebuilt set.
  for (const char* forest : {"t", "t2"}) {
    CompressRequest creq;
    creq.artifact = "inc";
    creq.forest = forest;
    creq.algo = "opt";
    creq.bound = bound_ + 1;
    Response compressed = service_->Compress(creq);
    ASSERT_TRUE(compressed.ok()) << forest << ": " << compressed.message;
  }
}

TEST_F(IncrementalServiceTest, GreedyAppendFallsBackToTheFullRun) {
  CompressRequest creq;
  creq.artifact = "inc";
  creq.forest = "t";
  creq.algo = "greedy";
  creq.bound = bound_;
  ASSERT_TRUE(service_->Compress(creq).ok());
  EXPECT_EQ(full_runs_.load(), 1);

  AppendRequest areq;
  areq.artifact = "inc";
  areq.polys_bytes = AppendBytes();
  ASSERT_TRUE(service_->Append(areq).ok());

  // Greedy results retain no DP state, so the nearest cached ancestor
  // settles it: fall back to a full run, counted as such.
  Response resp = service_->Compress(creq);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_FALSE(resp.delta_patched);
  EXPECT_EQ(full_runs_.load(), 2);
  EXPECT_EQ(resp.stats.delta_fallback_full, 1u);
  EXPECT_EQ(resp.stats.delta_patched, 0u);
}

TEST_F(IncrementalServiceTest, AppendErrorsAreStructured) {
  AppendRequest missing;
  missing.artifact = "nope";
  missing.polys_bytes = AppendBytes();
  EXPECT_EQ(service_->Append(missing).code, StatusCode::kNotFound);

  AppendRequest empty;
  empty.artifact = "inc";
  EXPECT_EQ(service_->Append(empty).code, StatusCode::kInvalidArgument);

  AppendRequest garbage;
  garbage.artifact = "inc";
  garbage.polys_bytes = "not a polynomial buffer";
  EXPECT_FALSE(service_->Append(garbage).ok());
}

TEST_F(IncrementalServiceTest, AppendRoundTripsThroughHandleFrame) {
  AppendRequest areq;
  areq.artifact = "inc";
  areq.polys_bytes = AppendBytes();
  bool shutdown = false;
  std::string reply =
      service_->HandleFrame(EncodeAppendRequest(areq), &shutdown);
  auto resp = DecodeResponse(reply);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->ok()) << resp->message;
  EXPECT_EQ(resp->poly_count, polys_.count() + 1);
  EXPECT_FALSE(shutdown);
}

}  // namespace
}  // namespace provabs
