// EvaluateBatcher behavior under the backend registry: each call runs one
// EvaluateBatch on the calling thread unless its scenarios × monomials
// exceed the split threshold, and then one per monomial-balanced range
// across the pool, observed through a counting backend injected via the
// registry parameter. Also: ragged concurrent callers around the SIMD lane
// width, backend selection and error propagation per call, and callers
// that keep evaluating their own snapshot while the set grows under them.
// Every answer is bitwise naive on both sides of the threshold.
//
// The concurrent sections run under TSan in CI (this suite is in the
// thread-sanitizer job's list) to certify concurrent callers sharing one
// pool.

#include "server/evaluate_batcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/evaluation_backend.h"
#include "core/polynomial.h"
#include "core/polynomial_set.h"
#include "core/valuation.h"
#include "parallel/thread_pool.h"

namespace provabs {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<double> NaiveEvaluateAll(const Valuation& val,
                                     const PolynomialSet& polys) {
  std::vector<double> out;
  out.reserve(polys.count());
  for (const Polynomial& p : polys.polynomials()) {
    out.push_back(val.Evaluate(p));
  }
  return out;
}

void ExpectBitwiseEqual(const std::vector<double>& expected,
                        const std::vector<double>& actual,
                        const std::string& which) {
  ASSERT_EQ(expected.size(), actual.size()) << which;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(Bits(expected[i]), Bits(actual[i]))
        << which << ": polynomial " << i;
  }
}

/// A few polynomials over a handful of variables — small enough that the
/// whole set is one chunk on a one-thread pool, rich enough (exponents,
/// shared variables) that slot-mapping mistakes would change bits.
std::shared_ptr<PolynomialSet> MakeSet(Rng& rng, VariableTable& vars,
                                       size_t num_polys, const char* prefix) {
  std::vector<VariableId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(vars.Intern(std::string(prefix) + std::to_string(i)));
  }
  auto polys = std::make_shared<PolynomialSet>();
  for (size_t p = 0; p < num_polys; ++p) {
    std::vector<Monomial> terms;
    const size_t n_terms = 1 + rng.Uniform(6);
    for (size_t t = 0; t < n_terms; ++t) {
      std::vector<Factor> factors;
      const size_t n_factors = 1 + rng.Uniform(3);
      for (size_t f = 0; f < n_factors; ++f) {
        factors.push_back({ids[rng.Uniform(ids.size())],
                           static_cast<uint32_t>(1 + rng.Uniform(3))});
      }
      terms.emplace_back(rng.UniformReal(-4.0, 4.0), std::move(factors));
    }
    polys->Add(Polynomial::FromMonomials(std::move(terms)));
  }
  return polys;
}

Valuation MakeScenario(Rng& rng, const PolynomialSet& polys) {
  Valuation val;
  for (VariableId v : polys.Variables()) {
    if (rng.Bernoulli(0.7)) val.Set(v, rng.UniformReal(-1.5, 1.5));
  }
  return val;
}

/// Delegates to the compiled scalar walk but records every EvaluateBatch
/// dispatch: the thread it ran on and its polynomial range.
class CountingBackend : public EvaluationBackend {
 public:
  struct Dispatch {
    std::thread::id thread;
    size_t poly_begin;
    size_t poly_end;
    size_t width;
  };

  const EvaluationBackendInfo& info() const override {
    static const EvaluationBackendInfo kInfo = {
        "counting", "compiled walk that counts dispatches", false, true, 1};
    return kInfo;
  }

  std::vector<Dispatch> dispatches() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dispatches_;
  }

 protected:
  void DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                       size_t poly_begin, size_t poly_end,
                       const DenseValuation* const* scenarios,
                       double* const* outs,
                       size_t scenario_count) const override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      dispatches_.push_back(Dispatch{std::this_thread::get_id(), poly_begin,
                                     poly_end, scenario_count});
    }
    for (size_t s = 0; s < scenario_count; ++s) {
      compiled.EvaluateRange(poly_begin, poly_end, *scenarios[s], outs[s]);
    }
  }

 private:
  // mutable: DoEvaluateBatch is const on the backend interface.
  mutable std::mutex mutex_;
  mutable std::vector<Dispatch> dispatches_;
};

/// A registry holding the built-ins plus a CountingBackend (`*counter`).
std::unique_ptr<EvaluationBackendRegistry> CountingRegistry(
    CountingBackend** counter) {
  auto registry = std::make_unique<EvaluationBackendRegistry>();
  EXPECT_TRUE(RegisterBuiltinEvaluationBackends(*registry).ok());
  auto counting = std::make_unique<CountingBackend>();
  *counter = counting.get();
  EXPECT_TRUE(registry->Register(std::move(counting)).ok());
  return registry;
}

/// `n` scenarios materialized against `compiled`, with their naive answers.
void MakeDenseScenarios(Rng& rng, const PolynomialSet& polys,
                        const CompiledPolynomialSet& compiled, size_t n,
                        std::vector<DenseValuation>* dense,
                        std::vector<std::vector<double>>* expected) {
  for (size_t s = 0; s < n; ++s) {
    const Valuation val = MakeScenario(rng, polys);
    dense->push_back(compiled.MaterializeValuation(val));
    expected->push_back(NaiveEvaluateAll(val, polys));
  }
}

/// Fires `n` concurrent Evaluate calls at one batcher and bit-checks every
/// result against the naive reference.
void RunConcurrent(EvaluateBatcher& batcher,
                   std::shared_ptr<const PolynomialSet> polys,
                   const std::vector<Valuation>& scenarios,
                   const std::string& backend = "") {
  const size_t n = scenarios.size();
  std::vector<StatusOr<std::vector<double>>> results(
      n, StatusOr<std::vector<double>>(Status::Internal("unset")));
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      results[c] = batcher.Evaluate(polys, scenarios[c], backend);
    });
  }
  for (auto& t : threads) t.join();
  for (size_t c = 0; c < n; ++c) {
    ASSERT_TRUE(results[c].ok()) << results[c].status().ToString();
    ExpectBitwiseEqual(NaiveEvaluateAll(scenarios[c], *polys), *results[c],
                       "caller " + std::to_string(c));
  }
}

// Ragged widths around simd_batch's eight-scenario pass (two lane groups
// of its preferred width, 4): one scenario, one under a pass, exactly one,
// one over, 10x, and one family just past the split threshold, each
// EvaluateDense call from its own thread at once on one shared pool. The wide call runs as one EvaluateBatch per
// monomial-balanced range, every other call as one.
TEST(EvaluateBatcherTest, RaggedBatchSizesStayBitwiseCorrect) {
  Rng rng(31000);
  VariableTable vars;
  auto polys = MakeSet(rng, vars, 6, "r");
  std::shared_ptr<const CompiledPolynomialSet> compiled = polys->Compiled();
  ThreadPool pool(4);
  EvaluateBatcher batcher(pool);
  const size_t wide =
      EvaluateBatcher::kSplitWork / compiled->monomial_count() + 1;
  const std::vector<size_t> widths = {1, 7, 8, 9, 80, wide};
  std::vector<std::vector<DenseValuation>> dense(widths.size());
  std::vector<std::vector<std::vector<double>>> expected(widths.size());
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    MakeDenseScenarios(rng, *polys, *compiled, widths[c], &dense[c],
                       &expected[c]);
    total += widths[c];
  }

  std::vector<StatusOr<std::vector<std::vector<double>>>> results(
      widths.size(),
      StatusOr<std::vector<std::vector<double>>>(Status::Internal("unset")));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < widths.size(); ++c) {
    threads.emplace_back([&, c] {
      results[c] = batcher.EvaluateDense(polys, compiled, dense[c]);
    });
  }
  for (auto& t : threads) t.join();
  for (size_t c = 0; c < widths.size(); ++c) {
    ASSERT_TRUE(results[c].ok()) << results[c].status().ToString();
    ASSERT_EQ(results[c]->size(), widths[c]);
    for (size_t s = 0; s < widths[c]; ++s) {
      ExpectBitwiseEqual(expected[c][s], (*results[c])[s],
                         "width " + std::to_string(widths[c]));
    }
  }

  const size_t ranges =
      MonomialBalancedRanges(*compiled, pool.thread_count()).size() - 1;
  ASSERT_GT(ranges, 1u);
  EvaluateBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.calls, widths.size());
  EXPECT_EQ(stats.backend_calls, widths.size() - 1 + ranges);
}

// Explicit backend names route per call — concurrent callers naming
// different backends each run the one they named, and all of them stay
// bitwise equal to naive.
TEST(EvaluateBatcherTest, PerRequestBackendSelection) {
  Rng rng(31001);
  VariableTable vars;
  auto polys = MakeSet(rng, vars, 5, "b");
  ThreadPool pool(2);
  EvaluateBatcher batcher(pool);

  for (const char* backend : {"naive", "compiled", "simd_batch", "jit", ""}) {
    std::vector<Valuation> scenarios;
    for (int s = 0; s < 9; ++s) scenarios.push_back(MakeScenario(rng, *polys));
    RunConcurrent(batcher, polys, scenarios, backend);
  }

  // Mixed names from concurrent callers; each echoes the backend that ran.
  const std::vector<std::string> names = {"naive", "compiled", "simd_batch",
                                          "", "jit", "naive"};
  std::vector<Valuation> scenarios;
  for (size_t s = 0; s < names.size(); ++s) {
    scenarios.push_back(MakeScenario(rng, *polys));
  }
  std::vector<StatusOr<std::vector<double>>> results(
      names.size(), StatusOr<std::vector<double>>(Status::Internal("unset")));
  std::vector<std::string> ran(names.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < names.size(); ++c) {
    threads.emplace_back([&, c] {
      results[c] = batcher.Evaluate(polys, scenarios[c], names[c], &ran[c]);
    });
  }
  for (auto& t : threads) t.join();
  for (size_t c = 0; c < names.size(); ++c) {
    ASSERT_TRUE(results[c].ok()) << results[c].status().ToString();
    ExpectBitwiseEqual(NaiveEvaluateAll(scenarios[c], *polys), *results[c],
                       "backend '" + names[c] + "'");
    if (!names[c].empty()) {
      EXPECT_EQ(ran[c], names[c]);
    }
    EXPECT_NE(EvaluationBackendRegistry::Default().Find(ran[c]), nullptr)
        << "'" << ran[c] << "'";
  }
}

TEST(EvaluateBatcherTest, UnknownBackendFailsWithoutPoisoningTheRound) {
  Rng rng(31002);
  VariableTable vars;
  auto polys = MakeSet(rng, vars, 4, "u");
  ThreadPool pool(2);
  EvaluateBatcher batcher(pool);

  // A bad request and good requests race into the same batcher: the bad
  // one gets the registry's name-listing error, the good ones complete.
  Valuation good_val = MakeScenario(rng, *polys);
  StatusOr<std::vector<double>> bad(Status::Internal("unset"));
  StatusOr<std::vector<double>> good(Status::Internal("unset"));
  std::thread t1([&] { bad = batcher.Evaluate(polys, Valuation{}, "turbo"); });
  std::thread t2([&] { good = batcher.Evaluate(polys, good_val); });
  t1.join();
  t2.join();

  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("unknown evaluation backend 'turbo'"),
            std::string::npos)
      << bad.status().message();
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ExpectBitwiseEqual(NaiveEvaluateAll(good_val, *polys), *good, "good");
}

// Mid-flight Add: readers keep evaluating the snapshot they hold while a
// writer grows the set under them the way the server publishes a
// generation — copy (which shares the compiled snapshot), Add (which gives
// the copy a new one), evaluate the copy. Half the readers, and every
// other write, run a family past the split threshold, so direct calls and
// calls split across the shared pool interleave. Every answer is bitwise
// correct against its own set, with no fingerprint rejections.
TEST(EvaluateBatcherTest, CallersAcrossMidFlightAddKeepTheirSnapshots) {
  Rng rng(31003);
  VariableTable vars;
  ThreadPool pool(4);
  EvaluateBatcher batcher(pool);
  auto original = MakeSet(rng, vars, 4, "m");
  std::shared_ptr<const CompiledPolynomialSet> original_form =
      original->Compiled();  // warm the cache so copies share the snapshot
  const VariableId m0 = vars.Intern("m0");
  const VariableId fresh = vars.Intern("fresh");
  // Wide enough to split on every generation below.
  const size_t wide =
      EvaluateBatcher::kSplitWork / original_form->monomial_count() + 1;

  constexpr size_t kReaders = 6;
  constexpr int kReads = 8;
  constexpr int kGenerations = 12;
  std::vector<Valuation> reads;
  for (size_t c = 0; c < kReaders; ++c) {
    reads.push_back(MakeScenario(rng, *original));
  }
  Valuation grown_val = MakeScenario(rng, *original);
  grown_val.Set(fresh, 0.75);

  std::atomic<int> failures{0};
  auto same_bits = [](const std::vector<double>& got,
                      const std::vector<double>& want) {
    return got.size() == want.size() &&
           std::memcmp(got.data(), want.data(),
                       want.size() * sizeof(double)) == 0;
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kReaders; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<double> want = NaiveEvaluateAll(reads[c], *original);
      const std::vector<DenseValuation> family(
          c % 2 == 0 ? 1 : wide,
          original_form->MaterializeValuation(reads[c]));
      for (int r = 0; r < kReads; ++r) {
        auto got = batcher.EvaluateDense(original, original_form, family);
        if (!got.ok() || got->size() != family.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (const std::vector<double>& values : *got) {
          if (!same_bits(values, want)) failures.fetch_add(1);
        }
      }
    });
  }
  std::shared_ptr<const PolynomialSet> current = original;
  for (int g = 1; g <= kGenerations; ++g) {
    auto next = std::make_shared<PolynomialSet>(*current);
    next->Add(Polynomial::FromMonomials(
        {Monomial(0.5 + g, {{m0, 2}, {fresh, 1}})}));
    std::shared_ptr<const CompiledPolynomialSet> form = next->Compiled();
    const std::vector<double> want = NaiveEvaluateAll(grown_val, *next);
    const std::vector<DenseValuation> family(
        g % 2 == 0 ? 1 : wide, form->MaterializeValuation(grown_val));
    auto got = batcher.EvaluateDense(next, form, family);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), family.size());
    for (const std::vector<double>& values : *got) {
      ASSERT_EQ(values.size(), original->count() + g);
      ExpectBitwiseEqual(want, values, "generation " + std::to_string(g));
    }
    current = std::move(next);
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(batcher.stats().backend_calls, batcher.stats().calls);
}

// The split threshold, observed through a counting backend: a call whose
// scenarios × monomials is at most kSplitWork is exactly ONE EvaluateBatch
// on the calling thread, even on a wide pool; one past it is one
// EvaluateBatch per pool thread, on pool threads, over contiguous
// polynomial ranges holding about equal numbers of monomials. Bitwise
// naive on both sides.
TEST(EvaluateBatcherTest, DispatchFollowsTheSplitThreshold) {
  Rng rng(31006);
  VariableTable vars;
  auto polys = MakeSet(rng, vars, 64, "c");
  std::shared_ptr<const CompiledPolynomialSet> compiled = polys->Compiled();
  const uint64_t monomials = compiled->monomial_count();
  const size_t below = EvaluateBatcher::kSplitWork / monomials;
  ASSERT_GE(below, 1u);

  CountingBackend* counter = nullptr;
  auto registry = CountingRegistry(&counter);
  ThreadPool pool(4);
  EvaluateBatcher batcher(pool, registry.get());

  for (size_t width : {below, below + 1}) {
    std::vector<DenseValuation> dense;
    std::vector<std::vector<double>> expected;
    MakeDenseScenarios(rng, *polys, *compiled, width, &dense, &expected);
    const size_t before = counter->dispatches().size();
    StatusOr<std::vector<std::vector<double>>> got =
        batcher.EvaluateDense(polys, compiled, std::move(dense), "counting");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), width);
    for (size_t s = 0; s < width; ++s) {
      ExpectBitwiseEqual(expected[s], (*got)[s],
                         "width " + std::to_string(width));
    }

    std::vector<CountingBackend::Dispatch> calls = counter->dispatches();
    calls.erase(calls.begin(), calls.begin() + before);
    if (width * monomials <= EvaluateBatcher::kSplitWork) {
      ASSERT_EQ(calls.size(), 1u) << "width " << width;
      EXPECT_EQ(calls[0].thread, std::this_thread::get_id());
      EXPECT_EQ(calls[0].poly_begin, 0u);
      EXPECT_EQ(calls[0].poly_end, polys->count());
      EXPECT_EQ(calls[0].width, width);
      continue;
    }
    ASSERT_EQ(calls.size(), pool.thread_count()) << "width " << width;
    std::sort(calls.begin(), calls.end(), [](const auto& a, const auto& b) {
      return a.poly_begin < b.poly_begin;
    });
    const uint32_t* offsets = compiled->csr().poly_offsets;
    uint32_t largest = 0;
    for (size_t p = 0; p < polys->count(); ++p) {
      largest = std::max(largest, offsets[p + 1] - offsets[p]);
    }
    size_t next = 0;
    for (const CountingBackend::Dispatch& call : calls) {
      EXPECT_NE(call.thread, std::this_thread::get_id());
      EXPECT_EQ(call.width, width);
      EXPECT_EQ(call.poly_begin, next);
      EXPECT_LT(call.poly_begin, call.poly_end);
      next = call.poly_end;
      const uint64_t share = offsets[call.poly_end] - offsets[call.poly_begin];
      EXPECT_LE(share, monomials / pool.thread_count() + largest);
    }
    EXPECT_EQ(next, polys->count());
  }

  EvaluateBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, 2 * below + 1);
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_EQ(stats.backend_calls, 1 + pool.thread_count());
}

// Exactly one dispatch per call below the threshold: concurrent width-1
// callers on a wide pool each run their one EvaluateBatch on their own
// thread, counted by an injected backend and cross-checked against stats.
TEST(EvaluateBatcherTest, ExactlyOneDispatchPerCallBelowTheThreshold) {
  Rng rng(31004);
  VariableTable vars;
  auto polys = MakeSet(rng, vars, 7, "c");

  CountingBackend* counter = nullptr;
  auto registry = CountingRegistry(&counter);
  ThreadPool pool(4);
  EvaluateBatcher batcher(pool, registry.get());

  constexpr size_t kCallers = 16;
  constexpr int kRounds = 4;
  size_t total = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Valuation> scenarios;
    for (size_t s = 0; s < kCallers; ++s) {
      scenarios.push_back(MakeScenario(rng, *polys));
    }
    RunConcurrent(batcher, polys, scenarios, "counting");
    total += kCallers;
  }

  EvaluateBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.calls, total);
  EXPECT_EQ(stats.backend_calls, total);
  const std::vector<CountingBackend::Dispatch> calls = counter->dispatches();
  ASSERT_EQ(calls.size(), total);
  for (const CountingBackend::Dispatch& call : calls) {
    EXPECT_EQ(call.width, 1u);
    EXPECT_EQ(call.poly_begin, 0u);
    EXPECT_EQ(call.poly_end, polys->count());
  }
}

// Soak: sustained waves of concurrent callers through one batcher and one
// pool — counters and bitwise correctness hold over many waves.
TEST(EvaluateBatcherTest, ManyRoundsSoak) {
  Rng rng(31005);
  VariableTable vars;
  auto polys = MakeSet(rng, vars, 5, "s");
  ThreadPool pool(4);
  EvaluateBatcher batcher(pool);

  constexpr int kWaves = 20;
  constexpr size_t kCallers = 6;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<Valuation> scenarios;
    for (size_t s = 0; s < kCallers; ++s) {
      scenarios.push_back(MakeScenario(rng, *polys));
    }
    RunConcurrent(batcher, polys, scenarios,
                  wave % 2 == 0 ? "" : "simd_batch");
  }
  EXPECT_EQ(batcher.stats().requests, kWaves * kCallers);
}

}  // namespace
}  // namespace provabs
