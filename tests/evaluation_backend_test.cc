// Cross-backend differential battery for the evaluation-backend registry
// (core/evaluation_backend.h). Naive per-polynomial Valuation::Evaluate is
// the reference defining the canonical summation order; every registered
// backend — naive, compiled, simd_batch with each lane kind the host
// supports (scalar lanes forced, AVX2 lanes pinned, and the AVX-512 lanes
// auto picks where the host has them), the jit with its compiled-kernel
// fallback forced, and the jit's emitted native code where executable
// memory is usable — must reproduce it
// BITWISE (IEEE-754 bit comparison, never tolerance): floating-point
// add/mul are not associative, so exact equality certifies the identical
// operation sequence. Coverage: exponents > 1, unassigned variables
// (default 1.0), variables assigned but absent from the set, empty
// polynomials, empty sets, ragged batch sizes around the SIMD lane width,
// and post-abstraction sets (tree cuts and interned prox-group views).
//
// Also the home of the slot-mapping regression tests: a DenseValuation
// materialized against one compiled form must be rejected (not silently
// mis-indexed) when evaluated under another — the copy-then-Add hazard the
// fingerprint scheme exists for.

#include "core/evaluation_backend.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "algo/compressor.h"
#include "common/random.h"
#include "core/polynomial.h"
#include "core/polynomial_set.h"
#include "core/valuation.h"
#include "jit/jit_backend.h"
#include "parallel/thread_pool.h"
#include "server/evaluate_batcher.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The reference: per-polynomial naive Evaluate (Valuation::EvaluateAll
/// itself routes through the registry, so the reference must not use it).
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
        << which << ": polynomial " << i << " expected " << expected[i]
        << " got " << actual[i];
  }
}

/// Runs one backend over the whole scenario batch in a single
/// EvaluateBatch call and bit-compares every scenario against the naive
/// reference.
void RunBackendDifferential(const EvaluationBackend& backend,
                            const PolynomialSet& polys,
                            const std::vector<Valuation>& scenarios,
                            const std::string& which) {
  auto compiled = polys.Compiled();
  const size_t n = scenarios.size();
  std::vector<DenseValuation> dense;
  dense.reserve(n);
  for (const Valuation& val : scenarios) {
    dense.push_back(compiled->MaterializeValuation(val));
  }
  std::vector<const DenseValuation*> dense_ptrs(n);
  std::vector<std::vector<double>> out(
      n, std::vector<double>(compiled->poly_count()));
  std::vector<double*> out_ptrs(n);
  for (size_t s = 0; s < n; ++s) {
    dense_ptrs[s] = &dense[s];
    out_ptrs[s] = out[s].data();
  }
  Status status =
      backend.EvaluateBatch(*compiled, 0, compiled->poly_count(),
                            dense_ptrs.data(), out_ptrs.data(), n);
  ASSERT_TRUE(status.ok()) << which << ": " << status.ToString();
  for (size_t s = 0; s < n; ++s) {
    ExpectBitwiseEqual(NaiveEvaluateAll(scenarios[s], polys), out[s],
                       which + " scenario " + std::to_string(s));
  }
}

/// Every backend instance the battery pins: the four registered built-ins
/// plus forced variants — one simd_batch per mode, so each lane kind the
/// host supports runs (scalar lanes forced, AVX2 lanes pinned even where
/// the host would auto-pick AVX-512, and the auto lanes), and a
/// fallback-forced jit (so the compiled-kernel degradation path is
/// covered even where emitted code runs natively; the registered jit
/// instance covers the native path whenever the host permits it and CI's
/// NOJIT-forced run covers the env-knob route through the same fallback).
void RunAllBackendsDifferential(const PolynomialSet& polys,
                                const std::vector<Valuation>& scenarios) {
  const EvaluationBackendRegistry& registry =
      EvaluationBackendRegistry::Default();
  for (const std::string& name : registry.Names()) {
    RunBackendDifferential(*registry.Find(name), polys, scenarios,
                           "registered '" + name + "'");
  }
  for (SimdBatchBackend::Mode mode : {SimdBatchBackend::Mode::kForceScalar,
                                      SimdBatchBackend::Mode::kForceAvx2,
                                      SimdBatchBackend::Mode::kAuto}) {
    SimdBatchBackend simd(mode);
    RunBackendDifferential(
        simd, polys, scenarios,
        std::string("simd_batch(") + SimdLanesName(simd.lanes()) + ")");
  }
  EXPECT_EQ(SimdBatchBackend(SimdBatchBackend::Mode::kForceScalar).lanes(),
            SimdLanes::kScalar);
  EXPECT_NE(SimdBatchBackend(SimdBatchBackend::Mode::kForceAvx2).lanes(),
            SimdLanes::kAvx512);
  EXPECT_EQ(SimdBatchBackend(SimdBatchBackend::Mode::kAuto).lanes(),
            SimdBatchLanes());
  JitBackend jit_fallback(JitBackend::Mode::kForceFallback);
  EXPECT_FALSE(jit_fallback.Available());
  RunBackendDifferential(jit_fallback, polys, scenarios, "jit(fallback)");
  if (polys.count() > 0 && !scenarios.empty()) {
    EXPECT_GT(jit_fallback.stats().fallback_forced, 0u);
  }
  JitBackend jit_auto(JitBackend::Mode::kAuto);
  RunBackendDifferential(jit_auto, polys, scenarios,
                         JitNativeActive() ? "jit(native)" : "jit(nojit)");
}

PolynomialSet MakeRandomSet(Rng& rng, const std::vector<VariableId>& ids) {
  PolynomialSet polys;
  const size_t num_polys = rng.Uniform(9);  // 0 = empty set case
  for (size_t p = 0; p < num_polys; ++p) {
    std::vector<Monomial> terms;
    const size_t n_terms = rng.Uniform(14);  // 0 = empty polynomial case
    for (size_t t = 0; t < n_terms; ++t) {
      std::vector<Factor> factors;
      const size_t n_factors = rng.Uniform(5);
      for (size_t f = 0; f < n_factors; ++f) {
        factors.push_back(
            {ids[rng.Uniform(ids.size())],
             static_cast<uint32_t>(1 + rng.Uniform(4))});  // exponents 1..4
      }
      terms.emplace_back(rng.UniformReal(-10.0, 10.0), std::move(factors));
    }
    polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }
  return polys;
}

// --------------------------------------------------- registry units -----

TEST(EvaluationBackendRegistryTest, DefaultRegistersTheBuiltins) {
  const EvaluationBackendRegistry& registry =
      EvaluationBackendRegistry::Default();
  EXPECT_NE(registry.Find("naive"), nullptr);
  EXPECT_NE(registry.Find("compiled"), nullptr);
  EXPECT_NE(registry.Find("simd_batch"), nullptr);
  EXPECT_NE(registry.Find("jit"), nullptr);
  // Names come back sorted, so usage/error text is stable.
  EXPECT_EQ(registry.NamesCsv(), "compiled, jit, naive, simd_batch");

  const EvaluationBackend* simd = registry.Find("simd_batch");
  EXPECT_TRUE(simd->info().vectorized);
  EXPECT_TRUE(simd->info().deterministic);
  EXPECT_GT(simd->info().preferred_batch, 1u);
  EXPECT_FALSE(registry.Find("compiled")->info().vectorized);

  const EvaluationBackend* jit = registry.Find("jit");
  EXPECT_TRUE(jit->info().deterministic);
  EXPECT_FALSE(jit->info().vectorized);  // scalar per scenario, just faster
  EXPECT_EQ(jit->info().preferred_batch, 1u);

  // Every built-in except jit is unconditionally available; jit's
  // availability is the host's to decide (never true when forced off).
  EXPECT_TRUE(registry.Find("naive")->Available());
  EXPECT_TRUE(registry.Find("compiled")->Available());
  EXPECT_TRUE(registry.Find("simd_batch")->Available());
  EXPECT_EQ(jit->Available(), JitNativeActive());
}

TEST(EvaluationBackendRegistryTest, DuplicateNamesAreRejected) {
  EvaluationBackendRegistry registry;
  ASSERT_TRUE(RegisterBuiltinEvaluationBackends(registry).ok());
  Status dup = registry.Register(std::make_unique<SimdBatchBackend>());
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.message().find("'simd_batch' is already registered"),
            std::string::npos)
      << dup.message();
  EXPECT_FALSE(registry.Register(nullptr).ok());
}

TEST(EvaluationBackendRegistryTest, UnknownNameListsTheRegisteredSet) {
  const EvaluationBackendRegistry& registry =
      EvaluationBackendRegistry::Default();
  // Resolve, and ResolveForBatch at any width, fail alike.
  for (const auto& resolved :
       {registry.Resolve("turbo"), registry.ResolveForBatch("turbo", 1),
        registry.ResolveForBatch("turbo", 64)}) {
    ASSERT_FALSE(resolved.ok());
    EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(resolved.status().message().find(
                  "unknown evaluation backend 'turbo'"),
              std::string::npos)
        << resolved.status().message();
    EXPECT_NE(
        resolved.status().message().find("compiled, jit, naive, simd_batch"),
        std::string::npos)
        << resolved.status().message();
  }
}

/// The widths the routing tests probe: narrow (below one lane group) and
/// wide (one lane group or more).
constexpr size_t kNarrowWidths[] = {1, 2, 3};
constexpr size_t kWideWidths[] = {4, 5, 40, 1024};

/// Checks the width rule on a snapshot-free registry: batch 0 runs
/// compiled, narrow batches the jit when it is active (else compiled), and
/// wide batches simd_batch with either lane implementation.
void ExpectWidthRule(const EvaluationBackendRegistry& registry,
                     bool jit_active) {
  auto empty_batch = registry.ResolveForBatch("", 0);
  ASSERT_TRUE(empty_batch.ok());
  EXPECT_EQ((*empty_batch)->info().name, "compiled");
  for (size_t batch : kNarrowWidths) {
    auto backend = registry.ResolveForBatch("", batch);
    ASSERT_TRUE(backend.ok());
    EXPECT_EQ((*backend)->info().name, jit_active ? "jit" : "compiled")
        << "batch " << batch;
  }
  for (size_t batch : kWideWidths) {
    auto backend = registry.ResolveForBatch("", batch);
    ASSERT_TRUE(backend.ok());
    EXPECT_EQ((*backend)->info().name, "simd_batch") << "batch " << batch;
  }
}

TEST(EvaluationBackendRegistryTest, ResolveForBatchAutoPolicy) {
  const EvaluationBackendRegistry& registry =
      EvaluationBackendRegistry::Default();
  // Auto routing goes by width: one lane group (simd_batch's
  // preferred_batch) and up runs simd_batch, narrower calls run the jit
  // when it can emit native code (executable memory usable, not
  // force-disabled) and compiled otherwise. Both jit branches run in CI (a
  // scalar-lane, NOJIT-forced job runs this same test).
  EXPECT_EQ(registry.Find("simd_batch")->info().preferred_batch, 4u);
  ExpectWidthRule(registry, JitNativeActive());

  // An explicit name resolves strictly regardless of batch size — including
  // "jit" when unavailable (it degrades internally rather than failing).
  auto naive = registry.ResolveForBatch("naive", 1000);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ((*naive)->info().name, "naive");
  auto jit = registry.ResolveForBatch("jit", 1000);
  ASSERT_TRUE(jit.ok());
  EXPECT_EQ((*jit)->info().name, "jit");

  // An empty registry is the only hard failure of the auto policy.
  EvaluationBackendRegistry empty;
  EXPECT_FALSE(empty.ResolveForBatch("", 8).ok());
}

TEST(EvaluationBackendRegistryTest, ForceNojitDegradesAutoRouting) {
  // With PROVABS_EVAL_FORCE_NOJIT set the jit backend reports unavailable:
  // narrow calls run compiled, and wide calls still run simd_batch.
  // A fresh registry keeps the probe independent of Default()'s state.
  const char* saved = getenv("PROVABS_EVAL_FORCE_NOJIT");
  std::string saved_value = saved ? saved : "";
  setenv("PROVABS_EVAL_FORCE_NOJIT", "1", /*overwrite=*/1);

  EvaluationBackendRegistry registry;
  ASSERT_TRUE(RegisterBuiltinEvaluationBackends(registry).ok());
  EXPECT_FALSE(registry.Find("jit")->Available());
  ExpectWidthRule(registry, /*jit_active=*/false);

  // Explicit selection still works; the backend degrades internally.
  auto explicit_jit = registry.ResolveForBatch("jit", 1);
  ASSERT_TRUE(explicit_jit.ok());
  EXPECT_EQ((*explicit_jit)->info().name, "jit");

  if (saved) {
    setenv("PROVABS_EVAL_FORCE_NOJIT", saved_value.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("PROVABS_EVAL_FORCE_NOJIT");
  }
}

// ------------------------------------------------ break-even routing ---

/// A small set over fresh variables; every call yields a new compiled
/// snapshot, hence a new jit cache key.
std::shared_ptr<PolynomialSet> RoutingSet(VariableTable& vars) {
  const std::string tag = std::to_string(vars.size());
  VariableId x = vars.Intern("rx" + tag);
  VariableId y = vars.Intern("ry" + tag);
  auto polys = std::make_shared<PolynomialSet>();
  polys->Add(Polynomial::FromMonomials(
      {Monomial(1.5, {{x, 2}, {y, 1}}), Monomial(-0.25, {{y, 3}})}));
  polys->Add(Polynomial::FromMonomials({Monomial(4.0, {{x, 1}})}));
  return polys;
}

/// A set of kScalarLaneMinMonomials monomials over fresh variables, large
/// enough that simd_batch takes its wide calls with either lane
/// implementation: 8 polynomials of c * wx<k> * wy.
std::shared_ptr<PolynomialSet> WideRoutingSet(VariableTable& vars) {
  const std::string tag = std::to_string(vars.size());
  const VariableId y = vars.Intern("wy" + tag);
  auto polys = std::make_shared<PolynomialSet>();
  const size_t per_poly = kScalarLaneMinMonomials / 8;
  for (size_t p = 0; p < 8; ++p) {
    std::vector<Monomial> terms;
    for (size_t m = 0; m < per_poly; ++m) {
      const VariableId x =
          vars.Intern("wx" + tag + "_" + std::to_string(p * per_poly + m));
      terms.push_back(Monomial(0.5 + static_cast<double>(m), {{x, 1}, {y, 1}}));
    }
    polys->Add(Polynomial::FromMonomials(std::move(terms)));
  }
  return polys;
}

// With a snapshot, auto routing keeps a compiled form's narrow calls on the
// compiled kernel for its first kJitBreakEvenScenarios narrow scenarios,
// counting them on the snapshot, and only then sends them to the jit. Wide
// calls run simd_batch on either side of the break-even and never count,
// except on a set under kScalarLaneMinMonomials with scalar lanes, where
// they route like narrow ones. Explicit names and snapshot-free calls
// ignore the count and leave it untouched.
TEST(EvaluationBackendRegistryTest, SnapshotRoutesToJitOnlyPastBreakEven) {
  const EvaluationBackendRegistry& registry =
      EvaluationBackendRegistry::Default();
  EXPECT_EQ(registry.Find("jit")->info().break_even_scenarios,
            kJitBreakEvenScenarios);
  EXPECT_EQ(registry.Find("compiled")->info().break_even_scenarios, 0u);
  const bool jit_active = JitNativeActive();
  VariableTable vars;

  std::shared_ptr<const CompiledPolynomialSet> narrow =
      RoutingSet(vars)->Compiled();
  for (uint64_t i = 0; i < kJitBreakEvenScenarios; ++i) {
    auto backend = registry.ResolveForBatch("", 1, narrow.get());
    ASSERT_TRUE(backend.ok());
    ASSERT_EQ((*backend)->info().name, "compiled") << "scenario " << i;
  }
  EXPECT_EQ(narrow->interpreted_scenarios(), kJitBreakEvenScenarios);
  auto past = registry.ResolveForBatch("", 1, narrow.get());
  ASSERT_TRUE(past.ok());
  EXPECT_EQ((*past)->info().name, jit_active ? "jit" : "compiled");
  EXPECT_EQ(narrow->interpreted_scenarios(),
            kJitBreakEvenScenarios + (jit_active ? 0 : 1));

  // Past the break-even, wide calls on this three-monomial set run
  // simd_batch and leave the count alone with vector lanes. Scalar lanes
  // route them like narrow ones: to an active jit, else to simd_batch,
  // counted.
  const bool small_set_jit = SimdBatchLanes() == SimdLanes::kScalar;
  const uint64_t served = narrow->interpreted_scenarios();
  uint64_t wide_total = 0;
  for (size_t batch : kWideWidths) {
    auto after = registry.ResolveForBatch("", batch, narrow.get());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ((*after)->info().name,
              small_set_jit && jit_active ? "jit" : "simd_batch")
        << "batch " << batch;
    wide_total += batch;
  }
  EXPECT_EQ(narrow->interpreted_scenarios(),
            served + (small_set_jit && !jit_active ? wide_total : 0));

  // On a fresh snapshot of kScalarLaneMinMonomials monomials, wide batches
  // however many run simd_batch with either lane implementation and leave
  // the count at 0, while narrow widths 2 and 3 count their width.
  std::shared_ptr<const CompiledPolynomialSet> fresh =
      WideRoutingSet(vars)->Compiled();
  ASSERT_EQ(fresh->monomial_count(), kScalarLaneMinMonomials);
  for (size_t batch : kWideWidths) {
    auto first = registry.ResolveForBatch(
        "", kJitBreakEvenScenarios * batch, fresh.get());
    ASSERT_TRUE(first.ok());
    EXPECT_EQ((*first)->info().name, "simd_batch") << "batch " << batch;
  }
  EXPECT_EQ(fresh->interpreted_scenarios(), 0u);
  auto two = registry.ResolveForBatch("", 2, fresh.get());
  ASSERT_TRUE(two.ok());
  EXPECT_EQ((*two)->info().name, "compiled");
  auto three = registry.ResolveForBatch("", 3, fresh.get());
  ASSERT_TRUE(three.ok());
  EXPECT_EQ((*three)->info().name, "compiled");
  EXPECT_EQ(fresh->interpreted_scenarios(), 5u);

  std::shared_ptr<const CompiledPolynomialSet> untouched =
      RoutingSet(vars)->Compiled();
  auto explicit_jit = registry.ResolveForBatch("jit", 1, untouched.get());
  ASSERT_TRUE(explicit_jit.ok());
  EXPECT_EQ((*explicit_jit)->info().name, "jit");
  auto explicit_compiled =
      registry.ResolveForBatch("compiled", 1, untouched.get());
  ASSERT_TRUE(explicit_compiled.ok());
  EXPECT_EQ(untouched->interpreted_scenarios(), 0u);
}

// Through the serving batcher: a 1,000-scenario family on a fresh snapshot
// of kScalarLaneMinMonomials monomials runs simd_batch, with either lane
// implementation, and neither emits nor counts toward the break-even; the
// snapshot's first kJitBreakEvenScenarios width-1 evaluations leave the jit
// code cache's miss count unchanged, the next one emits and runs native
// code, and an explicit "jit" request emits on its first call. Every answer
// stays bitwise naive.
TEST(EvaluationBackendRoutingTest, BatcherEmitsOnlyPastBreakEven) {
  if (!JitNativeActive()) GTEST_SKIP() << "no native jit on this host";
  ThreadPool pool(1);
  EvaluateBatcher batcher(pool);
  const jit::JitCodeCache& cache = jit::JitCodeCache::Default();
  const auto* jit = dynamic_cast<const JitBackend*>(
      EvaluationBackendRegistry::Default().Find("jit"));
  ASSERT_NE(jit, nullptr);
  VariableTable vars;
  std::shared_ptr<PolynomialSet> polys = WideRoutingSet(vars);
  Valuation val;
  val.Set(vars.Find("wx0_7"), 0.75);
  val.Set(vars.Find("wy0"), 1.25);
  const std::vector<double> expected = NaiveEvaluateAll(val, *polys);

  const uint64_t misses = cache.stats().misses;
  const uint64_t native = jit->stats().native_batches;
  std::shared_ptr<const CompiledPolynomialSet> compiled = polys->Compiled();
  std::vector<DenseValuation> family(1000,
                                     compiled->MaterializeValuation(val));
  std::string ran;
  StatusOr<std::vector<std::vector<double>>> wide =
      batcher.EvaluateDense(polys, compiled, std::move(family), "", &ran);
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  EXPECT_EQ(ran, "simd_batch");
  ASSERT_EQ(wide->size(), 1000u);
  ExpectBitwiseEqual(expected, wide->back(), "wide family");
  EXPECT_EQ(cache.stats().misses, misses);
  EXPECT_EQ(jit->stats().native_batches, native);
  EXPECT_EQ(compiled->interpreted_scenarios(), 0u);

  for (uint64_t i = 0; i < kJitBreakEvenScenarios; ++i) {
    StatusOr<std::vector<double>> out = batcher.Evaluate(polys, val);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ExpectBitwiseEqual(expected, *out, "interpreted " + std::to_string(i));
  }
  EXPECT_EQ(cache.stats().misses, misses);
  EXPECT_EQ(jit->stats().native_batches, native);
  EXPECT_EQ(compiled->interpreted_scenarios(), kJitBreakEvenScenarios);

  StatusOr<std::vector<double>> crossed = batcher.Evaluate(polys, val);
  ASSERT_TRUE(crossed.ok()) << crossed.status().ToString();
  ExpectBitwiseEqual(expected, *crossed, "past break-even");
  EXPECT_EQ(cache.stats().misses, misses + 1);
  EXPECT_EQ(jit->stats().native_batches, native + 1);

  std::shared_ptr<PolynomialSet> fresh = RoutingSet(vars);
  StatusOr<std::vector<double>> forced = batcher.Evaluate(fresh, val, "jit");
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_EQ(cache.stats().misses, misses + 2);
  EXPECT_EQ(jit->stats().native_batches, native + 2);
}

// ----------------------------------- slot-mapping (fingerprint) guard ---

// The regression the fingerprint scheme exists for: copy a set (copies
// share the compiled snapshot), materialize a valuation, then mutate the
// original and recompile. The stale valuation indexes the OLD slot
// mapping; evaluating it under the new form must fail loudly instead of
// mis-indexing (before the fix this read wrong slots — or out of bounds
// once the new form had more slots).
TEST(EvaluationBackendFingerprintTest, StaleValuationAfterCopyAndAddFails) {
  VariableTable vars;
  VariableId x = vars.Intern("x");
  VariableId y = vars.Intern("y");
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials({Monomial(2.0, {{x, 1}})}));

  PolynomialSet copy = polys;
  auto old_form = copy.Compiled();
  Valuation val;
  val.Set(x, 3.0);
  DenseValuation stale = old_form->MaterializeValuation(val);
  EXPECT_EQ(stale.source_fingerprint(), old_form->fingerprint());

  // Mutate the original: its recompiled form has a different slot mapping
  // (y takes slot 0 of the new monomial's factors) and a new fingerprint.
  polys.Add(Polynomial::FromMonomials({Monomial(5.0, {{y, 1}, {x, 1}})}));
  auto new_form = polys.Compiled();
  ASSERT_NE(new_form->fingerprint(), old_form->fingerprint());

  const EvaluationBackend* backend =
      EvaluationBackendRegistry::Default().Find("compiled");
  double out_slot = 0;
  const DenseValuation* scenario = &stale;
  double* out_ptr = &out_slot;
  Status status = backend->EvaluateBatch(*new_form, 0, 1, &scenario,
                                         &out_ptr, 1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("different compiled form"),
            std::string::npos)
      << status.message();

  // Against the form it was materialized from, the same valuation is fine
  // — the snapshot outlives the mutation.
  Status ok = backend->EvaluateBatch(*old_form, 0, 1, &scenario, &out_ptr, 1);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_EQ(out_slot, 6.0);
}

TEST(EvaluationBackendFingerprintTest, CopiesShareTheCompiledSnapshot) {
  VariableTable vars;
  VariableId x = vars.Intern("x");
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials({Monomial(1.0, {{x, 2}})}));
  auto form = polys.Compiled();
  DenseValuation dense = form->MaterializeValuation(Valuation{});

  // A copy shares the snapshot, so the valuation stays valid for it.
  PolynomialSet copy = polys;
  auto copy_form = copy.Compiled();
  EXPECT_EQ(copy_form.get(), form.get());
  EXPECT_EQ(copy_form->fingerprint(), dense.source_fingerprint());

  // Identical CONTENT is not enough: an independently compiled twin has
  // its own fingerprint, because only the same snapshot guarantees the
  // same slot mapping.
  PolynomialSet twin;
  twin.Add(Polynomial::FromMonomials({Monomial(1.0, {{x, 2}})}));
  EXPECT_NE(twin.Compiled()->fingerprint(), form->fingerprint());
}

TEST(EvaluationBackendTest, RangeAndPointerValidation) {
  VariableTable vars;
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials(
      {Monomial(1.0, {{vars.Intern("x"), 1}})}));
  auto compiled = polys.Compiled();
  DenseValuation dense = compiled->MaterializeValuation(Valuation{});
  const DenseValuation* scenario = &dense;
  double out_slot = 0;
  double* out_ptr = &out_slot;
  const EvaluationBackend& backend =
      *EvaluationBackendRegistry::Default().Find("simd_batch");

  EXPECT_EQ(backend.EvaluateBatch(*compiled, 0, 2, &scenario, &out_ptr, 1)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(backend.EvaluateBatch(*compiled, 1, 0, &scenario, &out_ptr, 1)
                .code(),
            StatusCode::kInvalidArgument);
  const DenseValuation* null_scenario = nullptr;
  EXPECT_EQ(
      backend.EvaluateBatch(*compiled, 0, 1, &null_scenario, &out_ptr, 1)
          .code(),
      StatusCode::kInvalidArgument);
  // Empty ranges and empty batches are no-ops, not errors.
  EXPECT_TRUE(
      backend.EvaluateBatch(*compiled, 0, 0, &scenario, &out_ptr, 1).ok());
  EXPECT_TRUE(
      backend.EvaluateBatch(*compiled, 0, 1, nullptr, nullptr, 0).ok());
}

// ------------------------------------------- randomized differential ----

class BackendDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(BackendDifferentialTest, AllBackendsBitwiseIdenticalToNaive) {
  Rng rng(6200 + GetParam());
  VariableTable vars;
  const size_t num_vars = 3 + rng.Uniform(30);
  std::vector<VariableId> ids;
  for (size_t i = 0; i < num_vars; ++i) {
    ids.push_back(vars.Intern("v" + std::to_string(i)));
  }
  PolynomialSet polys = MakeRandomSet(rng, ids);

  // Ragged batch sizes straddling the SIMD lane width (4), the
  // eight-scenario pass and the 16-scenario AVX-512 pass: full and partial
  // passes, two- and one-group tails, single scenarios.
  const size_t batch = 1 + rng.Uniform(19);
  std::vector<Valuation> scenarios;
  for (size_t s = 0; s < batch; ++s) {
    Valuation val;
    // A random subset assigned (some scenarios assign nothing), plus a
    // variable outside the set entirely.
    for (VariableId id : ids) {
      if (rng.Bernoulli(0.6)) val.Set(id, rng.UniformReal(-2.0, 2.0));
    }
    val.Set(vars.Intern("outside"), 99.0);
    scenarios.push_back(std::move(val));
  }

  RunAllBackendsDifferential(polys, scenarios);
}

INSTANTIATE_TEST_SUITE_P(RandomSets, BackendDifferentialTest,
                         ::testing::Range(0, 24));

// A deterministic width sweep: widths 1-33 and 1,023-1,025 cover every
// live-lane count of simd_batch's 16-scenario AVX-512 pass (9-16), of its
// eight-scenario pass (5-8, the AVX2 pass and the two-group tail) and of
// its one-group tail (1-4), after zero, one, two and many full passes.
// Every pinned backend instance runs each width on one set whose factors
// have exponents 1-4, so the kernels walk runs of repeated slot entries.
TEST(BackendWidthSweepTest, EveryLaneCountStaysBitwiseIdenticalToNaive) {
  Rng rng(6300);
  VariableTable vars;
  std::vector<VariableId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(vars.Intern("w" + std::to_string(i)));
  }
  PolynomialSet polys;
  for (int p = 0; p < 6; ++p) {
    std::vector<Monomial> terms;
    for (int t = 0; t < 10; ++t) {
      // Distinct variables, so each factor keeps its drawn exponent.
      std::vector<Factor> factors;
      const size_t first = rng.Uniform(ids.size());
      const size_t arity = 1 + rng.Uniform(4);
      for (size_t f = 0; f < arity; ++f) {
        factors.push_back({ids[(first + f) % ids.size()],
                           static_cast<uint32_t>(1 + rng.Uniform(4))});
      }
      terms.emplace_back(rng.UniformReal(-10.0, 10.0), std::move(factors));
    }
    polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }

  std::vector<size_t> widths = {1023, 1024, 1025};
  for (size_t width = 1; width <= 33; ++width) widths.push_back(width);
  for (size_t width : widths) {
    std::vector<Valuation> scenarios(width);
    for (Valuation& val : scenarios) {
      for (VariableId id : ids) {
        if (rng.Bernoulli(0.8)) val.Set(id, rng.UniformReal(-2.0, 2.0));
      }
    }
    SCOPED_TRACE("width " + std::to_string(width));
    RunAllBackendsDifferential(polys, scenarios);
  }
}

// Post-abstraction coverage: backends must agree with naive on sets
// produced by the compression algorithms — tree cuts substitute
// meta-variables in, and prox's InternGrouping introduces freshly interned
// group variables whose ids are far from the original dense range.
TEST(BackendAbstractionTest, CutAndGroupingViewsStayBitwiseEqual) {
  Rng rng(888);
  VariableTable vars;
  std::vector<VariableId> leaves;
  for (int i = 0; i < 16; ++i) {
    leaves.push_back(vars.Intern("x" + std::to_string(i)));
  }
  VariableId m = vars.Intern("m");

  PolynomialSet polys;
  for (int p = 0; p < 4; ++p) {
    std::vector<Monomial> terms;
    for (int t = 0; t < 20; ++t) {
      std::vector<Factor> f;
      f.push_back({leaves[rng.Uniform(leaves.size())],
                   static_cast<uint32_t>(1 + rng.Uniform(2))});
      if (rng.Bernoulli(0.5)) f.push_back({m, 1});
      terms.emplace_back(rng.UniformReal(0.5, 9.5), std::move(f));
    }
    polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }

  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(vars, leaves, {4, 2}, "EB_"));
  ASSERT_TRUE(forest.CheckCompatible(polys).ok());
  CompressOptions options;
  options.bound = polys.SizeM() / 2;

  auto greedy = CompressorRegistry::Default().Find("greedy")->Compress(
      polys, forest, options);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  PolynomialSet cut_view = greedy->Apply(forest, polys);

  auto prox = CompressorRegistry::Default().Find("prox")->Compress(
      polys, forest, options);
  ASSERT_TRUE(prox.ok()) << prox.status().ToString();
  prox->InternGrouping(vars);
  PolynomialSet group_view = prox->Apply(forest, polys);

  for (const PolynomialSet* view : {&cut_view, &group_view}) {
    std::vector<Valuation> scenarios;
    for (int s = 0; s < 9; ++s) {
      Valuation val;
      for (VariableId v : view->Variables()) {
        if (rng.Bernoulli(0.7)) val.Set(v, rng.UniformReal(0.25, 1.75));
      }
      scenarios.push_back(std::move(val));
    }
    RunAllBackendsDifferential(*view, scenarios);
  }
}

}  // namespace
}  // namespace provabs
