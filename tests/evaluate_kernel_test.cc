// Differential suite for the compiled evaluation kernel
// (core/compiled_polynomial_set.h): naive per-polynomial Evaluate is the
// reference defining the canonical summation order; the compiled kernel
// and the serving evaluator, for one scenario and for a family, must
// reproduce it BITWISE — floating-point add/mul are not associative, so
// exact equality is only possible if every path performs the identical
// operation sequence. Coverage: exponents > 1, unassigned variables
// (default 1.0), variables assigned but absent from the set, empty
// polynomials, empty sets, and post-abstraction sets (tree cuts and
// interned prox groups).
//
// The evaluator arms run under TSan in CI (evaluate_kernel_test is in the
// thread-sanitizer job's suite list) to certify the lazy Compiled() cache
// and the shared DenseValuation reads.

#include "core/compiled_polynomial_set.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/compressor.h"
#include "common/random.h"
#include "core/evaluation_backend.h"
#include "core/polynomial.h"
#include "core/polynomial_set.h"
#include "core/valuation.h"
#include "parallel/thread_pool.h"
#include "server/evaluate_batcher.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

/// Bit pattern of a double, so "identical" means identical IEEE-754 bits
/// (distinguishes -0.0 from 0.0 and would catch NaN-payload drift too).
uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The reference: per-polynomial naive Evaluate (EvaluateAll itself now
/// routes through the compiled kernel, so the reference must not use it).
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
                        const char* which) {
  ASSERT_EQ(expected.size(), actual.size()) << which;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(Bits(expected[i]), Bits(actual[i]))
        << which << ": polynomial " << i << " expected " << expected[i]
        << " got " << actual[i];
  }
}

/// Runs every evaluation path against the naive reference.
void RunAllPathsDifferential(const Valuation& val, const PolynomialSet& polys,
                             ThreadPool& pool) {
  const std::vector<double> expected = NaiveEvaluateAll(val, polys);

  ExpectBitwiseEqual(expected, val.EvaluateAll(polys), "EvaluateAll");

  std::shared_ptr<const CompiledPolynomialSet> compiled = polys.Compiled();
  const DenseValuation dense = compiled->MaterializeValuation(val);
  ExpectBitwiseEqual(expected, compiled->EvaluateAll(dense),
                     "compiled EvaluateAll");
  for (size_t i = 0; i < polys.count(); ++i) {
    ASSERT_EQ(Bits(expected[i]), Bits(compiled->EvaluateOne(i, dense)))
        << "EvaluateOne " << i;
  }

  auto shared = std::make_shared<PolynomialSet>(polys);
  EvaluateBatcher batcher(pool);
  StatusOr<std::vector<double>> batched = batcher.Evaluate(shared, val);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ExpectBitwiseEqual(expected, *batched, "EvaluateBatcher");

  // A 16-scenario family of the same valuation: one batch, SIMD lanes.
  auto family = batcher.EvaluateDense(
      shared, compiled, std::vector<DenseValuation>(16, dense));
  ASSERT_TRUE(family.ok()) << family.status().ToString();
  for (const std::vector<double>& values : *family) {
    ExpectBitwiseEqual(expected, values, "EvaluateBatcher family");
  }
}

// ------------------------------------------------- structure units ------

TEST(CompiledPolynomialSetTest, CsrLayoutCountsMatchTheSource) {
  VariableTable vars;
  VariableId x = vars.Intern("x");
  VariableId y = vars.Intern("y");
  VariableId z = vars.Intern("z");
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials({
      Monomial(2.0, {{x, 1}, {y, 2}}),
      Monomial(3.0, {{z, 1}}),
  }));
  polys.Add(Polynomial());  // empty polynomial
  polys.Add(Polynomial::FromMonomials({Monomial(5.0, {{y, 3}})}));

  CompiledPolynomialSet compiled = CompiledPolynomialSet::Compile(polys);
  EXPECT_EQ(compiled.poly_count(), 3u);
  EXPECT_EQ(compiled.monomial_count(), polys.SizeM());
  EXPECT_EQ(compiled.factor_count(), 4u);  // x·y², z, y³
  EXPECT_EQ(compiled.slot_count(), 3u);    // x, y, z
  EXPECT_GT(compiled.ApproxBytes(), 0u);

  // Slot order is first appearance; materialization defaults to 1.0.
  Valuation val;
  val.Set(y, 0.5);
  DenseValuation dense = compiled.MaterializeValuation(val);
  ASSERT_EQ(dense.slot_count(), 3u);
  EXPECT_EQ(compiled.slot_variables()[0], x);
  EXPECT_EQ(dense[0], 1.0);
  EXPECT_EQ(dense[1], 0.5);
  EXPECT_EQ(dense[2], 1.0);

  // x·y² with x=1, y=0.5: 2*1*0.5*0.5 = 0.5; plus z=1: 3. Empty poly: 0.
  EXPECT_EQ(compiled.EvaluateOne(0, dense), 0.5 + 3.0);
  EXPECT_EQ(compiled.EvaluateOne(1, dense), 0.0);
  EXPECT_EQ(compiled.EvaluateOne(2, dense), 5.0 * 0.5 * 0.5 * 0.5);
}

TEST(CompiledPolynomialSetTest, EmptySetCompilesAndEvaluates) {
  PolynomialSet empty;
  auto compiled = empty.Compiled();
  EXPECT_EQ(compiled->poly_count(), 0u);
  EXPECT_EQ(compiled->slot_count(), 0u);
  Valuation val;
  EXPECT_TRUE(val.EvaluateAll(empty).empty());
}

TEST(CompiledPolynomialSetTest, CompiledFormIsCachedAndGrownByAdd) {
  VariableTable vars;
  VariableId x = vars.Intern("x");
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials({Monomial(1.0, {{x, 1}})}));

  auto first = polys.Compiled();
  auto second = polys.Compiled();
  EXPECT_EQ(first.get(), second.get());  // cached, not recompiled

  // Copies share the immutable compiled snapshot.
  PolynomialSet copy = polys;
  EXPECT_EQ(copy.Compiled().get(), first.get());

  // Mutation yields a new snapshot: the old one stays valid for its
  // holder, the set's form grows to include the new polynomial.
  polys.Add(Polynomial::FromMonomials({Monomial(4.0, {{x, 2}})}));
  auto third = polys.Compiled();
  EXPECT_NE(third.get(), first.get());
  EXPECT_EQ(first->poly_count(), 1u);
  EXPECT_EQ(third->poly_count(), 2u);
}

TEST(CompiledPolynomialSetTest, VariablesAssignedButAbsentAreIgnored) {
  VariableTable vars;
  VariableId x = vars.Intern("x");
  VariableId ghost = vars.Intern("ghost");
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials({Monomial(7.0, {{x, 1}})}));
  Valuation val;
  val.Set(ghost, 123.0);  // never occurs in the set
  val.Set(x, 2.0);
  std::vector<double> out = val.EvaluateAll(polys);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 14.0);
}

// ------------------------------------------------ compiled-form growth --

/// Element-wise equality of one CSR array of two forms.
template <typename T>
void ExpectSameArray(const T* grown, const T* cold, size_t n,
                     const char* which) {
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(grown[i], cold[i]) << which << "[" << i << "]";
  }
}

/// A grown form must be the cold compile of the same polynomials, array
/// for array (coefficients compared as bits), slot for slot.
void ExpectSameForm(const CompiledPolynomialSet& grown,
                    const CompiledPolynomialSet& cold) {
  ASSERT_EQ(grown.poly_count(), cold.poly_count());
  ASSERT_EQ(grown.monomial_count(), cold.monomial_count());
  ASSERT_EQ(grown.factor_count(), cold.factor_count());
  const CompiledPolynomialSet::CsrView g = grown.csr();
  const CompiledPolynomialSet::CsrView c = cold.csr();
  ExpectSameArray(g.poly_offsets, c.poly_offsets, cold.poly_count() + 1,
                  "poly_offsets");
  ExpectSameArray(g.mono_offsets, c.mono_offsets, cold.monomial_count() + 1,
                  "mono_offsets");
  for (size_t m = 0; m < cold.monomial_count(); ++m) {
    ASSERT_EQ(Bits(g.coefficients[m]), Bits(c.coefficients[m]))
        << "coefficients[" << m << "]";
  }
  ExpectSameArray(g.factor_slots, c.factor_slots, cold.factor_count(),
                  "factor_slots");
  ExpectSameArray(g.factor_exps, c.factor_exps, cold.factor_count(),
                  "factor_exps");
  ASSERT_EQ(grown.slot_variables(), cold.slot_variables());
  for (uint32_t slot = 0; slot < cold.slot_count(); ++slot) {
    ASSERT_EQ(grown.SlotOf(cold.slot_variables()[slot]), slot);
  }
}

// Random Add schedules over a growing variable pool (so appends bring new
// variables), with exponents up to 3 and empty polynomials: after every Add
// the grown snapshot equals a cold Compile, carries a new fingerprint, and
// rejects valuations materialized against the snapshot it grew from.
TEST(CompiledGrowthTest, GrownFormsEqualColdCompilesAfterEveryAdd) {
  const EvaluationBackend* backend =
      EvaluationBackendRegistry::Default().Find("compiled");
  ASSERT_NE(backend, nullptr);
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(4200 + seed);
    VariableTable vars;
    std::vector<VariableId> pool;
    PolynomialSet polys;
    std::shared_ptr<const CompiledPolynomialSet> previous = polys.Compiled();
    for (int step = 0; step < 12; ++step) {
      const size_t fresh = rng.Uniform(3);
      for (size_t i = 0; i < fresh; ++i) {
        pool.push_back(vars.Intern("g" + std::to_string(pool.size())));
      }
      std::vector<Monomial> terms;
      const size_t monomials = pool.empty() ? 0 : rng.Uniform(5);
      for (size_t m = 0; m < monomials; ++m) {
        std::vector<Factor> factors;
        const size_t arity = 1 + rng.Uniform(3);
        for (size_t f = 0; f < arity; ++f) {
          factors.push_back({pool[rng.Uniform(pool.size())],
                             static_cast<uint32_t>(1 + rng.Uniform(3))});
        }
        terms.emplace_back(rng.UniformReal(-4.0, 4.0), std::move(factors));
      }
      polys.Add(Polynomial::FromMonomials(std::move(terms)));

      std::shared_ptr<const CompiledPolynomialSet> grown = polys.Compiled();
      const CompiledPolynomialSet cold = CompiledPolynomialSet::Compile(polys);
      ExpectSameForm(*grown, cold);
      EXPECT_NE(grown->fingerprint(), previous->fingerprint());
      EXPECT_NE(grown->fingerprint(), cold.fingerprint());
      EXPECT_EQ(polys.Compiled().get(), grown.get());  // cached once grown
      if (!pool.empty()) {
        EXPECT_EQ(grown->SlotOf(vars.Intern("never_used")),
                  CompiledPolynomialSet::kNoSlot);
      }

      // A valuation of the old snapshot indexes the old slot mapping.
      DenseValuation stale = previous->MaterializeValuation(Valuation{});
      std::vector<double> out(grown->poly_count());
      const DenseValuation* scenario = &stale;
      double* out_ptr = out.data();
      Status status = backend->EvaluateBatch(*grown, 0, grown->poly_count(),
                                             &scenario, &out_ptr, 1);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

      Valuation val;
      for (VariableId v : pool) val.Set(v, rng.UniformReal(0.5, 1.5));
      ExpectBitwiseEqual(NaiveEvaluateAll(val, polys),
                         grown->EvaluateAll(grown->MaterializeValuation(val)),
                         "grown form");
      previous = grown;
    }
  }
}

// Copies share a snapshot; growing one copy leaves the other's intact.
TEST(CompiledGrowthTest, GrowingACopyLeavesTheOriginalsSnapshot) {
  VariableTable vars;
  VariableId x = vars.Intern("x");
  VariableId y = vars.Intern("y");
  PolynomialSet base;
  base.Add(Polynomial::FromMonomials({Monomial(2.0, {{x, 2}})}));
  std::shared_ptr<const CompiledPolynomialSet> shared = base.Compiled();

  PolynomialSet grown = base;
  grown.Add(Polynomial::FromMonomials({Monomial(3.0, {{y, 1}, {x, 1}})}));
  EXPECT_EQ(base.Compiled().get(), shared.get());
  std::shared_ptr<const CompiledPolynomialSet> extended = grown.Compiled();
  EXPECT_NE(extended.get(), shared.get());
  EXPECT_EQ(shared->poly_count(), 1u);
  EXPECT_EQ(shared->SlotOf(y), CompiledPolynomialSet::kNoSlot);
  EXPECT_EQ(extended->SlotOf(x), 0u);
  EXPECT_EQ(extended->SlotOf(y), 1u);
  ExpectSameForm(*extended, CompiledPolynomialSet::Compile(grown));
}

// Readers racing to grow one prefix snapshot each build a valid form (the
// last store wins); TSan checks the atomic snapshot handoff.
TEST(CompiledGrowthTest, ConcurrentReadersGrowOnePrefixSafely) {
  VariableTable vars;
  std::vector<VariableId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(vars.Intern("c" + std::to_string(i)));
  }
  PolynomialSet polys;
  for (uint32_t p = 0; p < 40; ++p) {
    polys.Add(Polynomial::FromMonomials(
        {Monomial(1.0 + p, {{ids[p % 6], 1 + p % 3}}),
         Monomial(0.5, {{ids[(p + 1) % 6], 1}})}));
  }
  (void)polys.Compiled();
  for (uint32_t p = 0; p < 10; ++p) {
    polys.Add(
        Polynomial::FromMonomials({Monomial(2.0 + p, {{ids[p % 6], 2}})}));
  }
  const PolynomialSet& shared = polys;
  std::vector<std::shared_ptr<const CompiledPolynomialSet>> forms(4);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < forms.size(); ++t) {
    readers.emplace_back(
        [&shared, &forms, t] { forms[t] = shared.Compiled(); });
  }
  for (std::thread& reader : readers) reader.join();
  const CompiledPolynomialSet cold = CompiledPolynomialSet::Compile(polys);
  for (const auto& form : forms) ExpectSameForm(*form, cold);
}

// ------------------------------------------- randomized differential ----

class EvaluateKernelDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(EvaluateKernelDifferentialTest, AllPathsBitwiseIdenticalToNaive) {
  Rng rng(4200 + GetParam());
  ThreadPool pool(4);
  VariableTable vars;

  const size_t num_vars = 3 + rng.Uniform(30);
  std::vector<VariableId> ids;
  for (size_t i = 0; i < num_vars; ++i) {
    ids.push_back(vars.Intern("v" + std::to_string(i)));
  }

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

  // Assign a random subset (some runs assign nothing); also assign a
  // variable outside the set entirely.
  Valuation val;
  for (VariableId id : ids) {
    if (rng.Bernoulli(0.6)) val.Set(id, rng.UniformReal(-2.0, 2.0));
  }
  val.Set(vars.Intern("outside"), 99.0);

  RunAllPathsDifferential(val, polys, pool);
}

INSTANTIATE_TEST_SUITE_P(RandomSets, EvaluateKernelDifferentialTest,
                         ::testing::Range(0, 24));

// Post-abstraction coverage: the compiled kernel must agree with naive on
// sets produced by the compression algorithms — tree cuts substitute
// meta-variables in, and prox's InternGrouping introduces freshly interned
// group variables whose ids are far from the original dense range.
TEST(EvaluateKernelAbstractionTest, CutAndGroupingResultsStayBitwiseEqual) {
  Rng rng(777);
  ThreadPool pool(4);
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
  forest.AddTree(BuildUniformTree(vars, leaves, {4, 2}, "EK_"));
  ASSERT_TRUE(forest.CheckCompatible(polys).ok());

  CompressOptions options;
  options.bound = polys.SizeM() / 2;

  // Tree-cut abstraction (greedy): evaluate the compressed view.
  auto greedy = CompressorRegistry::Default().Find("greedy")->Compress(
      polys, forest, options);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  PolynomialSet cut_view = greedy->Apply(forest, polys);

  // Grouping abstraction (prox) with interned group variables.
  auto prox = CompressorRegistry::Default().Find("prox")->Compress(
      polys, forest, options);
  ASSERT_TRUE(prox.ok()) << prox.status().ToString();
  prox->InternGrouping(vars);
  PolynomialSet group_view = prox->Apply(forest, polys);

  for (const PolynomialSet* view : {&cut_view, &group_view}) {
    Valuation val;
    // Assign over whatever variables survived (meta-variables included).
    for (VariableId v : view->Variables()) {
      if (rng.Bernoulli(0.7)) val.Set(v, rng.UniformReal(0.25, 1.75));
    }
    RunAllPathsDifferential(val, *view, pool);
  }
}

}  // namespace
}  // namespace provabs
