// ScenarioProgram semantics + the cross-backend differential battery.
//
// Semantics half: Compile must get the Cartesian product right (counts,
// mixed-radix decode with the LAST parameter fastest, the float-drift
// tolerance that makes 0.1..1.0 STEP 0.1 ten values), resolve selectors
// first-match-wins against the compiled slot table, default unmatched
// variables to 1.0, and reject ill-typed or ill-formed programs with
// offset-carrying statuses — never a crash (this suite is in the ASan/
// UBSan/TSan CI batteries).
//
// Differential half: an expanded scenario family evaluated through every
// registered backend — naive, compiled, simd_batch, plus a scalar-forced
// and an auto-lane SimdBatchBackend instance — must reproduce per-scenario
// Valuation::EvaluateAll BITWISE (IEEE-754 bit compare, no tolerance):
// exact equality certifies the identical operation sequence, which is what
// makes the serving tier's chunked fan-out indistinguishable from issuing
// each scenario as its own Evaluate request. Coverage includes views
// produced by the compression algorithms: post-cut sets (meta-variables
// substituted in) and prox-grouping views with freshly interned group
// variables.

#include "scenario/program.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "algo/compressor.h"
#include "common/random.h"
#include "core/evaluation_backend.h"
#include "core/polynomial.h"
#include "core/polynomial_set.h"
#include "core/valuation.h"
#include "core/variable.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

using scenario::ScenarioProgram;

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// A tiny fixture set: polynomials over plan1, plan2, m1 so selector tests
/// have real slots to resolve against.
struct Fixture {
  VariableTable vars;
  PolynomialSet polys;
  std::shared_ptr<const CompiledPolynomialSet> compiled;

  Fixture() {
    VariableId plan1 = vars.Intern("plan1");
    VariableId plan2 = vars.Intern("plan2");
    VariableId m1 = vars.Intern("m1");
    polys.Add(Polynomial::FromMonomials(
        {Monomial(2.0, {{plan1, 1}, {m1, 1}}), Monomial(3.0, {{plan2, 2}})}));
    polys.Add(Polynomial::FromMonomials({Monomial(5.0, {{m1, 1}})}));
    compiled = polys.Compiled();
  }

  StatusOr<ScenarioProgram> Compile(const std::string& source,
                                    size_t* offset = nullptr) const {
    return ScenarioProgram::Compile(source, compiled, vars, offset);
  }
};

// ------------------------------------------------ expansion semantics ---

TEST(ScenarioProgramTest, NoParametersIsASingleScenario) {
  Fixture fx;
  auto program = fx.Compile("SET * = 2;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->scenario_count(), 1u);
  EXPECT_EQ(program->param_count(), 0u);
  EXPECT_TRUE(program->ParamValues(0).empty());
}

TEST(ScenarioProgramTest, ScenarioCountIsTheCartesianProduct) {
  Fixture fx;
  auto program = fx.Compile(
      "LET a = GRID(1, 2, 3); LET b = SWEEP(0 .. 1 STEP 0.5); SET * = a * b;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->scenario_count(), 9u);  // 3 grid values x 3 sweep values
}

TEST(ScenarioProgramTest, SweepCountToleratesFloatDrift) {
  // 0.1..1.0 STEP 0.1: (1.0-0.1)/0.1 is 8.999... in binary floating point;
  // the 1e-9 slack must still produce 10 values, computed as lo + i*step.
  Fixture fx;
  auto program = fx.Compile("LET d = SWEEP(0.1 .. 1.0 STEP 0.1); SET * = d;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->scenario_count(), 10u);
  EXPECT_EQ(Bits(program->ParamValues(0)[0]), Bits(0.1));
  EXPECT_EQ(Bits(program->ParamValues(3)[0]), Bits(0.1 + 3 * 0.1));
  EXPECT_EQ(Bits(program->ParamValues(9)[0]), Bits(0.1 + 9 * 0.1));
}

TEST(ScenarioProgramTest, ParamValuesDecodeLastParameterFastest) {
  Fixture fx;
  auto program = fx.Compile(
      "LET hi = GRID(10, 20); LET lo = GRID(1, 2, 3); SET * = hi + lo;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->scenario_count(), 6u);
  // Row-major: lo cycles 1,2,3 while hi holds, then hi advances.
  EXPECT_EQ(program->ParamValues(0), (std::vector<double>{10, 1}));
  EXPECT_EQ(program->ParamValues(1), (std::vector<double>{10, 2}));
  EXPECT_EQ(program->ParamValues(2), (std::vector<double>{10, 3}));
  EXPECT_EQ(program->ParamValues(3), (std::vector<double>{20, 1}));
  EXPECT_EQ(program->ParamValues(5), (std::vector<double>{20, 3}));
}

TEST(ScenarioProgramTest, FirstMatchingRuleWinsAndUnmatchedDefaultToOne) {
  Fixture fx;
  // plan1 matches both the exact rule and the prefix rule; the exact rule
  // is first, so it wins. m1 matches nothing and must default to 1.0.
  auto program = fx.Compile("SET plan1 = 7; SET PREFIX(plan) = 9;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::vector<DenseValuation> out;
  ASSERT_TRUE(program->ExpandChunk(0, 1, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  const std::vector<VariableId>& slots = fx.compiled->slot_variables();
  for (uint32_t s = 0; s < slots.size(); ++s) {
    const std::string& name = fx.vars.NameOf(slots[s]);
    const double expected = name == "plan1" ? 7.0 : name == "plan2" ? 9.0 : 1.0;
    EXPECT_EQ(out[0][s], expected) << name;
  }
}

TEST(ScenarioProgramTest, PrefixMatchingZeroVariablesIsAllowed) {
  Fixture fx;
  auto program = fx.Compile("SET PREFIX(nomatch) = 5; SET * = 2;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::vector<DenseValuation> out;
  ASSERT_TRUE(program->ExpandChunk(0, 1, &out).ok());
  for (uint32_t s = 0; s < out[0].slot_count(); ++s) {
    EXPECT_EQ(out[0][s], 2.0);
  }
}

TEST(ScenarioProgramTest, ExpandedValuationsCarryTheCompiledFingerprint) {
  Fixture fx;
  auto program = fx.Compile("SET * = 3;");
  ASSERT_TRUE(program.ok());
  std::vector<DenseValuation> out;
  ASSERT_TRUE(program->ExpandChunk(0, 1, &out).ok());
  EXPECT_EQ(out[0].source_fingerprint(), fx.compiled->fingerprint());
  EXPECT_EQ(program->compiled().get(), fx.compiled.get());
}

TEST(ScenarioProgramTest, ChunkedExpansionEqualsOneShotExpansion) {
  Fixture fx;
  auto program = fx.Compile(
      "LET a = GRID(1, 2, 3, 4, 5); LET b = GRID(0.5, 1.5);"
      "SET PREFIX(plan) = a * b; SET * = a - b;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->scenario_count(), 10u);
  std::vector<DenseValuation> all;
  ASSERT_TRUE(program->ExpandChunk(0, 10, &all).ok());
  // Uneven chunk boundaries: [0,3), [3,7), [7,10).
  std::vector<DenseValuation> chunked;
  for (uint64_t begin : {uint64_t{0}, uint64_t{3}, uint64_t{7}}) {
    const uint64_t end = begin == 0 ? 3 : begin == 3 ? 7 : 10;
    std::vector<DenseValuation> chunk;
    ASSERT_TRUE(program->ExpandChunk(begin, end, &chunk).ok());
    for (auto& d : chunk) chunked.push_back(std::move(d));
  }
  ASSERT_EQ(chunked.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    for (uint32_t s = 0; s < all[i].slot_count(); ++s) {
      ASSERT_EQ(Bits(all[i][s]), Bits(chunked[i][s])) << i << "/" << s;
    }
  }
}

TEST(ScenarioProgramTest, ExpandChunkRejectsOutOfRange) {
  Fixture fx;
  auto program = fx.Compile("LET a = GRID(1, 2); SET * = a;");
  ASSERT_TRUE(program.ok());
  std::vector<DenseValuation> out;
  EXPECT_EQ(program->ExpandChunk(0, 3, &out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(program->ExpandChunk(2, 1, &out).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(program->ExpandChunk(2, 2, &out).ok());  // empty is fine
  EXPECT_TRUE(out.empty());
}

TEST(ScenarioProgramTest, ConditionalAndDivisionEvaluate) {
  Fixture fx;
  auto program = fx.Compile(
      "LET d = GRID(2, 8);"
      "SET * = IF d < 4 OR d >= 100 THEN 1 / d ELSE -d;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::vector<DenseValuation> out;
  ASSERT_TRUE(program->ExpandChunk(0, 2, &out).ok());
  EXPECT_EQ(Bits(out[0][0]), Bits(1.0 / 2.0));
  EXPECT_EQ(Bits(out[1][0]), Bits(-8.0));
}

// ------------------------------------------------ compile-time errors ---

TEST(ScenarioProgramTest, UnknownVariableInExactOrInSelectorFails) {
  Fixture fx;
  size_t offset = 0;
  auto program = fx.Compile("SET nosuchvar = 1;", &offset);
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find(
                "'nosuchvar' does not occur in the evaluated polynomials"),
            std::string::npos)
      << program.status().message();
  EXPECT_GT(offset, 0u);

  auto in_program = fx.Compile("SET IN(plan1, ghost) = 1;");
  ASSERT_FALSE(in_program.ok());
  EXPECT_NE(in_program.status().message().find("'ghost'"), std::string::npos);
}

TEST(ScenarioProgramTest, DuplicateParameterFails) {
  Fixture fx;
  auto program = fx.Compile("LET a = GRID(1); LET a = GRID(2); SET * = a;");
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("duplicate parameter 'a'"),
            std::string::npos);
}

TEST(ScenarioProgramTest, SweepValidationErrors) {
  Fixture fx;
  EXPECT_NE(fx.Compile("LET a = SWEEP(0 .. 1 STEP 0); SET * = a;")
                .status()
                .message()
                .find("STEP must be positive"),
            std::string::npos);
  EXPECT_NE(fx.Compile("LET a = SWEEP(2 .. 1 STEP 0.5); SET * = a;")
                .status()
                .message()
                .find("empty"),
            std::string::npos);
  // Note: the lexer has no exponent notation, so spell the huge span out.
  EXPECT_NE(fx.Compile("LET a = SWEEP(0 .. 10000000000 STEP 0.0000001);"
                       "SET * = a;")
                .status()
                .message()
                .find("too many values"),
            std::string::npos);
}

TEST(ScenarioProgramTest, TypeErrorsAreStructuredNotCrashes) {
  Fixture fx;
  size_t offset = 0;
  // A bool where a number is required (rule value).
  auto bool_value = fx.Compile("LET a = GRID(1); SET * = a < 2;", &offset);
  ASSERT_FALSE(bool_value.ok());
  EXPECT_NE(bool_value.status().message().find(
                "rule value must be a number, got bool"),
            std::string::npos);
  // A number where a bool is required (IF condition).
  auto num_cond =
      fx.Compile("LET a = GRID(1); SET * = IF a THEN 1 ELSE 2;");
  ASSERT_FALSE(num_cond.ok());
  EXPECT_NE(num_cond.status().message().find("condition must be bool"),
            std::string::npos);
  // Mixed THEN/ELSE types.
  auto mixed = fx.Compile(
      "LET a = GRID(1); SET * = IF a < 1 THEN 1 ELSE (a < 2);");
  ASSERT_FALSE(mixed.ok());
  // Arithmetic over bools.
  auto bool_add = fx.Compile("LET a = GRID(1); SET * = (a < 1) + 2;");
  ASSERT_FALSE(bool_add.ok());
  EXPECT_NE(bool_add.status().message().find("'+' needs number operands"),
            std::string::npos);
  // NOT over a number; undeclared parameter.
  EXPECT_FALSE(fx.Compile("SET * = IF NOT 3 THEN 1 ELSE 2;").ok());
  auto unknown = fx.Compile("SET * = zzz + 1;");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("declare it with LET"),
            std::string::npos);
}

TEST(ScenarioProgramTest, NullCompiledSetIsRejected) {
  Fixture fx;
  auto program = ScenarioProgram::Compile("SET * = 1;", nullptr, fx.vars);
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScenarioProgramTest, ApproxBytesGrowsWithTheFamily) {
  Fixture fx;
  auto small = fx.Compile("SET * = 1;");
  auto large = fx.Compile(
      "LET a = SWEEP(0 .. 100 STEP 0.125); SET PREFIX(plan) = a;"
      "SET * = IF a < 50 THEN a * 2 ELSE a / 2;");
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_GT(large->ApproxBytes(), small->ApproxBytes());
}

// -------------------------------------- cross-backend differential ------

/// Reference for one expanded scenario: rebuild the sparse Valuation from
/// the dense slot values and run the naive per-polynomial evaluator. This
/// is exactly what a client issuing the scenario as its own Evaluate
/// request would compute.
std::vector<double> ReferenceValues(const PolynomialSet& polys,
                                    const CompiledPolynomialSet& compiled,
                                    const DenseValuation& dense) {
  Valuation val;
  const std::vector<VariableId>& slots = compiled.slot_variables();
  for (uint32_t s = 0; s < slots.size(); ++s) val.Set(slots[s], dense[s]);
  std::vector<double> out;
  out.reserve(polys.count());
  for (const Polynomial& p : polys.polynomials()) {
    out.push_back(val.Evaluate(p));
  }
  return out;
}

/// Expands the whole family and checks every backend's batched results
/// against the per-scenario reference AND per-scenario EvaluateAll, bit
/// for bit.
void RunProgramDifferential(const PolynomialSet& polys,
                            const VariableTable& vars,
                            const std::string& source) {
  auto compiled = polys.Compiled();
  auto program = ScenarioProgram::Compile(source, compiled, vars);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::vector<DenseValuation> dense;
  ASSERT_TRUE(program->ExpandChunk(0, program->scenario_count(), &dense).ok());
  const size_t n = dense.size();
  ASSERT_GT(n, 0u);

  std::vector<std::vector<double>> expected;
  expected.reserve(n);
  for (const DenseValuation& d : dense) {
    expected.push_back(ReferenceValues(polys, *compiled, d));
    // EvaluateAll (which routes through the registry's default policy)
    // must agree with the naive per-polynomial loop.
    Valuation val;
    const std::vector<VariableId>& slots = compiled->slot_variables();
    for (uint32_t s = 0; s < slots.size(); ++s) val.Set(slots[s], d[s]);
    std::vector<double> via_all = val.EvaluateAll(polys);
    ASSERT_EQ(via_all.size(), expected.back().size());
    for (size_t p = 0; p < via_all.size(); ++p) {
      ASSERT_EQ(Bits(via_all[p]), Bits(expected.back()[p]))
          << "EvaluateAll poly " << p;
    }
  }

  std::vector<const DenseValuation*> ptrs(n);
  std::vector<std::vector<double>> out(
      n, std::vector<double>(compiled->poly_count()));
  std::vector<double*> out_ptrs(n);
  for (size_t s = 0; s < n; ++s) {
    ptrs[s] = &dense[s];
    out_ptrs[s] = out[s].data();
  }

  auto check = [&](const EvaluationBackend& backend, const std::string& which) {
    for (auto& row : out) std::fill(row.begin(), row.end(), -12345.0);
    Status status = backend.EvaluateBatch(*compiled, 0, compiled->poly_count(),
                                          ptrs.data(), out_ptrs.data(), n);
    ASSERT_TRUE(status.ok()) << which << ": " << status.ToString();
    for (size_t s = 0; s < n; ++s) {
      ASSERT_EQ(out[s].size(), expected[s].size()) << which;
      for (size_t p = 0; p < out[s].size(); ++p) {
        ASSERT_EQ(Bits(out[s][p]), Bits(expected[s][p]))
            << which << ": scenario " << s << " polynomial " << p;
      }
    }
  };

  const EvaluationBackendRegistry& registry =
      EvaluationBackendRegistry::Default();
  for (const std::string& name : registry.Names()) {
    check(*registry.Find(name), "registered '" + name + "'");
  }
  for (SimdBatchBackend::Mode mode : {SimdBatchBackend::Mode::kForceScalar,
                                      SimdBatchBackend::Mode::kForceAvx2,
                                      SimdBatchBackend::Mode::kAuto}) {
    SimdBatchBackend simd(mode);
    check(simd,
          std::string("simd_batch(") + SimdLanesName(simd.lanes()) + ")");
  }
}

// The telephony-flavored program used by the random battery: a discount
// sweep, a multiplier grid, a prefix rule, an IN rule over variables that
// actually occur in the set (exact selectors reject unknown names, so the
// rule is built per-set), a conditional, and a catch-all.
std::string BatteryProgram(const PolynomialSet& polys,
                           const VariableTable& vars) {
  std::string program =
      "LET d = SWEEP(0.5 .. 1.25 STEP 0.25);  # 4 values\n"
      "LET m = GRID(1, 2, 12);\n"
      "SET PREFIX(plan) = d * m;\n";
  std::unordered_set<VariableId> present = polys.Variables();
  std::vector<std::string> names;
  for (VariableId id : present) {
    names.push_back(vars.NameOf(id));
    if (names.size() == 2) break;
  }
  if (!names.empty()) {
    program += "SET IN(" + names[0];
    if (names.size() > 1) program += ", " + names[1];
    program += ") = IF d < 0.75 THEN 0.5 ELSE d + m;\n";
  }
  program += "SET * = 1 - d / 4;";
  return program;
}

TEST(ScenarioProgramDifferentialTest, RandomSetsAcrossAllBackends) {
  Rng rng(77001);
  for (int round = 0; round < 8; ++round) {
    VariableTable vars;
    std::vector<VariableId> ids;
    const size_t num_vars = 4 + rng.Uniform(12);
    for (size_t i = 0; i < num_vars; ++i) {
      // Mix of prefix families so the selectors bite differently each
      // round.
      const char* family = i % 3 == 0 ? "plan" : i % 3 == 1 ? "x" : "m";
      ids.push_back(vars.Intern(family + std::to_string(i)));
    }
    PolynomialSet polys;
    const size_t num_polys = 1 + rng.Uniform(5);
    for (size_t p = 0; p < num_polys; ++p) {
      std::vector<Monomial> terms;
      const size_t n_terms = 1 + rng.Uniform(10);
      for (size_t t = 0; t < n_terms; ++t) {
        std::vector<Factor> factors;
        const size_t n_factors = rng.Uniform(4);
        for (size_t f = 0; f < n_factors; ++f) {
          factors.push_back({ids[rng.Uniform(ids.size())],
                             static_cast<uint32_t>(1 + rng.Uniform(3))});
        }
        terms.emplace_back(rng.UniformReal(-4.0, 4.0), std::move(factors));
      }
      polys.Add(Polynomial::FromMonomials(std::move(terms)));
    }
    RunProgramDifferential(polys, vars, BatteryProgram(polys, vars));
  }
}

// Post-abstraction coverage: the same program expanded against a post-cut
// view (greedy; meta-variables substituted in) and a prox-grouping view
// (freshly interned group variables) must stay bitwise identical across
// backends — the serving tier evaluates scenario programs against exactly
// these compressed views.
TEST(ScenarioProgramDifferentialTest, PostCutAndProxGroupViews) {
  Rng rng(77002);
  VariableTable vars;
  std::vector<VariableId> leaves;
  for (int i = 0; i < 16; ++i) {
    leaves.push_back(vars.Intern("x" + std::to_string(i)));
  }
  VariableId plan = vars.Intern("plan_base");

  PolynomialSet polys;
  for (int p = 0; p < 4; ++p) {
    std::vector<Monomial> terms;
    for (int t = 0; t < 18; ++t) {
      std::vector<Factor> f;
      f.push_back({leaves[rng.Uniform(leaves.size())],
                   static_cast<uint32_t>(1 + rng.Uniform(2))});
      if (rng.Bernoulli(0.5)) f.push_back({plan, 1});
      terms.emplace_back(rng.UniformReal(0.5, 8.5), std::move(f));
    }
    polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }

  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(vars, leaves, {4, 2}, "SP_"));
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

  // The views' variables are meta/group names, so select by prefix plus a
  // catch-all — prefix rules binding zero variables on one view is fine.
  const std::string program =
      "LET d = SWEEP(0.25 .. 1.75 STEP 0.25); LET m = GRID(0.5, 2);"
      "SET PREFIX(SP_) = d; SET PREFIX(plan) = d * m; SET * = m;";
  RunProgramDifferential(cut_view, vars, program);
  RunProgramDifferential(group_view, vars, program);
}

// Acceptance-sized family: >= 1000 scenarios expanded in one program must
// match the per-scenario reference across every backend. Slow-labeled.
TEST(ScenarioProgramDifferentialTest, ThousandScenarioFamilyIsBitwiseExact) {
  VariableTable vars;
  std::vector<VariableId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(vars.Intern("plan" + std::to_string(i)));
  }
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials({
      Monomial(1.5, {{ids[0], 1}, {ids[1], 2}}),
      Monomial(-2.0, {{ids[2], 1}}),
      Monomial(0.25, {{ids[3], 1}, {ids[4], 1}, {ids[5], 1}}),
  }));
  polys.Add(Polynomial::FromMonomials({Monomial(4.0, {{ids[1], 3}})}));
  const std::string program =
      "LET a = SWEEP(0.5 .. 1.4 STEP 0.1); LET b = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "LET c = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "SET IN(plan0, plan1) = a; SET PREFIX(plan2) = b; SET * = c;";
  auto compiled = polys.Compiled();
  auto compiled_program =
      scenario::ScenarioProgram::Compile(program, compiled, vars);
  ASSERT_TRUE(compiled_program.ok());
  ASSERT_EQ(compiled_program->scenario_count(), 1000u);
  RunProgramDifferential(polys, vars, program);
}

}  // namespace
}  // namespace provabs
