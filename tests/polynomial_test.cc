#include "core/polynomial.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/random.h"
#include "core/polynomial_set.h"
#include "core/semiring.h"
#include "core/valuation.h"
#include "core/variable.h"

namespace provabs {
namespace {

class PolynomialTest : public ::testing::Test {
 protected:
  VariableTable vars_;
  VariableId x_ = vars_.Intern("x");
  VariableId y_ = vars_.Intern("y");
  VariableId z_ = vars_.Intern("z");

  Polynomial MakeXYplusXZ() {
    return Polynomial::FromMonomials({Monomial(2.0, {{x_, 1}, {y_, 1}}),
                                      Monomial(3.0, {{x_, 1}, {z_, 1}})});
  }
};

TEST_F(PolynomialTest, EmptyPolynomial) {
  Polynomial p;
  EXPECT_EQ(p.SizeM(), 0u);
  EXPECT_EQ(p.SizeV(), 0u);
  EXPECT_EQ(p.ToString(vars_), "0");
}

TEST_F(PolynomialTest, FromMonomialsMergesEqualPowerProducts) {
  Polynomial p = Polynomial::FromMonomials(
      {Monomial(2.0, {{x_, 1}}), Monomial(3.0, {{x_, 1}})});
  ASSERT_EQ(p.SizeM(), 1u);
  EXPECT_EQ(p.monomials()[0].coefficient(), 5.0);
}

TEST_F(PolynomialTest, FromMonomialsDropsExactCancellation) {
  Polynomial p = Polynomial::FromMonomials(
      {Monomial(2.0, {{x_, 1}}), Monomial(-2.0, {{x_, 1}})});
  EXPECT_EQ(p.SizeM(), 0u);
  EXPECT_EQ(p, Polynomial());
}

TEST_F(PolynomialTest, FromMonomialsMergesInterleavedRuns) {
  // Runs of equal power products, given out of order and interleaved, merge
  // left to right in canonical order; a cancelled run leaves no gap.
  Polynomial p = Polynomial::FromMonomials(
      {Monomial(1.0, {{z_, 1}}), Monomial(4.0, {{x_, 1}}),
       Monomial(2.0, {{z_, 1}}), Monomial(-4.0, {{x_, 1}}),
       Monomial(7.0, {{y_, 2}}), Monomial(8.0, {{z_, 1}})});
  ASSERT_EQ(p.SizeM(), 2u);
  EXPECT_EQ(p.ToString(vars_), "7*y^2 + 11*z");

  Polynomial low = Polynomial::FromMonomials(
      {Monomial(3.0, {{x_, 1}}), Monomial(1.0, {{y_, 1}}),
       Monomial(2.0, {{x_, 1}}), Monomial(5.0, {{y_, 1}})},
      CoefficientCombine::kMin);
  ASSERT_EQ(low.SizeM(), 2u);
  EXPECT_EQ(low.monomials()[0].coefficient(), 2.0);
  EXPECT_EQ(low.monomials()[1].coefficient(), 1.0);
}

TEST_F(PolynomialTest, CopiesShareTheMonomialList) {
  Polynomial p = MakeXYplusXZ();
  Polynomial copy = p;
  EXPECT_EQ(&copy.monomials(), &p.monomials());
  PolynomialSet set;
  set.Add(p);
  PolynomialSet next = set;
  next.Add(VariablePolynomial(y_));
  ASSERT_EQ(set.count(), 1u);
  ASSERT_EQ(next.count(), 2u);
  EXPECT_EQ(&next[0].monomials(), &p.monomials());
  p = Polynomial();
  EXPECT_EQ(p.SizeM(), 0u);
  EXPECT_EQ(copy, MakeXYplusXZ());
  EXPECT_EQ(set[0], MakeXYplusXZ());
}

TEST_F(PolynomialTest, SizeMeasures) {
  Polynomial p = MakeXYplusXZ();
  EXPECT_EQ(p.SizeM(), 2u);   // |P|_M = number of monomials
  EXPECT_EQ(p.SizeV(), 3u);   // |P|_V = distinct variables
}

TEST_F(PolynomialTest, VariablesUnion) {
  Polynomial p = MakeXYplusXZ();
  auto v = p.Variables();
  EXPECT_TRUE(v.count(x_));
  EXPECT_TRUE(v.count(y_));
  EXPECT_TRUE(v.count(z_));
}

TEST_F(PolynomialTest, MentionsChecksAnyMonomial) {
  Polynomial p = MakeXYplusXZ();
  EXPECT_TRUE(p.Mentions(y_));
  EXPECT_FALSE(p.Mentions(vars_.Intern("unused")));
}

TEST_F(PolynomialTest, MapVariablesMergesMonomials) {
  // Mapping y,z -> w turns 2xy + 3xz into 5xw: the central abstraction
  // effect (Example 2 of the paper).
  VariableId w = vars_.Intern("w");
  Polynomial p = MakeXYplusXZ();
  Polynomial q = p.MapVariables(
      [&](VariableId v) { return (v == y_ || v == z_) ? w : v; });
  ASSERT_EQ(q.SizeM(), 1u);
  EXPECT_EQ(q.monomials()[0].coefficient(), 5.0);
  EXPECT_TRUE(q.Mentions(w));
  EXPECT_EQ(q.SizeV(), 2u);
}

TEST_F(PolynomialTest, MapVariablesIdentityIsNoop) {
  Polynomial p = MakeXYplusXZ();
  Polynomial q = p.MapVariables([](VariableId v) { return v; });
  EXPECT_EQ(p, q);
}

TEST_F(PolynomialTest, EqualityDetectsCoefficientChange) {
  Polynomial p = MakeXYplusXZ();
  Polynomial q = Polynomial::FromMonomials({Monomial(2.0, {{x_, 1}, {y_, 1}}),
                                            Monomial(4.0, {{x_, 1}, {z_, 1}})});
  EXPECT_FALSE(p == q);
}

TEST_F(PolynomialTest, AddCombines) {
  Polynomial a = Polynomial::FromMonomials({Monomial(1.0, {{x_, 1}})});
  Polynomial b = Polynomial::FromMonomials(
      {Monomial(2.0, {{x_, 1}}), Monomial(1.0, {{y_, 1}})});
  Polynomial c = Add(a, b);
  EXPECT_EQ(c.SizeM(), 2u);
  Valuation val;
  val.Set(x_, 2.0);
  val.Set(y_, 10.0);
  EXPECT_DOUBLE_EQ(val.Evaluate(c), 3.0 * 2.0 + 10.0);
}

TEST_F(PolynomialTest, MultiplyDistributes) {
  // (x + y)(x + z) = x^2 + xz + xy + yz.
  Polynomial a = Polynomial::FromMonomials(
      {Monomial(1.0, {{x_, 1}}), Monomial(1.0, {{y_, 1}})});
  Polynomial b = Polynomial::FromMonomials(
      {Monomial(1.0, {{x_, 1}}), Monomial(1.0, {{z_, 1}})});
  Polynomial c = Multiply(a, b);
  EXPECT_EQ(c.SizeM(), 4u);
  Valuation val;
  val.Set(x_, 2.0);
  val.Set(y_, 3.0);
  val.Set(z_, 5.0);
  EXPECT_DOUBLE_EQ(val.Evaluate(c), (2.0 + 3.0) * (2.0 + 5.0));
}

TEST_F(PolynomialTest, OneAndVariablePolynomials) {
  EXPECT_EQ(OnePolynomial().SizeM(), 1u);
  EXPECT_EQ(OnePolynomial().SizeV(), 0u);
  Polynomial v = VariablePolynomial(x_, 2.5);
  EXPECT_EQ(v.SizeM(), 1u);
  EXPECT_TRUE(v.Mentions(x_));
  Valuation val;
  val.Set(x_, 4.0);
  EXPECT_DOUBLE_EQ(val.Evaluate(v), 10.0);
}

TEST_F(PolynomialTest, ToStringCanonicalOrder) {
  Polynomial p = MakeXYplusXZ();
  EXPECT_EQ(p.ToString(vars_), "2*x*y + 3*x*z");
}

// ------------------------------------------------------------- Valuation --

TEST_F(PolynomialTest, ValuationDefaultsToOne) {
  Polynomial p = MakeXYplusXZ();
  Valuation val;  // all variables default to 1.0 (the neutral scenario)
  EXPECT_DOUBLE_EQ(val.Evaluate(p), 5.0);
}

TEST_F(PolynomialTest, ValuationAppliesScenario) {
  Polynomial p = MakeXYplusXZ();
  Valuation val;
  val.Set(y_, 0.8);  // "20% discount on y"
  EXPECT_DOUBLE_EQ(val.Evaluate(p), 2.0 * 0.8 + 3.0);
}

TEST_F(PolynomialTest, ValuationHandlesExponents) {
  Polynomial p = Polynomial::FromMonomials({Monomial(1.0, {{x_, 3}})});
  Valuation val;
  val.Set(x_, 2.0);
  EXPECT_DOUBLE_EQ(val.Evaluate(p), 8.0);
}

TEST_F(PolynomialTest, EvaluateAllMatchesPerPolynomial) {
  PolynomialSet set;
  set.Add(MakeXYplusXZ());
  set.Add(VariablePolynomial(y_, 4.0));
  Valuation val;
  val.Set(y_, 0.5);
  auto results = val.EvaluateAll(set);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(results[0], val.Evaluate(set[0]));
  EXPECT_DOUBLE_EQ(results[1], 2.0);
}

// -------------------------------------------------- Abstraction semantics --

// The core guarantee of abstraction: if a valuation assigns the same value
// to all variables of a group, the abstracted polynomial evaluates to
// exactly the same number as the original.
TEST_F(PolynomialTest, AbstractionPreservesUniformValuations) {
  Rng rng(31);
  VariableId w = vars_.Intern("w_group");
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Monomial> terms;
    for (int i = 0; i < 20; ++i) {
      std::vector<Factor> f;
      if (rng.Bernoulli(0.7)) f.push_back({x_, 1});
      if (rng.Bernoulli(0.5)) f.push_back({y_, 1});
      if (rng.Bernoulli(0.5)) f.push_back({z_, 1});
      terms.emplace_back(rng.UniformReal(0.1, 10.0), std::move(f));
    }
    Polynomial p = Polynomial::FromMonomials(std::move(terms));
    Polynomial q = p.MapVariables(
        [&](VariableId v) { return (v == y_ || v == z_) ? w : v; });

    double group_value = rng.UniformReal(0.5, 1.5);
    Valuation val;
    val.Set(x_, rng.UniformReal(0.5, 1.5));
    val.Set(y_, group_value);
    val.Set(z_, group_value);
    val.Set(w, group_value);
    EXPECT_NEAR(val.Evaluate(p), val.Evaluate(q), 1e-9);
  }
}

// ------------------------------------------------------------- Semirings --

TEST_F(PolynomialTest, BooleanSemiringTupleExistence) {
  // P = xy + xz: result exists iff x and (y or z) exist.
  Polynomial p = MakeXYplusXZ();
  std::unordered_map<VariableId, bool> assign;
  assign[x_] = true;
  assign[y_] = false;
  assign[z_] = true;
  EXPECT_TRUE(EvaluateOver<BooleanSemiring>(p, assign));
  assign[z_] = false;
  EXPECT_FALSE(EvaluateOver<BooleanSemiring>(p, assign));
  assign[x_] = false;
  assign[y_] = true;
  assign[z_] = true;
  EXPECT_FALSE(EvaluateOver<BooleanSemiring>(p, assign));
}

TEST_F(PolynomialTest, CountingSemiringMultiplicity) {
  Polynomial p = Polynomial::FromMonomials(
      {Monomial(1.0, {{x_, 1}, {y_, 1}}), Monomial(1.0, {{z_, 1}})});
  std::unordered_map<VariableId, int64_t> assign;
  assign[x_] = 2;  // tuple x appears twice
  assign[y_] = 3;
  assign[z_] = 4;
  EXPECT_EQ(EvaluateOver<CountingSemiring>(p, assign), 2 * 3 + 4);
}

TEST_F(PolynomialTest, TropicalSemiringMinCost) {
  // Tropical: + is min, · is +. With unit coefficients (tropical cost 1),
  // P = xy + xz -> min(1 + x + y, 1 + x + z).
  Polynomial p = Polynomial::FromMonomials(
      {Monomial(1.0, {{x_, 1}, {y_, 1}}), Monomial(1.0, {{x_, 1}, {z_, 1}})});
  std::unordered_map<VariableId, double> assign;
  assign[x_] = 1.0;
  assign[y_] = 5.0;
  assign[z_] = 2.0;
  EXPECT_DOUBLE_EQ(EvaluateOver<TropicalSemiring>(p, assign), 4.0);
}

TEST_F(PolynomialTest, RealSemiringMatchesValuation) {
  Polynomial p = MakeXYplusXZ();
  std::unordered_map<VariableId, double> assign{{x_, 2.0}, {y_, 3.0},
                                                {z_, 0.5}};
  Valuation val;
  for (const auto& [k, v] : assign) val.Set(k, v);
  EXPECT_DOUBLE_EQ(EvaluateOver<RealSemiring>(p, assign), val.Evaluate(p));
}

TEST_F(PolynomialTest, SemiringMissingVariableIsNeutral) {
  Polynomial p = VariablePolynomial(x_);
  std::unordered_map<VariableId, bool> empty;
  EXPECT_TRUE(EvaluateOver<BooleanSemiring>(p, empty));
}

}  // namespace
}  // namespace provabs
