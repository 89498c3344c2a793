#include "online/online_compressor.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "io/serializer.h"
#include "online/sampler.h"
#include "online/size_estimator.h"
#include "workload/telephony.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

// ---------------------------------------------------------------- sampler

class SamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.num_customers = 500;
    config_.num_plans = 16;
    config_.num_months = 4;
    Rng rng(1);
    db_ = GenerateTelephony(config_, rng);
  }

  TelephonyConfig config_;
  Database db_;
};

TEST_F(SamplerTest, UniformSamplesEveryTable) {
  SampleSpec spec;
  spec.rate = 0.5;
  Rng rng(2);
  Database sampled = SampleDatabase(db_, spec, rng);
  EXPECT_LT(sampled.Get("Cust").row_count(), db_.Get("Cust").row_count());
  EXPECT_LT(sampled.Get("Calls").row_count(), db_.Get("Calls").row_count());
  EXPECT_LT(sampled.Get("Plans").row_count(), db_.Get("Plans").row_count());
}

TEST_F(SamplerTest, GroupAwareLeavesDimensionsIntact) {
  SampleSpec spec;
  spec.rate = 0.3;
  spec.sampled_tables = {"Cust", "Calls"};
  Rng rng(3);
  Database sampled = SampleDatabase(db_, spec, rng);
  EXPECT_LT(sampled.Get("Cust").row_count(), db_.Get("Cust").row_count());
  EXPECT_EQ(sampled.Get("Plans").row_count(), db_.Get("Plans").row_count());
}

TEST_F(SamplerTest, RateZeroKeepsNothingRateOneKeepsAll) {
  Rng rng(4);
  SampleSpec none;
  none.rate = 0.0;
  EXPECT_EQ(SampleDatabase(db_, none, rng).Get("Cust").row_count(), 0u);
  SampleSpec all;
  all.rate = 1.0;
  EXPECT_EQ(SampleDatabase(db_, all, rng).Get("Cust").row_count(),
            db_.Get("Cust").row_count());
}

TEST_F(SamplerTest, DeterministicForSeed) {
  SampleSpec spec;
  spec.rate = 0.4;
  Rng r1(9);
  Rng r2(9);
  Database a = SampleDatabase(db_, spec, r1);
  Database b = SampleDatabase(db_, spec, r2);
  EXPECT_EQ(a.Get("Calls").row_count(), b.Get("Calls").row_count());
}

TEST_F(SamplerTest, RateRoughlyRespected) {
  SampleSpec spec;
  spec.rate = 0.25;
  spec.sampled_tables = {"Calls"};
  Rng rng(5);
  Database sampled = SampleDatabase(db_, spec, rng);
  double fraction = static_cast<double>(sampled.Get("Calls").row_count()) /
                    static_cast<double>(db_.Get("Calls").row_count());
  EXPECT_NEAR(fraction, 0.25, 0.05);
}

// ---------------------------------------------------------- size estimator

TEST(SizeEstimatorTest, LinearGrowthExtrapolates) {
  // size = 1000 · rate exactly.
  std::vector<SizeObservation> obs = {{0.1, 100}, {0.2, 200}, {0.4, 400}};
  auto estimate = EstimateFullSize(obs);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(static_cast<double>(*estimate), 1000.0, 10.0);
}

TEST(SizeEstimatorTest, SublinearGrowthExtrapolates) {
  // size = 1000 · rate^0.5.
  std::vector<SizeObservation> obs = {
      {0.04, 200}, {0.16, 400}, {0.64, 800}};
  auto estimate = EstimateFullSize(obs);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(static_cast<double>(*estimate), 1000.0, 20.0);
}

TEST(SizeEstimatorTest, RejectsSingleRate) {
  std::vector<SizeObservation> obs = {{0.1, 100}, {0.1, 110}};
  EXPECT_EQ(EstimateFullSize(obs).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SizeEstimatorTest, RejectsEmptyOrDegenerate) {
  EXPECT_FALSE(EstimateFullSize({}).ok());
  std::vector<SizeObservation> zeros = {{0.1, 0}, {0.2, 0}};
  EXPECT_FALSE(EstimateFullSize(zeros).ok());
}

TEST(SizeEstimatorTest, BoundAdaptationScalesProportionally) {
  // Sample is 10% of the estimated full size -> bound shrinks 10x.
  EXPECT_EQ(AdaptBoundToSample(5000, 100, 1000), 500u);
  EXPECT_EQ(AdaptBoundToSample(10, 1, 1000), 1u);  // Clamped to >= 1.
}

// ------------------------------------------------------- online pipeline

class OnlineCompressorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.num_customers = 1500;
    config_.num_plans = 32;
    config_.num_months = 12;
    config_.num_zip_codes = 10;
    Rng rng(11);
    db_ = GenerateTelephony(config_, rng);
    tv_ = MakeTelephonyVars(vars_, config_);
    forest_.AddTree(BuildUniformTree(vars_, tv_.plan_vars, {4, 2}, "OC_"));
    query_ = [this](const Database& d) {
      return RunTelephonyQuery(d, tv_);
    };
  }

  TelephonyConfig config_;
  Database db_;
  VariableTable vars_;
  TelephonyVars tv_;
  AbstractionForest forest_;
  ProvenanceQuery query_;
};

TEST_F(OnlineCompressorTest, PipelineProducesValidCut) {
  size_t full_size = query_(db_).SizeM();
  auto result = CompressOnline(db_, query_, forest_, full_size / 2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->vvs.Validate(forest_).ok());
  EXPECT_GT(result->sample_size_m, 0u);
  EXPECT_EQ(result->actual_full_size_m, full_size);
}

TEST_F(OnlineCompressorTest, GroupAwareSamplingUsesCallsTable) {
  size_t full_size = query_(db_).SizeM();
  OnlineOptions opts;
  opts.sampled_tables = {"Calls"};  // Fact table only (§6 heuristic).
  auto result = CompressOnline(db_, query_, forest_, full_size / 2, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // With dimensions intact, the sample provenance mirrors the full shape,
  // so the extrapolated size should be in the right ballpark.
  double ratio = static_cast<double>(result->estimated_full_size_m) /
                 static_cast<double>(result->actual_full_size_m);
  EXPECT_GT(ratio, 0.3);
  EXPECT_LT(ratio, 3.0);
}

TEST_F(OnlineCompressorTest, CompressedSizeNearBound) {
  size_t full_size = query_(db_).SizeM();
  size_t bound = full_size / 2;
  OnlineOptions opts;
  opts.sampled_tables = {"Calls"};
  opts.sample_rates = {0.1, 0.2, 0.4};
  auto result = CompressOnline(db_, query_, forest_, bound, opts);
  ASSERT_TRUE(result.ok());
  // The sample-chosen VVS need not be optimal for the full data, but it
  // should land within a reasonable factor of the bound.
  EXPECT_LT(result->compressed.SizeM(),
            full_size);  // Some compression happened.
  EXPECT_LT(static_cast<double>(result->compressed.SizeM()),
            2.0 * static_cast<double>(bound));
}

TEST_F(OnlineCompressorTest, RejectsBadRates) {
  OnlineOptions opts;
  opts.sample_rates = {};
  EXPECT_EQ(CompressOnline(db_, query_, forest_, 100, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.sample_rates = {0.0, 0.5};
  EXPECT_EQ(CompressOnline(db_, query_, forest_, 100, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.sample_rates = {0.5, 1.5};
  EXPECT_EQ(CompressOnline(db_, query_, forest_, 100, opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(OnlineCompressorTest, RejectsZeroBound) {
  EXPECT_EQ(CompressOnline(db_, query_, forest_, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(OnlineCompressorTest, UnreachableBoundFallsBackToMaxCompression) {
  OnlineOptions opts;
  opts.sampled_tables = {"Calls"};
  auto result = CompressOnline(db_, query_, forest_, 1, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Fallback = all roots: plan variables fully grouped.
  EXPECT_FALSE(result->met_bound);
  PolynomialSet full = query_(db_);
  EXPECT_LT(result->compressed.SizeM(), full.SizeM());
}

TEST_F(OnlineCompressorTest, RegistryAlgoSelectsCompressor) {
  size_t full_size = query_(db_).SizeM();
  OnlineOptions opts;
  opts.sampled_tables = {"Calls"};

  // Unknown names fail with the registry's enumerating error.
  opts.algo = "quantum";
  EXPECT_EQ(CompressOnline(db_, query_, forest_, full_size / 2, opts)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // An explicit greedy routes through the registry and behaves like the
  // default multi-tree path.
  opts.algo = "greedy";
  auto greedy = CompressOnline(db_, query_, forest_, full_size / 2, opts);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  EXPECT_TRUE(greedy->vvs.Validate(forest_).ok());
  EXPECT_FALSE(greedy->abstraction.grouping);
}

TEST_F(OnlineCompressorTest, ProxAlgoRequiresTableAndSerializes) {
  size_t full_size = query_(db_).SizeM();
  OnlineOptions opts;
  opts.sampled_tables = {"Calls"};
  opts.algo = "prox";

  // Without a table to intern group representatives into, the grouping
  // path is rejected before any algorithm runs.
  EXPECT_EQ(CompressOnline(db_, query_, forest_, full_size / 2, opts)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  opts.vars = &vars_;
  auto result = CompressOnline(db_, query_, forest_, full_size / 2, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->abstraction.grouping);
  EXPECT_LT(result->compressed.SizeM(), full_size);
  // The interned grouping serializes like any other artifact — no
  // out-of-table synthesized ids survive.
  std::string bytes = SerializePolynomialSet(result->compressed, vars_);
  VariableTable fresh;
  auto decoded = DeserializePolynomialSet(bytes, fresh);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->SizeM(), result->compressed.SizeM());
}

// ------------------------------------------------- incremental append path

TEST_F(OnlineCompressorTest, AnytimeBudgetSurfacesThroughPipeline) {
  size_t full_size = query_(db_).SizeM();
  OnlineOptions opts;
  opts.sampled_tables = {"Calls"};
  opts.time_budget_ms = 1;
  // A pre-expired budget still yields a usable pipeline result: the
  // anytime DP returns its best-so-far cut instead of kOutOfRange.
  auto result = CompressOnline(db_, query_, forest_, full_size / 2, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->vvs.Validate(forest_).ok());
  EXPECT_EQ(result->budget_exhausted, result->abstraction.budget_exhausted);
}

TEST_F(OnlineCompressorTest, AppendOnlinePatchesLocalizedAdd) {
  size_t full_size = query_(db_).SizeM();
  OnlineOptions opts;
  opts.sampled_tables = {"Calls"};
  // A loose bound keeps most leaves in the cut, so a leaf-level append
  // exists that does not cross the abstracted interior.
  auto result = CompressOnline(db_, query_, forest_, full_size - 8, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->abstraction.dp_state, nullptr)
      << "single-tree pipeline should retain the optimal DP tables";

  // Append over a variable the cut kept as a leaf: patchable by contract.
  VariableId leaf_var = kInvalidVariable;
  for (const NodeRef& ref : result->vvs.nodes()) {
    const auto& node = forest_.tree(ref.tree).node(ref.node);
    if (node.is_leaf()) {
      leaf_var = node.label;
      break;
    }
  }
  ASSERT_NE(leaf_var, kInvalidVariable);
  PolynomialSet added;
  added.Add(Polynomial::FromMonomials({Monomial(1.5, {{leaf_var, 1}})}));

  size_t compressed_before = result->compressed.SizeM();
  OnlineAppendInfo extra;
  Status s = AppendOnline(forest_, added, full_size - 8, &*result, opts,
                          &extra);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(extra.patched);
  EXPECT_EQ(extra.fallback, RecompressFallback::kNone);
  EXPECT_TRUE(result->vvs.Validate(forest_).ok());
  EXPECT_GT(result->compressed.SizeM(), compressed_before);

  // Differential: the patched cut is field-equal to a cold DP over the
  // grown sample at the same (adapted) bound.
  auto cold = OptimalSingleTree(result->decision_sample, forest_, 0,
                                result->adapted_bound);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(result->abstraction.loss.monomial_loss, cold->loss.monomial_loss);
  EXPECT_EQ(result->abstraction.loss.variable_loss, cold->loss.variable_loss);
  EXPECT_EQ(result->abstraction.vvs.nodes().size(), cold->vvs.nodes().size());
}

TEST_F(OnlineCompressorTest, AppendOnlinePatchesAcrossTheCut) {
  size_t full_size = query_(db_).SizeM();
  OnlineOptions opts;
  opts.sampled_tables = {"Calls"};
  auto result = CompressOnline(db_, query_, forest_, full_size / 2, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Find a leaf strictly below a chosen internal node. Appending there
  // changes the abstracted interior, which the DP's dirty-path recompute
  // covers like any other append: the patch is taken and equals a cold
  // run.
  VariableId inner_leaf = kInvalidVariable;
  const AbstractionTree& tree = forest_.tree(0);
  for (const NodeRef& ref : result->vvs.nodes()) {
    const auto& node = forest_.tree(ref.tree).node(ref.node);
    if (!node.is_leaf()) {
      inner_leaf = tree.node(tree.leaves()[node.leaf_begin]).label;
      break;
    }
  }
  if (inner_leaf == kInvalidVariable) {
    GTEST_SKIP() << "cut kept every leaf; no interior to cross";
  }
  PolynomialSet added;
  added.Add(Polynomial::FromMonomials({Monomial(2.0, {{inner_leaf, 1}})}));

  OnlineAppendInfo extra;
  Status s = AppendOnline(forest_, added, full_size / 2, &*result, opts,
                          &extra);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(extra.patched);
  EXPECT_EQ(extra.fallback, RecompressFallback::kNone);
  EXPECT_TRUE(result->vvs.Validate(forest_).ok());

  auto cold = OptimalSingleTree(result->decision_sample, forest_, 0,
                                result->adapted_bound);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(result->abstraction.loss.monomial_loss, cold->loss.monomial_loss);
  EXPECT_EQ(result->abstraction.loss.variable_loss, cold->loss.variable_loss);
  EXPECT_EQ(result->abstraction.adequate, cold->adequate);
  std::vector<NodeRef> patched_cut = result->abstraction.vvs.nodes();
  std::vector<NodeRef> cold_cut = cold->vvs.nodes();
  std::sort(patched_cut.begin(), patched_cut.end());
  std::sort(cold_cut.begin(), cold_cut.end());
  EXPECT_EQ(patched_cut, cold_cut);
}

TEST_F(OnlineCompressorTest, AppendOnlineRejectsGroupings) {
  size_t full_size = query_(db_).SizeM();
  OnlineOptions opts;
  opts.sampled_tables = {"Calls"};
  opts.algo = "prox";
  opts.vars = &vars_;
  auto result = CompressOnline(db_, query_, forest_, full_size / 2, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  PolynomialSet added;
  added.Add(Polynomial::FromMonomials(
      {Monomial(1.0, {{tv_.plan_vars.front(), 1}})}));
  EXPECT_EQ(AppendOnline(forest_, added, full_size / 2, &*result, opts)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(OnlineCompressorTest, MultiTreeForestUsesGreedy) {
  AbstractionForest forest2;
  forest2.AddTree(BuildUniformTree(vars_, tv_.plan_vars, {4, 2}, "OC2_"));
  forest2.AddTree(MakeFigure3MonthsTree(vars_, 12));
  ASSERT_TRUE(forest2.Validate().ok());
  size_t full_size = query_(db_).SizeM();
  OnlineOptions opts;
  opts.sampled_tables = {"Calls"};
  auto result = CompressOnline(db_, query_, forest2, full_size / 3, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->vvs.Validate(forest2).ok());
}

}  // namespace
}  // namespace provabs
