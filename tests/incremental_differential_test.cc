// Randomized incremental-vs-full differential for the delta-aware update
// path. Across 30 seeds, every OptimalRecompress that accepts a patch must
// be FIELD-EQUAL to a cold full DP over the grown set — same loss, same
// adequacy, same chosen cut — and the compressed sets the two results
// produce must serialize BYTE-identically. Where the patch is declined
// (headroom exhausted, tree shape changed, ...) the full DP is
// authoritative and the differential is trivially satisfied; the
// deterministic tests below pin down that the accept and decline paths are
// both actually exercised, including appends below a chosen internal node,
// which patch like any other.
//
// The add-then-evaluate arm covers the other cache that appends must
// invalidate: the compiled evaluation form (and through it the jit code
// cache, which keys emitted modules on the compiled fingerprint). After an
// Add, EvaluateAll must route through a NEW fingerprint and reproduce the
// naive per-polynomial reference bitwise — a stale module would mis-index.
//
// The served arm drives the same checks through ProvenanceService, where a
// view is built by its first read, and grows the predecessor generation's
// view by the delta when the cut is kept instead of re-applying the cut:
// every served view must still equal a cold Apply byte for byte. The bound
// arm asks one generation's retained DP state for many bounds: every
// answer must equal a cold DP at that bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "algo/optimal_single_tree.h"
#include "common/random.h"
#include "core/compiled_polynomial_set.h"
#include "core/valuation.h"
#include "io/serializer.h"
#include "server/provenance_service.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Naive per-polynomial reference defining the canonical summation order.
std::vector<double> NaiveEvaluateAll(const Valuation& val,
                                     const PolynomialSet& polys) {
  std::vector<double> out;
  out.reserve(polys.count());
  for (const Polynomial& p : polys.polynomials()) {
    out.push_back(val.Evaluate(p));
  }
  return out;
}

std::vector<NodeRef> SortedNodes(const ValidVariableSet& vvs) {
  std::vector<NodeRef> nodes = vvs.nodes();
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

/// Attempts the patch, runs the cold DP, and cross-checks. Returns the
/// result to chain the next stage from (the patched one when it was
/// accepted, so later stages patch on top of patches), and reports whether
/// the patch path answered via `patched_out`.
CompressionResult RecompressAndCompare(const PolynomialSet& polys,
                                       const AbstractionForest& forest,
                                       const VariableTable& vars,
                                       const CompressionResult& prev,
                                       uint64_t from_revision, size_t bound,
                                       bool* patched_out) {
  *patched_out = false;
  PolynomialSetDelta delta = polys.DeltaSince(from_revision);
  RecompressFallback fallback = RecompressFallback::kNone;
  auto patched =
      OptimalRecompress(polys, forest, prev, delta, bound, &fallback);
  auto full = OptimalSingleTree(polys, forest, 0, bound);
  if (patched.status().code() == StatusCode::kInfeasible) {
    // Authoritative infeasibility: the full DP must agree exactly.
    EXPECT_EQ(full.status().code(), StatusCode::kInfeasible);
    CompressionResult roots;
    roots.vvs = ValidVariableSet::AllRoots(forest);
    return roots;
  }
  if (!patched.ok()) {
    // Declined: a fallback reason must have been reported and the caller's
    // full run stands — which may itself be infeasible (the bound stays
    // fixed while the set grows), matching what a fresh request would see.
    EXPECT_EQ(patched.status().code(), StatusCode::kFailedPrecondition)
        << patched.status().ToString();
    EXPECT_NE(fallback, RecompressFallback::kNone);
    if (!full.ok()) {
      EXPECT_EQ(full.status().code(), StatusCode::kInfeasible)
          << full.status().ToString();
      CompressionResult roots;
      roots.vvs = ValidVariableSet::AllRoots(forest);
      return roots;
    }
    return std::move(*full);
  }
  // An accepted patch while the full DP is infeasible would be a real
  // divergence: the patch contract is to return kInfeasible exactly when
  // the full DP would.
  EXPECT_TRUE(full.ok()) << full.status().ToString();
  if (!full.ok()) return CompressionResult{};
  *patched_out = true;
  EXPECT_EQ(fallback, RecompressFallback::kNone);

  // Field equality against the cold run.
  EXPECT_EQ(patched->loss.monomial_loss, full->loss.monomial_loss);
  EXPECT_EQ(patched->loss.variable_loss, full->loss.variable_loss);
  EXPECT_EQ(patched->adequate, full->adequate);
  EXPECT_FALSE(patched->budget_exhausted);
  EXPECT_EQ(SortedNodes(patched->vvs), SortedNodes(full->vvs));

  // Byte identity of the compressed artifacts the two results produce.
  std::string patched_bytes =
      SerializePolynomialSet(patched->Apply(forest, polys), vars);
  std::string full_bytes =
      SerializePolynomialSet(full->Apply(forest, polys), vars);
  EXPECT_EQ(patched_bytes, full_bytes);
  return std::move(*patched);
}

/// Tree compatibility allows at most one variable OF THE TREE per
/// monomial; off-tree variables may ride along freely.
Polynomial RandomPolynomial(Rng& rng, const std::vector<VariableId>& leaves,
                            const std::vector<VariableId>& externals,
                            size_t max_monomials) {
  std::vector<Monomial> terms;
  const size_t m = 1 + rng.Uniform(max_monomials);
  for (size_t i = 0; i < m; ++i) {
    std::vector<Factor> f;
    f.push_back({leaves[rng.Uniform(leaves.size())], 1});
    if (!externals.empty() && rng.Bernoulli(0.4)) {
      f.push_back({externals[rng.Uniform(externals.size())], 1});
    }
    terms.emplace_back(rng.UniformReal(0.5, 9.5), std::move(f));
  }
  return Polynomial::FromMonomials(std::move(terms));
}

class IncrementalDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalDifferentialTest, PatchedEqualsFullAcrossUpdateShapes) {
  Rng rng(61000 + GetParam());
  VariableTable vars;

  const size_t num_leaves = 8 + rng.Uniform(9);
  std::vector<VariableId> leaves;
  for (size_t i = 0; i < num_leaves; ++i) {
    leaves.push_back(vars.Intern("inc" + std::to_string(GetParam()) + "_" +
                                 std::to_string(i)));
  }
  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(vars, leaves,
                                  rng.Bernoulli(0.5)
                                      ? std::vector<uint32_t>{2, 2}
                                      : std::vector<uint32_t>{3},
                                  "IT" + std::to_string(GetParam()) + "_"));
  ASSERT_TRUE(forest.Validate().ok());

  std::vector<VariableId> externals;
  for (int i = 0; i < 2; ++i) {
    externals.push_back(vars.Intern("ext" + std::to_string(GetParam()) +
                                    "_" + std::to_string(i)));
  }

  PolynomialSet polys;
  const size_t num_polys = 4 + rng.Uniform(4);
  for (size_t p = 0; p < num_polys; ++p) {
    polys.Add(RandomPolynomial(rng, leaves, externals, 8));
  }
  ASSERT_TRUE(forest.CheckCompatible(polys).ok());

  // Find a feasible bound (bound >= |P|_M always is: the all-leaves cut
  // loses nothing). Half the seeds compress hard (tight bound, more
  // frontier crossings), half stay loose (small k, more accepted patches).
  size_t bound = rng.Bernoulli(0.5)
                     ? 1 + polys.SizeM() / 2
                     : (polys.SizeM() > 8 ? polys.SizeM() - 4
                                          : polys.SizeM());
  auto base = OptimalSingleTree(polys, forest, 0, bound);
  while (!base.ok() &&
         base.status().code() == StatusCode::kInfeasible) {
    bound += 1 + bound / 2;
    base = OptimalSingleTree(polys, forest, 0, bound);
  }
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_NE(base->dp_state, nullptr);
  CompressionResult current = std::move(*base);

  // Stage 1: a single localized add.
  uint64_t rev = polys.revision();
  polys.Add(RandomPolynomial(rng, leaves, externals, 3));
  bool patched = false;
  current = RecompressAndCompare(polys, forest, vars, current, rev, bound,
                                 &patched);

  // Stage 2: a batched add (several polynomials in one delta span).
  rev = polys.revision();
  const size_t batch = 2 + rng.Uniform(3);
  for (size_t i = 0; i < batch; ++i) {
    polys.Add(RandomPolynomial(rng, leaves, externals, 3));
  }
  current = RecompressAndCompare(polys, forest, vars, current, rev, bound,
                                 &patched);

  // Stage 3: an add aimed at the abstracted interior when one exists,
  // below a chosen internal node. The patch recomputes the dirty path like
  // any other; RecompressAndCompare holds it to the cold run.
  if (current.dp_state != nullptr) {
    const AbstractionTree& tree = forest.tree(0);
    VariableId inner = kInvalidVariable;
    for (const NodeRef& ref : current.vvs.nodes()) {
      const auto& node = tree.node(ref.node);
      if (!node.is_leaf()) {
        inner = tree.node(tree.leaves()[node.leaf_begin]).label;
        break;
      }
    }
    if (inner != kInvalidVariable) {
      rev = polys.revision();
      polys.Add(Polynomial::FromMonomials(
          {Monomial(rng.UniformReal(0.5, 9.5), {{inner, 1}})}));
      current = RecompressAndCompare(polys, forest, vars, current, rev,
                                     bound, &patched);
    }
  }

  // Stage 4: add-then-evaluate. The compiled form (and the jit module
  // keyed on its fingerprint) must be invalidated by the appends: a fresh
  // fingerprint, and registry evaluation bitwise-equal to the naive
  // reference on the grown set.
  Valuation val;
  for (VariableId v : leaves) val.Set(v, rng.UniformReal(0.1, 2.0));
  uint64_t fp_before = polys.Compiled()->fingerprint();
  std::vector<double> warm = val.EvaluateAll(polys);
  std::vector<double> ref = NaiveEvaluateAll(val, polys);
  ASSERT_EQ(warm.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(Bits(warm[i]), Bits(ref[i])) << "polynomial " << i;
  }
  polys.Add(RandomPolynomial(rng, leaves, externals, 3));
  EXPECT_NE(polys.Compiled()->fingerprint(), fp_before);
  std::vector<double> after = val.EvaluateAll(polys);
  std::vector<double> ref_after = NaiveEvaluateAll(val, polys);
  ASSERT_EQ(after.size(), ref_after.size());
  for (size_t i = 0; i < ref_after.size(); ++i) {
    EXPECT_EQ(Bits(after[i]), Bits(ref_after[i])) << "polynomial " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDifferentialTest,
                         ::testing::Range(0, 30));

// ------------------------------------------------ served view growth ---

/// Arrays, slots and counts of a compiled form against a cold compile.
bool SameCompiledArrays(const CompiledPolynomialSet& a,
                        const CompiledPolynomialSet& b) {
  if (a.poly_count() != b.poly_count() ||
      a.monomial_count() != b.monomial_count() ||
      a.factor_count() != b.factor_count() ||
      a.slot_variables() != b.slot_variables()) {
    return false;
  }
  const CompiledPolynomialSet::CsrView x = a.csr();
  const CompiledPolynomialSet::CsrView y = b.csr();
  auto same = [](const void* p, const void* q, size_t bytes) {
    return bytes == 0 || std::memcmp(p, q, bytes) == 0;
  };
  return same(x.poly_offsets, y.poly_offsets,
              (a.poly_count() + 1) * sizeof(uint32_t)) &&
         same(x.mono_offsets, y.mono_offsets,
              (a.monomial_count() + 1) * sizeof(uint32_t)) &&
         same(x.coefficients, y.coefficients,
              a.monomial_count() * sizeof(double)) &&
         same(x.factor_slots, y.factor_slots,
              a.factor_count() * sizeof(uint32_t));
}

/// A served test instance: a tree over 8–16 leaves plus two off-tree
/// variables, and `min_polys` + [0, 4) polynomials over them.
struct ServedInstance {
  VariableTable vars;
  std::vector<VariableId> leaves;
  std::vector<VariableId> externals;
  AbstractionForest forest;
  PolynomialSet polys;
};

ServedInstance MakeServedInstance(Rng& rng, size_t min_polys) {
  ServedInstance in;
  const size_t num_leaves = 8 + rng.Uniform(9);
  for (size_t i = 0; i < num_leaves; ++i) {
    in.leaves.push_back(in.vars.Intern("sv" + std::to_string(i)));
  }
  in.forest.AddTree(BuildUniformTree(
      in.vars, in.leaves,
      rng.Bernoulli(0.5) ? std::vector<uint32_t>{2, 2}
                         : std::vector<uint32_t>{3},
      "SV_"));
  in.externals = {in.vars.Intern("svx0"), in.vars.Intern("svx1")};
  // Every polynomial mentions most leaves, so abstracting one node merges
  // monomials across all of them: losses come in coarse steps and the
  // chosen cut usually has slack for a few more monomials, as on larger
  // artifacts.
  const size_t num_polys = min_polys + rng.Uniform(4);
  for (size_t p = 0; p < num_polys; ++p) {
    std::vector<Monomial> terms;
    for (VariableId leaf : in.leaves) {
      if (rng.Bernoulli(0.2)) continue;
      terms.emplace_back(rng.UniformReal(0.5, 9.5),
                         std::vector<Factor>{{leaf, 1}});
      if (rng.Bernoulli(0.5)) {
        terms.emplace_back(rng.UniformReal(0.5, 9.5),
                           std::vector<Factor>{
                               {leaf, 1}, {in.externals[rng.Uniform(2)], 1}});
      }
    }
    in.polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }
  return in;
}

/// A service with `in` loaded as artifact "v" with forest "t".
std::unique_ptr<ProvenanceService> ServeInstance(const ServedInstance& in,
                                                 ServiceOptions options) {
  options.eval_threads = 1;
  auto service = std::make_unique<ProvenanceService>(options);
  LoadRequest load;
  load.artifact = "v";
  load.polys_bytes = SerializePolynomialSet(in.polys, in.vars);
  load.forests = {{"t", SerializeForest(in.forest, in.vars)}};
  EXPECT_TRUE(service->Load(load).ok());
  return service;
}

// The served path over the same 30 seeds: after every Append, the service's
// compress (patched where the ancestor's DP state allows) must serve a view
// that serializes byte-identically to a cold Apply of a cold DP over the
// artifact, whose compiled form has a cold compile's arrays, and whose
// evaluation is bitwise naive. Appends land mostly on leaves the current
// cut keeps (the view-extension path) and sometimes anywhere (changed cuts
// and recompress fallbacks); across the seeds both the extension and the
// changed-cut path must actually be taken.
TEST(IncrementalServiceDifferentialTest, ServedViewsMatchColdApplyAcrossSeeds) {
  ProvenanceService::ViewBuildStats totals;
  for (int seed = 0; seed < 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(73000 + seed);
    ServedInstance in = MakeServedInstance(rng, 4);
    const VariableTable& vars = in.vars;
    const std::vector<VariableId>& leaves = in.leaves;
    const std::vector<VariableId>& externals = in.externals;
    const size_t bound =
        in.polys.SizeM() - 1 - rng.Uniform(in.polys.SizeM() / 8);
    std::unique_ptr<ProvenanceService> served = ServeInstance(in, {});
    ProvenanceService& service = *served;
    CompressRequest creq;
    creq.artifact = "v";
    creq.forest = "t";
    creq.algo = "opt";
    creq.bound = bound;

    for (int step = 0; step < 10; ++step) {
      std::shared_ptr<const Artifact> artifact = service.store().Get("v");
      ASSERT_NE(artifact, nullptr);
      const AbstractionForest& served_forest = *artifact->FindForest("t");
      Response compressed = service.Compress(creq);
      auto cold = OptimalSingleTree(artifact->polys, served_forest, 0, bound);
      ASSERT_EQ(compressed.ok(), cold.ok()) << compressed.message;
      std::vector<VariableId> kept;
      if (cold.ok()) {
        const PolynomialSet cold_view =
            cold->Apply(served_forest, artifact->polys);
        EXPECT_EQ(compressed.compressed_monomials, cold_view.SizeM());

        EvaluateRequest ereq;
        ereq.artifact = "v";
        ereq.compressed = true;
        ereq.forest = "t";
        ereq.algo = "opt";
        ereq.bound = bound;
        ereq.assignments = {{"svx0", rng.UniformReal(0.5, 2.0)}};
        Response values = service.Evaluate(ereq);
        ASSERT_TRUE(values.ok()) << values.message;
        Valuation val;
        val.Set(artifact->vars->Find("svx0"), ereq.assignments[0].second);
        std::vector<double> want = NaiveEvaluateAll(val, cold_view);
        ASSERT_EQ(values.values.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(Bits(values.values[i]), Bits(want[i])) << "poly " << i;
        }
        // The evaluate built the view and republished it under the key.
        std::shared_ptr<const ArtifactStore::CompressedResult> result =
            service.store().PeekResult(
                {"v", artifact->generation, "t", bound, "opt"});
        ASSERT_NE(result, nullptr);
        ASSERT_TRUE(result->view_built);
        EXPECT_EQ(SerializePolynomialSet(result->compressed, *artifact->vars),
                  SerializePolynomialSet(cold_view, *artifact->vars));
        EXPECT_TRUE(SameCompiledArrays(
            *result->compressed.Compiled(),
            CompiledPolynomialSet::Compile(result->compressed)));

        const AbstractionTree& tree = served_forest.tree(0);
        for (const NodeRef& ref : cold->vvs.nodes()) {
          if (tree.node(ref.node).is_leaf()) {
            kept.push_back(
                vars.Find(artifact->vars->NameOf(tree.node(ref.node).label)));
          }
        }
      }
      PolynomialSet delta;
      delta.Add(!kept.empty() && rng.Bernoulli(0.8)
                    ? RandomPolynomial(rng, kept, externals, 1)
                    : RandomPolynomial(rng, leaves, externals, 3));
      AppendRequest areq;
      areq.artifact = "v";
      areq.polys_bytes = SerializePolynomialSet(delta, vars);
      ASSERT_TRUE(service.Append(areq).ok());
    }
    const ProvenanceService::ViewBuildStats stats = service.view_build_stats();
    totals.extended += stats.extended;
    totals.cut_changed += stats.cut_changed;
    totals.full += stats.full;
  }
  EXPECT_GT(totals.extended, 0u);
  EXPECT_GT(totals.cut_changed, 0u);
  EXPECT_GT(totals.full, 0u);
  std::printf("served views: %llu extended, %llu cut changed, %llu full\n",
              static_cast<unsigned long long>(totals.extended),
              static_cast<unsigned long long>(totals.cut_changed),
              static_cast<unsigned long long>(totals.full));
}

// One generation's retained DP state answers every bound. Per seed, three
// generations apart by appends each take ~20 random bounds: a first one
// that fits (k = 0, so the state is built at the default headroom), then
// bounds across the whole range, among them infeasible ones and one whose k
// exceeds that first clamp, which forces the single rebuild at |P|_M.
// Every served answer must be field-identical to a cold OptimalSingleTree,
// every view a read builds byte-identical to a cold Apply (with a cold
// compile's arrays), and compressed_monomials that view's size. The same
// bounds through OptimalRecompress with an empty delta (a pure re-query)
// must agree as well.
TEST(IncrementalServiceDifferentialTest, RandomBoundSequencesMatchColdRuns) {
  uint64_t rebuilt_generations = 0;
  for (int seed = 0; seed < 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(79000 + seed);
    ServedInstance in = MakeServedInstance(rng, 10);
    int dp_runs = 0;
    ServiceOptions options;
    options.compress_hook = [&](const ArtifactStore::ResultKey&) { ++dp_runs; };
    std::unique_ptr<ProvenanceService> service = ServeInstance(in, options);

    for (int generation = 0; generation < 3; ++generation) {
      SCOPED_TRACE("generation " + std::to_string(generation));
      std::shared_ptr<const Artifact> artifact = service->store().Get("v");
      ASSERT_NE(artifact, nullptr);
      const PolynomialSet& polys = artifact->polys;
      const AbstractionForest& forest = *artifact->FindForest("t");
      const size_t size_m = polys.SizeM();
      const size_t first_clamp =
          std::min<size_t>(size_m, OptimalOptions{}.retain_headroom);
      OptimalOptions wide;
      wide.retain_headroom = UINT32_MAX;
      auto requery_base = OptimalSingleTree(polys, forest, 0, size_m, wide);
      ASSERT_TRUE(requery_base.ok()) << requery_base.status().ToString();

      std::vector<size_t> bounds = {size_m, 1};
      if (size_m > first_clamp + 1) {
        bounds.push_back(size_m - first_clamp - 1 -
                         rng.Uniform(size_m - first_clamp - 1));
      }
      while (bounds.size() < 20) bounds.push_back(1 + rng.Uniform(size_m));
      std::vector<size_t> tail(bounds.begin() + 1, bounds.end());
      rng.Shuffle(tail);
      std::copy(tail.begin(), tail.end(), bounds.begin() + 1);

      const int dp_runs_before = dp_runs;
      for (size_t i = 0; i < bounds.size(); ++i) {
        const size_t bound = bounds[i];
        SCOPED_TRACE("bound " + std::to_string(bound));
        CompressRequest creq;
        creq.artifact = "v";
        creq.forest = "t";
        creq.bound = bound;
        Response served = service->Compress(creq);
        auto cold = OptimalSingleTree(polys, forest, 0, bound);
        auto requery = OptimalRecompress(polys, forest, *requery_base,
                                         polys.DeltaSince(polys.revision()),
                                         bound);
        ASSERT_EQ(served.code, cold.status().code()) << served.message;
        ASSERT_EQ(requery.status().code(), cold.status().code());
        if (!cold.ok()) {
          EXPECT_EQ(cold.status().code(), StatusCode::kInfeasible);
          continue;
        }
        EXPECT_EQ(served.monomial_loss, cold->loss.monomial_loss);
        EXPECT_EQ(served.variable_loss, cold->loss.variable_loss);
        EXPECT_EQ(served.adequate, cold->adequate);
        EXPECT_EQ(served.vvs, cold->Describe(forest, *artifact->vars));
        EXPECT_EQ(requery->loss.monomial_loss, cold->loss.monomial_loss);
        EXPECT_EQ(requery->loss.variable_loss, cold->loss.variable_loss);
        EXPECT_EQ(requery->adequate, cold->adequate);
        EXPECT_EQ(SortedNodes(requery->vvs), SortedNodes(cold->vvs));
        const PolynomialSet cold_view = cold->Apply(forest, polys);
        EXPECT_EQ(served.compressed_monomials, cold_view.SizeM());
        if (i % 3 != 0) continue;

        EvaluateRequest ereq;
        ereq.artifact = "v";
        ereq.compressed = true;
        ereq.forest = "t";
        ereq.bound = bound;
        Response values = service->Evaluate(ereq);
        ASSERT_TRUE(values.ok()) << values.message;
        std::shared_ptr<const ArtifactStore::CompressedResult> result =
            service->store().PeekResult(
                {"v", artifact->generation, "t", bound, "opt"});
        ASSERT_NE(result, nullptr);
        ASSERT_TRUE(result->view_built);
        EXPECT_EQ(result->compressed.SizeM(), served.compressed_monomials);
        EXPECT_EQ(SerializePolynomialSet(result->compressed, *artifact->vars),
                  SerializePolynomialSet(cold_view, *artifact->vars));
        EXPECT_TRUE(SameCompiledArrays(
            *result->compressed.Compiled(),
            CompiledPolynomialSet::Compile(result->compressed)));
      }
      // At most the first build and one rebuild per generation; the first
      // generation has no ancestor to patch, so it takes both whenever some
      // bound's k exceeds the first clamp.
      const int runs = dp_runs - dp_runs_before;
      EXPECT_LE(runs, 2);
      if (generation == 0) {
        EXPECT_EQ(runs, size_m > first_clamp + 1 ? 2 : 1);
      }
      if (runs == 2) ++rebuilt_generations;

      PolynomialSet delta;
      delta.Add(RandomPolynomial(rng, in.leaves, in.externals, 3));
      AppendRequest areq;
      areq.artifact = "v";
      areq.polys_bytes = SerializePolynomialSet(delta, in.vars);
      ASSERT_TRUE(service->Append(areq).ok());
    }
  }
  EXPECT_GT(rebuilt_generations, 0u);
}

// ------------------------------------------------ deterministic anchors

/// A shape where the patch MUST be accepted: the appended polynomial only
/// touches a leaf the cut kept, so no chosen interior is crossed and the
/// default retain_headroom easily covers the growth.
TEST(IncrementalDeterministicTest, LocalizedAddTakesThePatchPath) {
  VariableTable vars;
  std::vector<VariableId> leaves;
  for (int i = 0; i < 8; ++i) {
    leaves.push_back(vars.Intern("det" + std::to_string(i)));
  }
  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(vars, leaves, {4, 2}, "DET_"));

  // Every polynomial mentions all eight leaves once, so grouping ONE mid
  // node saves one monomial per polynomial — enough for a bound that only
  // needs a few: the optimal cut abstracts a single pair and keeps the
  // other six leaves chosen as themselves.
  PolynomialSet polys;
  for (int p = 0; p < 6; ++p) {
    std::vector<Monomial> terms;
    for (int m = 0; m < 8; ++m) {
      terms.emplace_back(1.0 + p + 0.25 * m,
                         std::vector<Factor>{{leaves[m], 1}});
    }
    polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }
  const size_t bound = polys.SizeM() - 4;
  auto base = OptimalSingleTree(polys, forest, 0, bound);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_NE(base->dp_state, nullptr);

  // Find a leaf the cut kept and append there.
  const AbstractionTree& tree = forest.tree(0);
  VariableId kept = kInvalidVariable;
  for (const NodeRef& ref : base->vvs.nodes()) {
    if (tree.node(ref.node).is_leaf()) {
      kept = tree.node(ref.node).label;
      break;
    }
  }
  ASSERT_NE(kept, kInvalidVariable) << "bound chosen too tight for anchor";

  uint64_t rev = polys.revision();
  polys.Add(Polynomial::FromMonomials({Monomial(2.5, {{kept, 1}})}));
  bool patched = false;
  RecompressAndCompare(polys, forest, vars, *base, rev, bound, &patched);
  EXPECT_TRUE(patched) << "localized add must take the patch path";
}

/// An append strictly below a chosen internal node. The DP arrays depend on
/// the tree and the residual index, never on the previous cut, so the patch
/// recomputes the dirty path as for any other append and must equal a cold
/// run.
TEST(IncrementalDeterministicTest, CrossingAddTakesThePatchPath) {
  VariableTable vars;
  std::vector<VariableId> leaves;
  for (int i = 0; i < 8; ++i) {
    leaves.push_back(vars.Intern("crx" + std::to_string(i)));
  }
  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(vars, leaves, {4, 2}, "CRX_"));

  PolynomialSet polys;
  for (int p = 0; p < 6; ++p) {
    std::vector<Monomial> terms;
    for (int m = 0; m < 6; ++m) {
      terms.emplace_back(1.0 + m,
                         std::vector<Factor>{{leaves[(p + m) % 8], 1}});
    }
    polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }
  const size_t bound = 1 + polys.SizeM() / 2;
  auto base = OptimalSingleTree(polys, forest, 0, bound);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_NE(base->dp_state, nullptr);

  const AbstractionTree& tree = forest.tree(0);
  VariableId inner = kInvalidVariable;
  for (const NodeRef& ref : base->vvs.nodes()) {
    const auto& node = tree.node(ref.node);
    if (!node.is_leaf()) {
      inner = tree.node(tree.leaves()[node.leaf_begin]).label;
      break;
    }
  }
  ASSERT_NE(inner, kInvalidVariable)
      << "halving bound must abstract some interior";

  uint64_t rev = polys.revision();
  polys.Add(Polynomial::FromMonomials({Monomial(2.0, {{inner, 1}})}));
  bool patched = false;
  RecompressAndCompare(polys, forest, vars, *base, rev, bound, &patched);
  EXPECT_TRUE(patched) << "an append below the cut must take the patch path";
}

/// A delta never runs out of history: after 132 appends, one DP state
/// still patches to exactly the cold run over the grown set. A delta that
/// does not start at the state's revision, or starts beyond the set's,
/// declines with kDeltaIncomplete instead of patching against the wrong
/// polynomials.
TEST(IncrementalDeterministicTest, LongAppendChainPatchesOnlyFromItsRevision) {
  VariableTable vars;
  std::vector<VariableId> leaves;
  for (int i = 0; i < 4; ++i) {
    leaves.push_back(vars.Intern("trn" + std::to_string(i)));
  }
  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(vars, leaves, {2}, "TRN_"));

  PolynomialSet polys;
  for (int p = 0; p < 4; ++p) {
    polys.Add(Polynomial::FromMonomials(
        {Monomial(1.0 + p, {{leaves[p % 4], 1}})}));
  }
  auto base = OptimalSingleTree(polys, forest, 0, polys.SizeM());
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_NE(base->dp_state, nullptr);

  uint64_t rev = polys.revision();
  for (size_t i = 0; i < 132; ++i) {
    polys.Add(Polynomial::FromMonomials(
        {Monomial(1.0, {{leaves[i % 4], 1}})}));
  }
  EXPECT_TRUE(polys.DeltaSince(rev).complete);
  bool patched = false;
  RecompressAndCompare(polys, forest, vars, *base, rev, polys.SizeM(),
                       &patched);
  EXPECT_TRUE(patched) << "a long append chain must still take the patch path";

  EXPECT_FALSE(polys.DeltaSince(polys.revision() + 1).complete);
  for (const PolynomialSetDelta& delta :
       {polys.DeltaSince(rev + 1), polys.DeltaSince(polys.revision() + 1)}) {
    RecompressFallback fallback = RecompressFallback::kNone;
    auto declined = OptimalRecompress(polys, forest, *base, delta,
                                      polys.SizeM(), &fallback);
    EXPECT_FALSE(declined.ok());
    EXPECT_EQ(fallback, RecompressFallback::kDeltaIncomplete);
  }
}

}  // namespace
}  // namespace provabs
