/// Extension bench: the delta-aware update path. A localized `Add` on the
/// standard workloads must skip the full DP — OptimalRecompress folds the
/// appended monomials into the retained residual index and recomputes only
/// the DP arrays along the dirty leaf→root paths, so the patched latency
/// should sit well below a cold full-DP run over the grown set.
///
/// The driver doubles as the differential's last line of defense: the
/// patched result is cross-checked against a cold run on every workload
/// (loss fields, chosen cut, and the serialized bytes of the compressed
/// artifact), and ANY divergence makes the process exit nonzero — failing
/// tools/bench_smoke.sh on every machine. So does a worst-case patched
/// speedup under 2x (the PATCHSTAT ratio; ~2.4-3.5x at smoke scale on a
/// 4-vCPU Xeon VM).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "algo/optimal_single_tree.h"
#include "bench/bench_util.h"
#include "common/timer.h"
#include "io/serializer.h"

namespace provabs::bench {
namespace {

std::vector<NodeRef> SortedNodes(const ValidVariableSet& vvs) {
  std::vector<NodeRef> nodes = vvs.nodes();
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

/// Leaves the chosen cut keeps as themselves — the only append targets the
/// frontier test accepts (an append strictly below a chosen internal node
/// lands in the abstracted interior and must decline with crosses_cut).
std::vector<VariableId> KeptLeaves(const AbstractionForest& forest,
                                   const ValidVariableSet& vvs) {
  std::vector<VariableId> kept;
  for (const NodeRef& ref : vvs.nodes()) {
    const AbstractionTree::Node& node = forest.tree(ref.tree).node(ref.node);
    if (node.is_leaf()) kept.push_back(node.label);
  }
  return kept;
}

/// A localized update: a few monomials all touching ONE kept leaf, the
/// server-side `append` verb's typical shape. Locality is what the patch
/// path monetizes — every distinct dirtied leaf adds a leaf→root path of
/// array recomputes, so an append spraying across the tree converges on
/// full-DP cost while a single-leaf add leaves all sibling subtrees' work
/// reused as-is.
Polynomial LocalizedAppend(VariableId kept_leaf) {
  std::vector<Monomial> terms;
  for (size_t i = 0; i < 4; ++i) {
    terms.emplace_back(1.5 + 0.25 * static_cast<double>(i),
                       std::vector<Factor>{{kept_leaf, 1}});
  }
  return Polynomial::FromMonomials(std::move(terms));
}

struct WorkloadRun {
  bool configured = false;  ///< A patchable (bound, append) pair was found.
  bool diverged = false;
  double patched_s = 0;
  double full_s = 0;
  size_t bound = 0;
  uint64_t monomial_loss = 0;
  uint64_t variable_loss = 0;
};

WorkloadRun RunWorkload(const Workload& w) {
  WorkloadRun run;
  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(*w.vars, w.tree_leaves, {4, 4}, "INC_"));

  // Bound search, tightest first: a tight bound makes the cold DP carry a
  // large k and shows the patch at its best, but may abstract every leaf
  // (no patch target); SizeM−8 always keeps leaves chosen and is always
  // feasible (the identity cut has zero loss).
  std::vector<size_t> candidates = {FeasibleBound(w.polys, forest, 0.5),
                                    FeasibleBound(w.polys, forest, 0.25)};
  if (w.polys.SizeM() > 8) candidates.push_back(w.polys.SizeM() - 8);

  for (size_t bound : candidates) {
    PolynomialSet polys = w.polys;
    auto base = OptimalSingleTree(polys, forest, 0, bound);
    if (!base.ok() || base->dp_state == nullptr) continue;
    std::vector<VariableId> kept = KeptLeaves(forest, base->vvs);
    if (kept.empty()) continue;

    const uint64_t from_revision = polys.revision();
    polys.Add(LocalizedAppend(kept.front()));
    PolynomialSetDelta delta = polys.DeltaSince(from_revision);

    RecompressFallback fallback = RecompressFallback::kNone;
    auto patched =
        OptimalRecompress(polys, forest, *base, delta, bound, &fallback);
    if (!patched.ok()) {
      std::printf("  (bound %zu declined: %s)\n", bound,
                  RecompressFallbackName(fallback));
      continue;
    }

    // Timing. OptimalRecompress is pure in its arguments, so repeated runs
    // measure the same patch; min-of-N sheds scheduler noise.
    constexpr int kPatchedReps = 11;
    constexpr int kFullReps = 5;
    run.patched_s = 1e30;
    for (int i = 0; i < kPatchedReps; ++i) {
      Timer t;
      auto r = OptimalRecompress(polys, forest, *base, delta, bound);
      run.patched_s = std::min(run.patched_s, t.ElapsedSeconds());
      if (!r.ok()) run.diverged = true;  // Accepted once must accept again.
    }
    Timer t_full;
    auto full = OptimalSingleTree(polys, forest, 0, bound);
    run.full_s = t_full.ElapsedSeconds();
    for (int i = 1; i < kFullReps; ++i) {
      Timer t;
      auto again = OptimalSingleTree(polys, forest, 0, bound);
      run.full_s = std::min(run.full_s, t.ElapsedSeconds());
      (void)again;
    }

    // Differential: field-equal and byte-identical, or the bench fails.
    if (!full.ok()) {
      std::printf("  DIVERGENCE: patch accepted but full DP failed: %s\n",
                  full.status().ToString().c_str());
      run.diverged = true;
    } else if (patched->loss.monomial_loss != full->loss.monomial_loss ||
               patched->loss.variable_loss != full->loss.variable_loss ||
               patched->adequate != full->adequate ||
               SortedNodes(patched->vvs) != SortedNodes(full->vvs)) {
      std::printf("  DIVERGENCE: patched ML=%llu VL=%llu vs full ML=%llu "
                  "VL=%llu\n",
                  static_cast<unsigned long long>(patched->loss.monomial_loss),
                  static_cast<unsigned long long>(patched->loss.variable_loss),
                  static_cast<unsigned long long>(full->loss.monomial_loss),
                  static_cast<unsigned long long>(full->loss.variable_loss));
      run.diverged = true;
    } else if (SerializePolynomialSet(patched->Apply(forest, polys),
                                      *w.vars) !=
               SerializePolynomialSet(full->Apply(forest, polys), *w.vars)) {
      std::printf("  DIVERGENCE: compressed artifacts serialize "
                  "differently\n");
      run.diverged = true;
    }

    run.configured = true;
    run.bound = bound;
    run.monomial_loss = patched->loss.monomial_loss;
    run.variable_loss = patched->loss.variable_loss;
    return run;
  }
  return run;
}

int Run() {
  PrintHeader("Incremental update: patched recompress vs cold full DP");
  std::printf("%-18s %10s %12s %12s %10s %8s %8s\n", "workload", "bound",
              "full[s]", "patched[s]", "speedup", "ML", "VL");

  bool diverged = false;
  size_t patched_count = 0;
  double min_ratio = 1e30;
  for (const Workload& w : StandardWorkloads()) {
    WorkloadRun run = RunWorkload(w);
    diverged = diverged || run.diverged;
    if (!run.configured) {
      std::printf("%-18s %52s\n", w.name.c_str(),
                  "(no patchable configuration)");
      continue;
    }
    ++patched_count;
    const double ratio =
        run.patched_s > 0 ? run.full_s / run.patched_s : 0.0;
    min_ratio = std::min(min_ratio, ratio);
    std::printf("%-18s %10zu %12.6f %12.6f %9.1fx %8llu %8llu\n",
                w.name.c_str(), run.bound, run.full_s, run.patched_s, ratio,
                static_cast<unsigned long long>(run.monomial_loss),
                static_cast<unsigned long long>(run.variable_loss));
  }

  // A patched re-run that fails to clearly beat the cold DP on its worst
  // workload means the patch path regressed into re-deriving what the
  // retained tables already hold.
  const double worst = patched_count > 0 ? min_ratio : 0.0;
  std::printf("MACHINEKEY cpu=%s\n", CpuModel().c_str());
  std::printf("PATCHSTAT metric=patched_vs_full ratio=%.2f\n", worst);
  const bool fast_enough = RatioFloorHolds("patched_vs_full", worst, 2.0);

  if (diverged) {
    std::printf("FAILED: incremental/full divergence detected\n");
    return 1;
  }
  if (patched_count == 0) {
    std::printf("FAILED: no workload took the patch path\n");
    return 1;
  }
  return fast_enough ? 0 : 1;
}

}  // namespace
}  // namespace provabs::bench

int main() { return provabs::bench::Run(); }
