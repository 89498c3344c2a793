#include "algo/tradeoff_curve.h"

#include <algorithm>

#include "algo/optimal_single_tree.h"
#include "common/macros.h"

namespace provabs {

StatusOr<std::vector<TradeoffPoint>> OptimalTradeoffCurve(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index) {
  // clamp = |P|_M exceeds every achievable monomial loss (at least one
  // monomial always survives per non-empty polynomial), so no bucket is
  // clamped and the root array is exact at every entry.
  auto state = internal::BuildDpState(polys, forest, tree_index,
                                      static_cast<uint32_t>(polys.SizeM()));
  if (!state.ok()) return state.status();
  return internal::TradeoffCurveFromState(**state, forest);
}

namespace internal {

std::vector<TradeoffPoint> TradeoffCurveFromState(
    const RetainedDpState& state, const AbstractionForest& forest) {
  PROVABS_CHECK(state.clamp >= state.size_m);
  // The root array, sorted by monomial loss: every achievable monomial
  // loss paired with its minimal variable loss.
  const DpNodeArray& root =
      *state.arrays[forest.tree(state.tree_index).root()];
  std::vector<std::pair<uint32_t, uint64_t>> profile(root.vl.begin(),
                                                     root.vl.end());
  std::sort(profile.begin(), profile.end());
  // Keep only Pareto-optimal entries: scanning monomial loss in DESCENDING
  // order, a point survives iff its variable loss beats every point with
  // larger loss (better compression).
  std::vector<TradeoffPoint> curve;
  uint64_t best_vl = UINT64_MAX;
  for (auto it = profile.rbegin(); it != profile.rend(); ++it) {
    const auto& [ml, vl] = *it;
    if (vl < best_vl) {
      best_vl = vl;
      curve.push_back(
          TradeoffPoint{state.size_m - ml, static_cast<size_t>(vl)});
    }
  }
  std::reverse(curve.begin(), curve.end());
  return curve;
}

}  // namespace internal

}  // namespace provabs
