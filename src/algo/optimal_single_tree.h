#ifndef PROVABS_ALGO_OPTIMAL_SINGLE_TREE_H_
#define PROVABS_ALGO_OPTIMAL_SINGLE_TREE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "abstraction/abstraction_forest.h"
#include "abstraction/loss.h"
#include "abstraction/valid_variable_set.h"
#include "algo/compressor.h"  // CompressionResult (the unified result type)
#include "common/statusor.h"
#include "common/timer.h"
#include "core/polynomial_set.h"

namespace provabs {

/// Tuning knobs, exposed for the §4.1 ablation benchmarks.
struct OptimalOptions {
  /// Use hash-map (sparse) DP arrays instead of dense (mostly-⊥) arrays.
  bool sparse_arrays = true;
  /// Skip the children convolution for height-1 nodes (their array is
  /// always {0:0} plus the self entry).
  bool height1_shortcut = true;
  /// Wall-clock cutoff, checked once per node of the bottom-up DP. The DP
  /// is anytime: on expiry the remaining nodes get degraded arrays (the
  /// all-leaves cut plus the node's own singleton), so the run still
  /// returns a VALID cut — adequacy is preserved exactly, optimality is
  /// what expiry trades away — with `budget_exhausted` set on the result.
  /// Default: never expires.
  Deadline deadline;
  /// Extra bucket headroom retained above k = |P|_M − B: the DP arrays are
  /// computed at clamp K = min(|P|_M, k + retain_headroom), so a retained
  /// result can be re-queried at any bound whose k is at most K, including
  /// after appends grow |P|_M (hence k) by up to this many monomials,
  /// without a full re-run. The reported result is provably identical for
  /// every headroom value (clamping commutes with the (min,+) convolution;
  /// the query runs in the k-clamped view), so this knob trades DP work for
  /// re-queries and incremental patchability only.
  uint32_t retain_headroom = 64;
  /// Keep the per-tree DP tables (arrays, residual index) on the result for
  /// OptimalRecompress. Never retained for budget-exhausted runs, whose
  /// degraded arrays are not exact.
  bool retain_state = true;
};

namespace internal {

/// Per-node DP table: bucket (= min(ML, clamp)) -> minimal variable loss,
/// plus whether the optimum at that bucket is the singleton VVS {v}.
/// Buckets absent from `vl` are ⊥.
struct DpNodeArray {
  std::unordered_map<uint32_t, uint64_t> vl;
  std::unordered_map<uint32_t, bool> use_self;

  uint64_t Get(uint32_t bucket) const {
    auto it = vl.find(bucket);
    return it == vl.end() ? ~0ull : it->second;
  }
  bool UsesSelf(uint32_t bucket) const {
    auto it = use_self.find(bucket);
    return it != use_self.end() && it->second;
  }
  void Offer(uint32_t bucket, uint64_t value, bool self) {
    auto it = vl.find(bucket);
    if (it == vl.end() || value < it->second) {
      vl[bucket] = value;
      use_self[bucket] = self;
    }
  }
};

/// Flattened (bucket, vl) snapshots of one node's convolution prefixes
/// τ[0]..τ[w-1] at the clamp the node's array was computed at (entry order
/// is irrelevant — readers project into a dense view first). Retaining
/// them is what makes reconstruction convolution-free: the canonical cut
/// walk only ever needs, per child, the view-projection of two adjacent
/// prefixes, so Reconstruct reads these instead of re-running the (min,+)
/// convolution — the single most expensive step of the whole DP at the
/// root — a second time.
using ConvPrefixes = std::vector<std::vector<std::pair<uint32_t, uint64_t>>>;

/// The optimal DP's retained per-tree tables, carried opaquely on
/// CompressionResult::dp_state. They depend on the polynomials and the
/// tree, not on a bound: the clamp-K node arrays answer every bound whose
/// k = |P|_M − B is at most K (QueryDpState), and OptimalRecompress patches
/// them after localized appends. Holds the arrays, per-node self losses,
/// the residual index (appendable), and the fingerprints that gate reuse
/// (|P|_M, set revision, tree shape). Immutable once published; a patch
/// copies it.
struct RetainedDpState {
  explicit RetainedDpState(LeafResidualIndex idx) : index(std::move(idx)) {}

  uint32_t tree_index = 0;
  size_t size_m = 0;        ///< |P|_M the DP ran against.
  uint64_t revision = 0;    ///< PolynomialSet::revision() at run time.
  uint32_t clamp = 0;       ///< Bucket clamp K the arrays hold.
  bool sparse_arrays = true;
  bool height1_shortcut = true;
  /// Tree-shape fingerprint: node count plus the leaf labels in DFS order.
  size_t node_count = 0;
  std::vector<VariableId> leaf_labels;
  LeafResidualIndex index;
  /// Per-node arrays, individually shared: a patched generation deep-copies
  /// only the arrays on dirty leaf→root paths and aliases the rest, so the
  /// copy-on-patch cost is O(dirty path), not O(tree × clamp).
  std::vector<std::shared_ptr<const DpNodeArray>> arrays;
  /// Per-node convolution prefixes, shared like `arrays` (null/empty for
  /// leaves, height-1 shortcut nodes, and dense-ablation runs, where
  /// Reconstruct rebuilds them on the fly).
  std::vector<std::shared_ptr<const ConvPrefixes>> prefixes;
  std::vector<LossReport> self_loss;
};

}  // namespace internal

/// Algorithm 1 (Optimal Valid Variables Selection): computes an optimal VVS
/// for the single tree `tree_index` of `forest` under monomial bound
/// `bound_b`, in time O(n·w·k²·|P|_M) (Proposition 14). Leaves of the tree
/// that do not occur in `polys` are handled natively (they contribute no
/// loss), so pre-pruning is not required.
///
/// Returns kInfeasible if no VVS of the tree is adequate for `bound_b`
/// (Example 8), and kInvalidArgument if the tree is incompatible with the
/// polynomials.
StatusOr<CompressionResult> OptimalSingleTree(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index, size_t bound_b, const OptimalOptions& options = {});

/// Why OptimalRecompress declined to patch and the caller must fall back
/// to the full DP.
enum class RecompressFallback {
  kNone = 0,          ///< Patched successfully.
  kNoState,           ///< prev carries no (or incompatible) retained tables.
  kDeltaIncomplete,   ///< Delta revisions don't line up with the state.
  kShapeChanged,      ///< Forest/tree shape differs from the retained run.
  kHeadroomExhausted, ///< New k exceeds the retained bucket clamp.
  /// Never reported: where an append lands never blocks a patch. Stays
  /// declared, with its name, because servebench/serve/trace.h lists every
  /// reason.
  kCrossesCut,
};

/// Stable lower_snake_case name for logs/counters/tests.
const char* RecompressFallbackName(RecompressFallback fallback);

/// Re-solves a previous OptimalSingleTree run at `bound_b` after `polys`
/// grew by `delta` (appends only; an empty delta is a pure re-query).
/// `bound_b` may differ from the previous run's bound: any bound whose
/// k = |P|_M − B is at most the retained clamp is answered. Re-derives only
/// what the delta touched: appended polynomials are folded into the
/// retained residual index, the DP arrays along dirty leaf→root paths are
/// recomputed, and the root is queried at the new k — every untouched
/// array is reused as-is, so the result is field-identical to a full
/// re-run by construction.
///
/// On any gate failure (see RecompressFallback) returns kFailedPrecondition
/// with `fallback` set; the caller runs the full DP instead. Returns
/// kInfeasible exactly when the full DP would.
StatusOr<CompressionResult> OptimalRecompress(
    const PolynomialSet& polys, const AbstractionForest& forest,
    const CompressionResult& prev, const PolynomialSetDelta& delta,
    size_t bound_b, RecompressFallback* fallback = nullptr);

namespace internal {

/// k = |P|_M − B, the monomial loss bound `bound_b` requires (0 when the
/// set already fits).
uint32_t RequiredLoss(size_t size_m, size_t bound_b);

/// Algorithm 1's per-node tables for tree `tree_index` at bucket clamp
/// min(|P|_M, clamp), with no bound and no query, under the default
/// OptimalOptions (sparse arrays, height-1 shortcut, no deadline).
StatusOr<std::shared_ptr<const RetainedDpState>> BuildDpState(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index, uint32_t clamp);

/// Patches `prev` after `polys` grew by `delta`, keeping its clamp, behind
/// OptimalRecompress's gates; the headroom gate declines when the clamp is
/// below `min_clamp` (the k a caller is about to query). An empty delta
/// returns `prev` itself.
StatusOr<std::shared_ptr<const RetainedDpState>> PatchDpState(
    const PolynomialSet& polys, const AbstractionForest& forest,
    const std::shared_ptr<const RetainedDpState>& prev,
    const PolynomialSetDelta& delta, uint32_t min_clamp,
    RecompressFallback* fallback = nullptr);

/// The optimal cut at `bound_b` read off `state`, whose clamp must cover
/// k = |P|_M − B: the root lookup plus the convolution-free reconstruction,
/// with no DP work. Field-identical to OptimalSingleTree at that bound.
/// The result carries no dp_state.
StatusOr<CompressionResult> QueryDpState(const RetainedDpState& state,
                                         const AbstractionForest& forest,
                                         size_t bound_b);

}  // namespace internal

}  // namespace provabs

#endif  // PROVABS_ALGO_OPTIMAL_SINGLE_TREE_H_
