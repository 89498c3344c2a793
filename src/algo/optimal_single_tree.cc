#include "algo/optimal_single_tree.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/macros.h"

namespace provabs {

namespace {

using internal::ConvPrefixes;
using internal::DpNodeArray;
using internal::RetainedDpState;

constexpr uint64_t kBottom = std::numeric_limits<uint64_t>::max();

/// Convolution of children arrays (procedure computeArray): combines cuts of
/// independent sibling subtrees; losses add, buckets clamp at `clamp`. When
/// `prefixes` is non-null, snapshots every prefix array τ[0]..τ[w-1] into it
/// (τ[i] = children 0..i folded; τ[w-1] equals the returned array) — the
/// raw material Reconstruct's prefix walk recovers the canonical cut from
/// without running this convolution again.
///
/// Children arrays may be stored at a LARGER clamp than `clamp`: clamping
/// commutes with the (min,+) convolution (min(min(s,c)+min(j,c), c) =
/// min(s+j, c)), so feeding K-clamped arrays through a c-clamped
/// convolution yields exactly the c-clamped result — this is what lets the
/// headroom-retaining DP answer queries in the k-clamped view.
DpNodeArray Convolve(
    const std::vector<const DpNodeArray*>& children, uint32_t clamp,
    ConvPrefixes* prefixes) {
  PROVABS_CHECK(!children.empty());
  DpNodeArray tau;
  // The copy must carry only the child's VALUES: `use_self` describes the
  // child's own singleton optimum, and a unary parent inheriting it would
  // make Reconstruct emit the parent where the DP actually scored the
  // child's singleton VVS — diverging from the dense ablation arm, whose
  // ConvolveDense never propagates the flag. Raw buckets beyond `clamp`
  // fold into the clamp bucket (min vl wins).
  for (const auto& [b, v] : children[0]->vl) {
    uint32_t bucket = std::min(b, clamp);
    auto it = tau.vl.find(bucket);
    if (it == tau.vl.end() || v < it->second) tau.vl[bucket] = v;
  }
  auto snapshot = [&](const DpNodeArray& arr) {
    if (!prefixes) return;
    prefixes->emplace_back();
    auto& flat = prefixes->back();
    flat.reserve(arr.vl.size());
    for (const auto& [b, v] : arr.vl) flat.emplace_back(b, v);
  };
  if (prefixes) {
    prefixes->clear();
    prefixes->reserve(children.size());
  }
  snapshot(tau);
  for (size_t i = 1; i < children.size(); ++i) {
    // Pre-fold the child's raw buckets into the clamp (keeping the minimal
    // vl per folded bucket): min(s + min(j,c), c) == min(s + j, c), so the
    // step's result is unchanged and the inner loops see fewer entries.
    std::vector<std::pair<uint32_t, uint64_t>> child_entries;
    {
      std::unordered_map<uint32_t, uint64_t> folded;
      for (const auto& [j_raw, vl_child] : children[i]->vl) {
        uint32_t j = std::min(j_raw, clamp);
        auto it = folded.find(j);
        if (it == folded.end() || vl_child < it->second) folded[j] = vl_child;
      }
      child_entries.assign(folded.begin(), folded.end());
    }
    // Near the root the accumulator approaches one entry per bucket and
    // hash-map traffic dominates the DP; a dense pass over sequential
    // vectors is then several times faster. Sparse stays for thin
    // accumulators (large clamp, few achievable losses), where a clamp-
    // sized sweep would be the waste. Both arms apply the same minimum,
    // so results are identical.
    const bool dense_step =
        tau.vl.size() * 8 > static_cast<size_t>(clamp) + 1;
    if (dense_step) {
      // ⊥ is a large FINITE sentinel here, not kBottom: ⊥ + vl_child must
      // not wrap, so the value pass below needs no per-element absence
      // branch — it is a pure shift-min the compiler vectorizes. Real vl
      // values are bounded by the leaf count, orders of magnitude below
      // the sentinel, so ⊥-derived sums never beat a real entry.
      constexpr uint64_t kDenseInf = uint64_t{1} << 62;
      std::vector<uint64_t> dtau(clamp + 1, kDenseInf);
      for (const auto& [s, v] : tau.vl) dtau[s] = v;  // tau is clamped.
      std::vector<uint64_t> dnext(clamp + 1, kDenseInf);
      for (const auto& [j, vl_child] : child_entries) {
        const uint32_t cap = clamp - j;  // s ≥ cap ⇒ s + j clamps.
        uint64_t* PROVABS_RESTRICT out = dnext.data() + j;
        const uint64_t* PROVABS_RESTRICT in = dtau.data();
        for (uint32_t s = 0; s < cap; ++s) {
          const uint64_t vl = in[s] + vl_child;
          if (vl < out[s]) out[s] = vl;
        }
        uint64_t tail = kDenseInf;
        for (uint32_t s = cap; s <= clamp; ++s) {
          if (dtau[s] < tail) tail = dtau[s];
        }
        if (tail + vl_child < dnext[clamp]) dnext[clamp] = tail + vl_child;
      }
      DpNodeArray next;
      for (uint32_t b = 0; b <= clamp; ++b) {
        if (dnext[b] >= kDenseInf) continue;
        next.vl[b] = dnext[b];
      }
      tau = std::move(next);
    } else {
      DpNodeArray next;
      for (const auto& [s, vl_prefix] : tau.vl) {
        for (const auto& [j, vl_child] : child_entries) {
          uint32_t bucket = std::min<uint64_t>(
              static_cast<uint64_t>(s) + j, clamp);
          uint64_t vl = vl_prefix + vl_child;
          auto it = next.vl.find(bucket);
          if (it == next.vl.end() || vl < it->second) next.vl[bucket] = vl;
        }
      }
      tau = std::move(next);
    }
    snapshot(tau);
  }
  return tau;
}

/// Dense-array variant of the same convolution, used when
/// OptimalOptions::sparse_arrays is false (ablation arm). Produces identical
/// results; only the data structure differs (vectors with ⊥ sentinels).
DpNodeArray ConvolveDense(const std::vector<const DpNodeArray*>& children,
                          uint32_t clamp) {
  PROVABS_CHECK(!children.empty());
  std::vector<uint64_t> tau(clamp + 1, kBottom);
  for (const auto& [b, v] : children[0]->vl) {
    uint32_t bucket = std::min(b, clamp);
    if (v < tau[bucket]) tau[bucket] = v;
  }
  for (size_t i = 1; i < children.size(); ++i) {
    std::vector<uint64_t> dense_child(clamp + 1, kBottom);
    for (const auto& [b, v] : children[i]->vl) {
      uint32_t bucket = std::min(b, clamp);
      if (v < dense_child[bucket]) dense_child[bucket] = v;
    }
    std::vector<uint64_t> next(clamp + 1, kBottom);
    for (uint32_t s = 0; s <= clamp; ++s) {
      if (tau[s] == kBottom) continue;
      for (uint32_t j = 0; j <= clamp; ++j) {
        if (dense_child[j] == kBottom) continue;
        uint32_t bucket = std::min(s + j, clamp);
        uint64_t vl = tau[s] + dense_child[j];
        if (vl < next[bucket]) next[bucket] = vl;
      }
    }
    tau = std::move(next);
  }
  DpNodeArray out;
  for (uint32_t b = 0; b <= clamp; ++b) {
    if (tau[b] != kBottom) out.Offer(b, tau[b], false);
  }
  return out;
}

/// Whole-algorithm state, so reconstruction can re-run convolutions. The
/// arrays are computed once at clamp K (query k + retained headroom); every
/// query and reconstruction runs in the `view`-clamped projection of those
/// arrays, which is bucket-for-bucket identical to what a direct clamp-view
/// DP would have produced.
struct Solver {
  const AbstractionTree* tree;
  const LeafResidualIndex* index;
  uint32_t clamp;  // K: the clamp the arrays hold.
  bool sparse_arrays = true;
  bool height1_shortcut = true;
  Deadline deadline;
  bool budget_exhausted = false;
  std::vector<DpNodeArray> arrays;         // per node (full runs)
  std::vector<LossReport> self_loss;       // per node, loss of VVS {v}
  std::vector<NodeRef>* out_nodes;
  uint32_t tree_index;

  /// Patch mode (OptimalRecompress): reads fall back to the retained
  /// generation's shared per-node arrays and only the nodes recomputed
  /// this run live in `overlay` — the clean majority of the tree is never
  /// copied. unordered_map keeps references stable across inserts, so
  /// child pointers gathered for a convolution survive overlay growth.
  const std::vector<std::shared_ptr<const DpNodeArray>>* base_arrays =
      nullptr;
  std::unordered_map<NodeIndex, DpNodeArray> overlay;

  /// Convolution prefix snapshots, stored alongside the arrays with the
  /// same full/patch split: Reconstruct walks them instead of re-running
  /// the node's convolution. Absent (empty) for leaves, height-1 shortcut
  /// nodes, degraded (budget-expired) nodes, and the dense ablation arm —
  /// Reconstruct then falls back to a one-off view-clamped convolution.
  std::vector<ConvPrefixes> prefix_store;  // per node (full runs)
  const std::vector<std::shared_ptr<const ConvPrefixes>>* base_prefixes =
      nullptr;
  std::unordered_map<NodeIndex, ConvPrefixes> prefix_overlay;

  const DpNodeArray& Arr(NodeIndex v) const {
    if (base_arrays != nullptr) {
      auto it = overlay.find(v);
      if (it != overlay.end()) return it->second;
      return *(*base_arrays)[v];
    }
    return arrays[v];
  }
  DpNodeArray& MutableArr(NodeIndex v) {
    return base_arrays != nullptr ? overlay[v] : arrays[v];
  }
  const ConvPrefixes* PrefixesOf(NodeIndex v) const {
    if (base_arrays != nullptr) {
      auto it = prefix_overlay.find(v);
      if (it != prefix_overlay.end()) {
        return it->second.empty() ? nullptr : &it->second;
      }
      if (base_prefixes != nullptr && (*base_prefixes)[v] != nullptr &&
          !(*base_prefixes)[v]->empty()) {
        return (*base_prefixes)[v].get();
      }
      return nullptr;
    }
    if (v < prefix_store.size() && !prefix_store[v].empty()) {
      return &prefix_store[v];
    }
    return nullptr;
  }

  bool IsHeight1(NodeIndex v) const {
    const auto& n = tree->node(v);
    if (n.is_leaf()) return false;
    for (NodeIndex c : n.children) {
      if (!tree->node(c).is_leaf()) return false;
    }
    return true;
  }

  /// Recomputes one internal node's self loss and array from its (already
  /// current) children. Shared by the full bottom-up pass and the dirty-
  /// path patch pass; the latter passes `refresh_self = false` after
  /// patching self_loss[v] incrementally (PatchNodeLoss), since a from-
  /// scratch NodeLoss at the root re-sorts every key — an O(|P| log |P|)
  /// term the patch exists to avoid.
  void ComputeNode(NodeIndex v, bool refresh_self = true) {
    const auto& node = tree->node(v);
    if (refresh_self) self_loss[v] = index->NodeLoss(v);
    DpNodeArray out;
    if (height1_shortcut && IsHeight1(v)) {
      // Children are all leaves: the convolution is trivially {0:0}.
      out.Offer(0, 0, false);
    } else {
      std::vector<const DpNodeArray*> children;
      children.reserve(node.children.size());
      for (NodeIndex c : node.children) children.push_back(&Arr(c));
      if (sparse_arrays) {
        ConvPrefixes prefs;
        out = Convolve(children, clamp, &prefs);
        if (base_arrays != nullptr) {
          prefix_overlay[v] = std::move(prefs);
        } else {
          prefix_store[v] = std::move(prefs);
        }
      } else {
        out = ConvolveDense(children, clamp);
      }
    }
    uint32_t self_bucket = std::min<uint64_t>(
        self_loss[v].monomial_loss, clamp);
    out.Offer(self_bucket, self_loss[v].variable_loss, true);
    MutableArr(v) = std::move(out);
  }

  void ComputeArrays() {
    const size_t n = tree->node_count();
    arrays.resize(n);
    prefix_store.resize(n);
    self_loss.resize(n);
    // DFS pre-order storage: reverse iteration is post-order.
    for (size_t i = n; i-- > 0;) {
      NodeIndex v = static_cast<NodeIndex>(i);
      const auto& node = tree->node(v);
      if (node.is_leaf()) {
        arrays[v].Offer(0, 0, false);
        continue;
      }
      // One wall-clock check per node bounds the overrun by a single
      // convolution. Expiry does NOT abort: the remaining nodes get
      // degraded arrays — the all-leaves cut {0:0} plus the node's own
      // singleton — skipping only the convolutions. Every array still
      // contains bucket 0, so reconstruction stays well-defined, and the
      // root's self entry carries the tree-maximal ML, so feasibility at
      // any k is decided exactly as the full DP would.
      if (!budget_exhausted && deadline.Expired()) budget_exhausted = true;
      if (budget_exhausted) {
        self_loss[v] = index->NodeLoss(v);
        arrays[v].Offer(0, 0, false);
        uint32_t self_bucket = std::min<uint64_t>(
            self_loss[v].monomial_loss, clamp);
        arrays[v].Offer(self_bucket, self_loss[v].variable_loss, true);
        continue;
      }
      ComputeNode(v);
    }
  }

  /// Minimal vl at `bucket` in the `view`-clamped projection of arrays[v]:
  /// min over raw entries whose bucket clamps to `bucket`.
  uint64_t ViewedGet(NodeIndex v, uint32_t bucket, uint32_t view) const {
    uint64_t best = kBottom;
    for (const auto& [b, value] : Arr(v).vl) {
      if (std::min(b, view) != bucket) continue;
      if (value < best) best = value;
    }
    return best;
  }

  /// Whether the `view`-clamped optimum at `bucket` is the singleton {v}.
  /// Reproduces Offer's strict-improvement rule: the self entry wins only
  /// if it is strictly below every convolution-derived candidate folding
  /// into this bucket. (Raw buckets where self displaced the convolution
  /// value hide a convolution candidate, but that candidate was strictly
  /// larger than the self value there, so the comparison is unaffected.)
  bool ViewedUsesSelf(NodeIndex v, uint32_t bucket, uint32_t view) const {
    uint64_t best_self = kBottom;
    uint64_t best_other = kBottom;
    for (const auto& [b, value] : Arr(v).vl) {
      if (std::min(b, view) != bucket) continue;
      if (Arr(v).UsesSelf(b)) {
        if (value < best_self) best_self = value;
      } else {
        if (value < best_other) best_other = value;
      }
    }
    return best_self < best_other;
  }

  /// Reconstructs the cut achieving the `view`-clamped arrays[v] at
  /// `bucket` (a view-clamped bucket) into out_nodes.
  void Reconstruct(NodeIndex v, uint32_t bucket, uint32_t view) {
    const auto& node = tree->node(v);
    if (node.is_leaf()) {
      PROVABS_CHECK(bucket == 0);
      out_nodes->push_back(NodeRef{tree_index, v});
      return;
    }
    if (ViewedUsesSelf(v, bucket, view)) {
      out_nodes->push_back(NodeRef{tree_index, v});
      return;
    }
    if (height1_shortcut && IsHeight1(v)) {
      PROVABS_CHECK(bucket == 0);
      for (NodeIndex c : node.children) {
        out_nodes->push_back(NodeRef{tree_index, c});
      }
      return;
    }
    // Degraded (budget-expired) arrays carry no convolution entries beyond
    // bucket 0; the only non-self reconstruction through them is the
    // all-leaves cut, which the recursion below resolves (every child has
    // bucket 0).
    //
    // Prefix walk: recover the canonical split per child from the
    // convolution's retained prefix snapshots instead of re-running the
    // convolution. The snapshots sit at the clamp they were computed at
    // (K for retained DP runs, `view` for the fallback below); the walk
    // reads only their view-projections, which by the clamping lemma are
    // identical either way. Canonical choices reproduce the old
    // split-recording conv exactly: smallest prefix bucket s among optimal
    // (s, child) pairs, then smallest child vl, then smallest child bucket.
    const size_t w = node.children.size();
    std::vector<const DpNodeArray*> children;
    children.reserve(w);
    for (NodeIndex c : node.children) children.push_back(&Arr(c));
    const ConvPrefixes* prefs = PrefixesOf(v);
    ConvPrefixes local;
    if (prefs == nullptr || prefs->size() != w) {
      Convolve(children, view, &local);
      prefs = &local;
    }
    // Dense view-projection of one prefix snapshot: proj[min(b, view)] =
    // min value over folding raw buckets.
    auto project = [&](const std::vector<std::pair<uint32_t, uint64_t>>& fl,
                       std::vector<uint64_t>& out) {
      out.assign(view + 1, kBottom);
      for (const auto& [b, val] : fl) {
        uint32_t pb = std::min(b, view);
        if (val < out[pb]) out[pb] = val;
      }
    };
    std::vector<uint64_t> proj_cur, proj_prev;
    project((*prefs)[w - 1], proj_cur);
    PROVABS_CHECK(proj_cur[bucket] != kBottom);

    // child_buckets[i] = view-clamped bucket of child i in the chosen
    // combination.
    std::vector<uint32_t> child_buckets(w, 0);
    uint32_t j = bucket;
    for (size_t i = w; i-- > 1;) {
      const uint64_t target = proj_cur[j];
      project((*prefs)[i - 1], proj_prev);
      // Child i's entries folded into the view, sorted by bucket.
      std::vector<std::pair<uint32_t, uint64_t>> folded;
      {
        std::unordered_map<uint32_t, uint64_t> fold;
        for (const auto& [jc_raw, vlc] : children[i]->vl) {
          uint32_t jc = std::min(jc_raw, view);
          auto it = fold.find(jc);
          if (it == fold.end() || vlc < it->second) fold[jc] = vlc;
        }
        folded.assign(fold.begin(), fold.end());
        std::sort(folded.begin(), folded.end());
      }
      bool found = false;
      uint32_t s_pick = 0, jc_pick = 0;
      if (j < view) {
        // min(s + jc, view) = j < view forces s = j − jc exactly, so the
        // smallest admissible s is the largest admissible jc. Every
        // candidate pair scores ≥ target (it folds into this bucket), so
        // equality identifies a true witness.
        for (size_t e = folded.size(); e-- > 0;) {
          const uint32_t jc = folded[e].first;
          if (jc > j) continue;
          const uint32_t s = j - jc;
          if (proj_prev[s] != kBottom &&
              proj_prev[s] + folded[e].second == target) {
            s_pick = s;
            jc_pick = jc;
            found = true;
            break;
          }
        }
      } else {
        // j == view collects every pair with s + jc ≥ view. An s admits a
        // witness iff the minimal child vl over admissible buckets
        // (jc ≥ view − s) equals target − proj_prev[s] — candidates can
        // only score ≥ target, so min hits it exactly when one exists.
        // Scanning s ascending yields the canonical smallest split.
        std::vector<uint64_t> suffix_min(folded.size() + 1, kBottom);
        for (size_t e = folded.size(); e-- > 0;) {
          suffix_min[e] = std::min(suffix_min[e + 1], folded[e].second);
        }
        for (uint32_t s = 0; s <= view && !found; ++s) {
          if (proj_prev[s] == kBottom || proj_prev[s] > target) continue;
          const uint64_t need = target - proj_prev[s];
          const uint32_t min_jc = view - s;
          size_t e0 = static_cast<size_t>(
              std::lower_bound(folded.begin(), folded.end(),
                               std::make_pair(min_jc, uint64_t{0})) -
              folded.begin());
          if (e0 < folded.size() && suffix_min[e0] == need) {
            for (size_t e = e0; e < folded.size(); ++e) {
              if (folded[e].second == need) {
                s_pick = s;
                jc_pick = folded[e].first;
                found = true;
                break;
              }
            }
          }
        }
      }
      PROVABS_CHECK(found);
      child_buckets[i] = jc_pick;
      j = s_pick;
      proj_cur = std::move(proj_prev);
    }
    child_buckets[0] = j;
    for (size_t i = 0; i < w; ++i) {
      Reconstruct(node.children[i], child_buckets[i], view);
    }
  }
};

/// Builds the forest-wide result from the cut chosen on `tree_index`:
/// leaves of OTHER trees are untouched by the single-tree algorithm and
/// are appended so the VVS is valid for the whole forest.
///
/// The cut's loss is the SUM of the chosen nodes' singleton losses: chosen
/// nodes cover disjoint leaf ranges and each monomial carries at most one
/// variable of the tree, so monomials merge only within one chosen node's
/// range and vanished/introduced variables never overlap across nodes —
/// the same additivity the DP's (min,+) convolution is built on. Summing
/// `self_loss` makes finishing O(|cut|) where ComputeLossNaive would
/// materialize the whole compressed set, which matters to the patch path:
/// an O(|P|) finish would swamp the dirty-path recompute it saved. (Like
/// the DP itself, this counts merges by residual-key identity and so
/// relies on provenance coefficients never cancelling to zero — Claim 25.)
CompressionResult FinishResult(std::vector<NodeRef> chosen,
                               const AbstractionForest& forest,
                               uint32_t tree_index,
                               const std::vector<LossReport>& self_loss,
                               uint32_t k) {
  LossReport loss;
  for (const NodeRef& ref : chosen) {
    loss.monomial_loss += self_loss[ref.node].monomial_loss;
    loss.variable_loss += self_loss[ref.node].variable_loss;
  }
  for (uint32_t t = 0; t < forest.tree_count(); ++t) {
    if (t == tree_index) continue;
    for (NodeIndex leaf : forest.tree(t).leaves()) {
      chosen.push_back(NodeRef{t, leaf});
    }
  }
  CompressionResult result;
  result.vvs = ValidVariableSet(std::move(chosen));
  result.loss = loss;
  result.adequate = result.loss.monomial_loss >= k;
  return result;
}

/// Runs Algorithm 1's bottom-up pass over `tree` at bucket clamp `clamp`
/// and moves its tables into a retained state. `budget_exhausted` reports
/// whether the deadline degraded any node.
std::shared_ptr<RetainedDpState> RunDp(const PolynomialSet& polys,
                                       const AbstractionTree& tree,
                                       uint32_t tree_index, uint32_t clamp,
                                       const OptimalOptions& options,
                                       bool* budget_exhausted) {
  auto state =
      std::make_shared<RetainedDpState>(LeafResidualIndex(polys, tree));
  Solver solver;
  solver.tree = &tree;
  solver.index = &state->index;
  solver.clamp = clamp;
  solver.sparse_arrays = options.sparse_arrays;
  solver.height1_shortcut = options.height1_shortcut;
  solver.deadline = options.deadline;
  solver.tree_index = tree_index;
  solver.ComputeArrays();
  *budget_exhausted = solver.budget_exhausted;

  state->tree_index = tree_index;
  state->size_m = polys.SizeM();
  state->revision = polys.revision();
  state->clamp = clamp;
  state->sparse_arrays = options.sparse_arrays;
  state->height1_shortcut = options.height1_shortcut;
  state->node_count = tree.node_count();
  state->leaf_labels.reserve(tree.leaves().size());
  for (NodeIndex leaf : tree.leaves()) {
    state->leaf_labels.push_back(tree.node(leaf).label);
  }
  state->arrays.reserve(solver.arrays.size());
  for (DpNodeArray& a : solver.arrays) {
    state->arrays.push_back(std::make_shared<DpNodeArray>(std::move(a)));
  }
  state->prefixes.reserve(solver.prefix_store.size());
  for (ConvPrefixes& p : solver.prefix_store) {
    state->prefixes.push_back(std::make_shared<ConvPrefixes>(std::move(p)));
  }
  state->self_loss = std::move(solver.self_loss);
  return state;
}

/// The optimal cut at monomial-loss bound k from `st`'s arrays, read in the
/// k-clamped view. Runs no convolution unless a node kept no prefix
/// snapshots (dense ablation, degraded nodes).
StatusOr<CompressionResult> Query(const RetainedDpState& st,
                                  const AbstractionForest& forest,
                                  uint32_t k) {
  PROVABS_CHECK(k <= st.clamp);
  const AbstractionTree& tree = forest.tree(st.tree_index);
  Solver solver;
  solver.tree = &tree;
  solver.clamp = st.clamp;
  solver.sparse_arrays = st.sparse_arrays;
  solver.height1_shortcut = st.height1_shortcut;
  solver.tree_index = st.tree_index;
  solver.base_arrays = &st.arrays;
  solver.base_prefixes = &st.prefixes;
  if (solver.ViewedGet(tree.root(), k, k) == kBottom) {
    return Status::Infeasible(
        "no valid variable set of the tree is adequate for the bound");
  }
  std::vector<NodeRef> chosen;
  solver.out_nodes = &chosen;
  solver.Reconstruct(tree.root(), k, k);
  return FinishResult(std::move(chosen), forest, st.tree_index, st.self_loss,
                      k);
}

Status CheckTree(const PolynomialSet& polys, const AbstractionForest& forest,
                 uint32_t tree_index) {
  if (tree_index >= forest.tree_count()) {
    return Status::InvalidArgument("tree index out of range");
  }
  return forest.tree(tree_index).CheckCompatible(polys);
}

}  // namespace

namespace internal {

uint32_t RequiredLoss(size_t size_m, size_t bound_b) {
  return bound_b >= size_m ? 0u : static_cast<uint32_t>(size_m - bound_b);
}

StatusOr<std::shared_ptr<const RetainedDpState>> BuildDpState(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index, uint32_t clamp) {
  PROVABS_RETURN_IF_ERROR(CheckTree(polys, forest, tree_index));
  bool budget_exhausted = false;
  return std::shared_ptr<const RetainedDpState>(
      RunDp(polys, forest.tree(tree_index), tree_index,
            static_cast<uint32_t>(std::min<uint64_t>(polys.SizeM(), clamp)),
            OptimalOptions{}, &budget_exhausted));
}

StatusOr<std::shared_ptr<const RetainedDpState>> PatchDpState(
    const PolynomialSet& polys, const AbstractionForest& forest,
    const std::shared_ptr<const RetainedDpState>& prev,
    const PolynomialSetDelta& delta, uint32_t min_clamp,
    RecompressFallback* fallback) {
  auto fail = [&](RecompressFallback why, const char* message) {
    if (fallback) *fallback = why;
    return Status::FailedPrecondition(message);
  };
  if (fallback) *fallback = RecompressFallback::kNone;
  if (prev == nullptr) {
    return fail(RecompressFallback::kNoState,
                "previous result carries no retained DP tables");
  }
  const RetainedDpState& st = *prev;
  if (!delta.complete || delta.from_revision != st.revision ||
      delta.to_revision != polys.revision()) {
    return fail(RecompressFallback::kDeltaIncomplete,
                "delta does not span the retained revision to the current one");
  }
  if (st.tree_index >= forest.tree_count()) {
    return fail(RecompressFallback::kShapeChanged,
                "retained tree index no longer exists in the forest");
  }
  const AbstractionTree& tree = forest.tree(st.tree_index);
  // The delta gates above proved the prefix is exactly the set the
  // retained run validated, so only the appended suffix needs checking —
  // a whole-set rescan here would put an O(|P|) term on the patch path.
  Status compat = tree.CheckCompatible(polys, delta.first_added_index);
  if (!compat.ok()) return compat;
  bool same_shape = tree.node_count() == st.node_count &&
                    tree.leaves().size() == st.leaf_labels.size();
  if (same_shape) {
    for (size_t i = 0; i < st.leaf_labels.size(); ++i) {
      if (tree.node(tree.leaves()[i]).label != st.leaf_labels[i]) {
        same_shape = false;
        break;
      }
    }
  }
  if (!same_shape) {
    return fail(RecompressFallback::kShapeChanged,
                "tree shape differs from the retained run");
  }
  if (st.size_m + delta.added_monomials != polys.SizeM()) {
    return fail(RecompressFallback::kDeltaIncomplete,
                "delta monomial count does not reconcile with |P|_M");
  }
  if (min_clamp > st.clamp) {
    return fail(RecompressFallback::kHeadroomExhausted,
                "new k exceeds the retained bucket clamp");
  }
  if (delta.empty()) return prev;

  // Copy-on-patch: the retained state stays immutable for other readers.
  // The per-node arrays are shared pointers, so this copies O(tree) handles
  // plus the residual index — not the DP tables themselves.
  auto next = std::make_shared<RetainedDpState>(st);
  next->index.Rebind(tree);
  LeafResidualIndex::AppendDelta appended =
      next->index.AppendPolynomials(polys);

  // No gate looks at any previous cut: the arrays are functions of the
  // tree and the residual index alone, so recomputing every array on a
  // dirty path is exact wherever the append lands.
  Solver solver;
  solver.tree = &tree;
  solver.index = &next->index;
  solver.clamp = st.clamp;
  solver.sparse_arrays = st.sparse_arrays;
  solver.height1_shortcut = st.height1_shortcut;
  solver.tree_index = st.tree_index;
  solver.base_arrays = &next->arrays;
  solver.base_prefixes = &next->prefixes;
  solver.self_loss = std::move(next->self_loss);

  if (!appended.dirty.empty()) {
    // Recompute exactly the ancestors of dirty leaves, bottom-up (reverse
    // pre-order). Clean subtrees' arrays are byte-identical to what a full
    // re-run would compute, so reusing them preserves field-equality.
    // Dirty nodes' self losses are patched from the append delta rather
    // than recomputed — NodeLoss at the root would re-sort every key.
    const size_t n = tree.node_count();
    std::vector<NodeIndex> parent(n, static_cast<NodeIndex>(n));
    for (NodeIndex v = 0; v < n; ++v) {
      for (NodeIndex c : tree.node(v).children) parent[c] = v;
    }
    std::vector<char> dirty(n, 0);
    for (uint32_t pos : appended.dirty) {
      NodeIndex v = tree.leaves()[pos];
      while (v < n && !dirty[v]) {
        dirty[v] = 1;
        v = parent[v];
      }
    }
    for (size_t i = n; i-- > 0;) {
      NodeIndex v = static_cast<NodeIndex>(i);
      if (!dirty[v] || tree.node(v).is_leaf()) continue;
      solver.self_loss[v] =
          next->index.PatchNodeLoss(v, solver.self_loss[v], appended);
      solver.ComputeNode(v, /*refresh_self=*/false);
    }
  }

  // Publish the recomputed arrays; every other node keeps aliasing the
  // previous generation's (identical) table.
  for (auto& [v, arr] : solver.overlay) {
    next->arrays[v] = std::make_shared<DpNodeArray>(std::move(arr));
  }
  for (auto& [v, prefs] : solver.prefix_overlay) {
    next->prefixes[v] = std::make_shared<ConvPrefixes>(std::move(prefs));
  }
  next->self_loss = std::move(solver.self_loss);
  next->size_m = polys.SizeM();
  next->revision = delta.to_revision;
  return std::shared_ptr<const RetainedDpState>(std::move(next));
}

StatusOr<CompressionResult> QueryDpState(const RetainedDpState& state,
                                         const AbstractionForest& forest,
                                         size_t bound_b) {
  if (bound_b == 0) {
    return Status::InvalidArgument("bound must be at least 1");
  }
  return Query(state, forest, RequiredLoss(state.size_m, bound_b));
}

}  // namespace internal

StatusOr<CompressionResult> OptimalSingleTree(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index, size_t bound_b, const OptimalOptions& options) {
  PROVABS_RETURN_IF_ERROR(CheckTree(polys, forest, tree_index));
  if (bound_b == 0) {
    return Status::InvalidArgument("bound must be at least 1");
  }
  const size_t size_m = polys.SizeM();
  const uint32_t k = internal::RequiredLoss(size_m, bound_b);
  // Arrays are computed with headroom above k so a retained run can absorb
  // appends and answer other bounds; the query always runs in the
  // k-clamped view, so the answer is independent of the headroom.
  const uint32_t clamp = static_cast<uint32_t>(std::min<uint64_t>(
      size_m, static_cast<uint64_t>(k) + options.retain_headroom));
  bool budget_exhausted = false;
  std::shared_ptr<RetainedDpState> state =
      RunDp(polys, forest.tree(tree_index), tree_index, clamp, options,
            &budget_exhausted);
  StatusOr<CompressionResult> result = Query(*state, forest, k);
  if (!result.ok()) return result;
  result->budget_exhausted = budget_exhausted;
  if (options.retain_state && !budget_exhausted) {
    result->dp_state = std::move(state);
  }
  return result;
}

const char* RecompressFallbackName(RecompressFallback fallback) {
  switch (fallback) {
    case RecompressFallback::kNone: return "none";
    case RecompressFallback::kNoState: return "no_state";
    case RecompressFallback::kDeltaIncomplete: return "delta_incomplete";
    case RecompressFallback::kShapeChanged: return "shape_changed";
    case RecompressFallback::kHeadroomExhausted: return "headroom_exhausted";
    case RecompressFallback::kCrossesCut: return "crosses_cut";
  }
  return "unknown";
}

StatusOr<CompressionResult> OptimalRecompress(
    const PolynomialSet& polys, const AbstractionForest& forest,
    const CompressionResult& prev, const PolynomialSetDelta& delta,
    size_t bound_b, RecompressFallback* fallback) {
  if (fallback) *fallback = RecompressFallback::kNone;
  if (bound_b == 0) {
    return Status::InvalidArgument("bound must be at least 1");
  }
  const uint32_t k = internal::RequiredLoss(polys.SizeM(), bound_b);
  PROVABS_ASSIGN_OR_RETURN(
      std::shared_ptr<const internal::RetainedDpState> state,
      internal::PatchDpState(polys, forest, prev.dp_state, delta, k,
                             fallback));
  StatusOr<CompressionResult> result = Query(*state, forest, k);
  if (result.ok()) result->dp_state = std::move(state);
  return result;
}

}  // namespace provabs
