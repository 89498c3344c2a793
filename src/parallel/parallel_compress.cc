#include "parallel/parallel_compress.h"

#include <algorithm>
#include <atomic>

#include "abstraction/cut_counter.h"
#include "abstraction/valid_variable_set.h"

namespace provabs {

std::vector<LossReport> ParallelNodeLosses(const PolynomialSet& polys,
                                           const AbstractionTree& tree,
                                           ThreadPool& pool) {
  // The index build is one sequential pass (cheap); per-node loss queries
  // dominate and parallelize trivially.
  LeafResidualIndex index(polys, tree);
  std::vector<LossReport> losses(tree.node_count());
  pool.ParallelFor(tree.node_count(), [&](size_t v) {
    losses[v] = index.NodeLoss(static_cast<NodeIndex>(v));
  });
  return losses;
}

StatusOr<CompressionResult> ParallelBruteForce(
    const PolynomialSet& polys, const AbstractionForest& forest,
    size_t bound_b, ThreadPool& pool, const BruteForceOptions& options) {
  Status compat = forest.CheckCompatible(polys);
  if (!compat.ok()) return compat;
  if (bound_b == 0) {
    return Status::InvalidArgument("bound must be at least 1");
  }
  double total_cuts_approx = CountForestCutsApprox(forest);
  if (total_cuts_approx > static_cast<double>(options.max_cuts)) {
    return Status::OutOfRange("forest admits too many cuts for brute force");
  }

  const size_t size_m = polys.SizeM();
  const size_t k = bound_b >= size_m ? 0 : size_m - bound_b;

  std::vector<std::vector<std::vector<NodeIndex>>> per_tree;
  per_tree.reserve(forest.tree_count());
  uint64_t total_cuts = 1;
  for (uint32_t t = 0; t < forest.tree_count(); ++t) {
    per_tree.push_back(internal::EnumerateTreeCuts(forest.tree(t)));
    total_cuts *= per_tree.back().size();
  }

  // Each worker scans a contiguous range of the mixed-radix cut index
  // space and keeps its local best; reduce afterwards.
  struct LocalBest {
    bool found = false;
    CompressionResult result;
  };
  const size_t shards = pool.thread_count() * 4;
  std::vector<LocalBest> best_per_shard(shards);
  const uint64_t per_shard = (total_cuts + shards - 1) / shards;

  std::atomic<bool> expired{false};
  pool.ParallelFor(shards, [&](size_t shard) {
    const uint64_t begin = shard * per_shard;
    const uint64_t end = std::min<uint64_t>(total_cuts, begin + per_shard);
    LocalBest& local = best_per_shard[shard];
    for (uint64_t idx = begin; idx < end; ++idx) {
      // Same time-budget contract as the serial BruteForce: checked per
      // cut; one worker noticing expiry drains every shard promptly.
      if (expired.load(std::memory_order_relaxed)) return;
      if (options.deadline.Expired()) {
        expired.store(true, std::memory_order_relaxed);
        return;
      }
      // Decode the mixed-radix index into one cut per tree.
      uint64_t rest = idx;
      std::vector<NodeRef> nodes;
      for (uint32_t t = 0; t < per_tree.size(); ++t) {
        const auto& cuts = per_tree[t];
        const auto& cut = cuts[rest % cuts.size()];
        rest /= cuts.size();
        for (NodeIndex n : cut) nodes.push_back(NodeRef{t, n});
      }
      ValidVariableSet vvs(std::move(nodes));
      LossReport loss = ComputeLossNaive(polys, forest, vvs);
      if (loss.monomial_loss < k) continue;
      if (!local.found ||
          loss.variable_loss < local.result.loss.variable_loss) {
        local.result.vvs = std::move(vvs);
        local.result.loss = loss;
        local.result.adequate = true;
        local.found = true;
      }
    }
  });

  if (expired.load(std::memory_order_relaxed)) {
    return Status::OutOfRange("brute force exceeded its time budget");
  }
  bool found = false;
  CompressionResult best;
  for (LocalBest& local : best_per_shard) {
    if (!local.found) continue;
    if (!found ||
        local.result.loss.variable_loss < best.loss.variable_loss) {
      best = std::move(local.result);
      found = true;
    }
  }
  if (!found) {
    return Status::Infeasible("no valid variable set is adequate for bound");
  }
  return best;
}

StatusOr<CompressionResult> ParallelCompress(const PolynomialSet& polys,
                                             const AbstractionForest& forest,
                                             const std::string& algo,
                                             const CompressOptions& options,
                                             ThreadPool& pool) {
  StatusOr<const Compressor*> compressor =
      CompressorRegistry::Default().Resolve(algo);
  if (!compressor.ok()) return compressor.status();
  if (algo == "brute") {
    BruteForceOptions brute;
    if (options.time_budget_ms > 0) {
      brute.deadline = Deadline::AfterMillis(options.time_budget_ms);
    }
    return ParallelBruteForce(polys, forest, options.bound, pool, brute);
  }
  return (*compressor)->Compress(polys, forest, options);
}

}  // namespace provabs
