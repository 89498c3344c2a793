#ifndef PROVABS_PARALLEL_PARALLEL_COMPRESS_H_
#define PROVABS_PARALLEL_PARALLEL_COMPRESS_H_

#include <string>
#include <vector>

#include "abstraction/abstraction_forest.h"
#include "abstraction/loss.h"
#include "algo/brute_force.h"
#include "algo/compressor.h"
#include "algo/optimal_single_tree.h"
#include "common/statusor.h"
#include "core/polynomial_set.h"
#include "parallel/thread_pool.h"

namespace provabs {

/// Multi-core variants of the compression primitives. The paper's offline
/// deployment computes provenance on powerful hardware (§1, citing the
/// distributed-provenance line [24]); these helpers use that hardware for
/// the compression step without changing any semantics — each function is
/// bit-identical to its serial counterpart (asserted by tests). Evaluation
/// splits across a pool through EvaluateBatcher (server/evaluate_batcher.h).

/// Per-node singleton-cut losses for one tree, computed in parallel over
/// nodes (each NodeLoss reads the shared residual index independently).
/// result[v] = loss of the VVS {v} ∪ other-leaves.
std::vector<LossReport> ParallelNodeLosses(const PolynomialSet& polys,
                                           const AbstractionTree& tree,
                                           ThreadPool& pool);

/// Exhaustive search with the cut space partitioned across the pool.
/// Results match BruteForce exactly (same optimal variable loss; the
/// witness cut may differ among ties).
StatusOr<CompressionResult> ParallelBruteForce(
    const PolynomialSet& polys, const AbstractionForest& forest,
    size_t bound_b, ThreadPool& pool, const BruteForceOptions& options = {});

/// Registry-routed compression with pool acceleration where it exists:
/// "brute" runs ParallelBruteForce over `pool`; every other registered
/// algorithm resolves through CompressorRegistry::Default() and runs its
/// serial implementation (their DPs are not parallelized yet). Results
/// match the serial counterparts exactly (for "brute": same optimal
/// variable loss, witness cut may differ among ties). Unknown names fail
/// with the registry's name-listing error.
StatusOr<CompressionResult> ParallelCompress(const PolynomialSet& polys,
                                             const AbstractionForest& forest,
                                             const std::string& algo,
                                             const CompressOptions& options,
                                             ThreadPool& pool);

}  // namespace provabs

#endif  // PROVABS_PARALLEL_PARALLEL_COMPRESS_H_
