#ifndef PROVABS_SERVER_EVALUATE_BATCHER_H_
#define PROVABS_SERVER_EVALUATE_BATCHER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/compiled_polynomial_set.h"
#include "core/evaluation_backend.h"
#include "core/polynomial_set.h"
#include "core/valuation.h"
#include "parallel/thread_pool.h"

namespace provabs {

/// Runs what-if evaluations on the calling thread.
///
/// The serving workload is many analysts firing small valuation requests at
/// a resident compressed artifact (the Fig. 10 interaction, repeated), and
/// the server's request workers already run those requests side by side.
/// So each call resolves its backend through the evaluation-backend
/// registry (core/evaluation_backend.h) with its own width and compiled
/// snapshot, and runs ONE EvaluateBatch over the whole set on the caller's
/// thread. Routing is by width: with vector lanes a call of one lane group
/// or more runs simd_batch, and a narrower auto-routed call reaches the jit
/// only once its snapshot has served the break-even number of them.
///
/// Only a call whose work, scenarios × monomials, exceeds the split
/// threshold is split: into pool-width polynomial ranges holding about
/// equal numbers of monomials, each carrying every scenario of the call so
/// the backend keeps full lanes, run across the pool. The caller
/// materializes its valuation into a dense slot array first, so pool
/// workers run pure flat-array walks. Results are bitwise identical to
/// naive `Valuation::Evaluate` per polynomial, whichever backend runs and
/// however the set is split.
class EvaluateBatcher {
 public:
  /// Scenarios × monomials above which a call is split across the pool.
  /// In bench_parallel_scaling's direct-against-split table (4-vCPU VM,
  /// five runs, wide calls on simd_batch's AVX-512 lanes) a 4-way split
  /// loses in every run at 2,845 and 45,520 (a Q10 view at widths 1 and
  /// 16), where its hand-offs cost more than they save, goes either way at
  /// 20,952 and 335,232 (the running example at widths 1 and 16) and at
  /// 182,080-2,913,280 (the Q10 view at widths 64-1,024), and wins in every
  /// run from 1,340,928 (the running example at width 64) up. Whether it
  /// pays also depends on where the scheduler places the pool threads, so
  /// the constant stays where the AVX2 table put it.
  static constexpr uint64_t kSplitWork = 65536;

  /// `registry` selects evaluation backends (Default() when null); tests
  /// inject counting/failing registries through it.
  explicit EvaluateBatcher(ThreadPool& pool,
                           const EvaluationBackendRegistry* registry = nullptr)
      : pool_(pool),
        registry_(registry != nullptr ? registry
                                      : &EvaluationBackendRegistry::Default()) {
  }

  EvaluateBatcher(const EvaluateBatcher&) = delete;
  EvaluateBatcher& operator=(const EvaluateBatcher&) = delete;

  /// Evaluates every polynomial of `polys` under `val`. `backend` names an
  /// evaluation backend ("" = the registry's auto policy for a width-1
  /// batch on this snapshot); unknown names fail with the registry's
  /// name-listing error. `*ran`, when given, receives the name of the
  /// backend that ran. Thread-safe.
  StatusOr<std::vector<double>> Evaluate(
      std::shared_ptr<const PolynomialSet> polys, Valuation val,
      const std::string& backend = "", std::string* ran = nullptr);

  /// Evaluates every polynomial of `polys` under each of `scenarios` — the
  /// scenario-program fan-out entry point (scenario/program.h expands
  /// chunks of DenseValuations already stamped with `compiled`'s
  /// fingerprint). The scenarios form one batch of their full width; only
  /// `compiled` is read, `polys` being the set it belongs to.
  /// Returns one value vector per scenario, in order; counts as
  /// scenarios.size() requests in stats(). Fails fast with
  /// kInvalidArgument if any scenario carries a foreign fingerprint.
  StatusOr<std::vector<std::vector<double>>> EvaluateDense(
      std::shared_ptr<const PolynomialSet> polys,
      std::shared_ptr<const CompiledPolynomialSet> compiled,
      std::vector<DenseValuation> scenarios, const std::string& backend = "",
      std::string* ran = nullptr);

  struct Stats {
    uint64_t requests = 0;       ///< Scenarios evaluated.
    uint64_t calls = 0;          ///< Evaluate and EvaluateDense calls.
    uint64_t backend_calls = 0;  ///< EvaluateBatch invocations.
  };
  Stats stats() const;

 private:
  /// Resolves the backend for `count` scenarios on `compiled` and runs it
  /// over every polynomial, split across the pool above kSplitWork.
  Status Run(const CompiledPolynomialSet& compiled,
             const std::string& backend, const DenseValuation* const* in,
             double* const* outs, size_t count, std::string* ran);

  ThreadPool& pool_;
  const EvaluationBackendRegistry* registry_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> backend_calls_{0};
};

/// Boundaries of at most `parts` contiguous polynomial ranges of `compiled`
/// holding about equal numbers of monomials: 0, the first polynomial at or
/// past each equal share of the monomials, and poly_count(). No range is
/// empty, so there are fewer ranges when polynomials are few or large.
std::vector<size_t> MonomialBalancedRanges(
    const CompiledPolynomialSet& compiled, size_t parts);

}  // namespace provabs

#endif  // PROVABS_SERVER_EVALUATE_BATCHER_H_
