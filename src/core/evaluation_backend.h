#ifndef PROVABS_CORE_EVALUATION_BACKEND_H_
#define PROVABS_CORE_EVALUATION_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/compiled_polynomial_set.h"

namespace provabs {

class PolynomialSet;
class Valuation;

/// The unified scenario-evaluation API. PR 5's compiled kernel made a
/// single scenario fast; the serving workload is MANY scenarios against one
/// resident artifact (the Fig. 10 interaction repeated per analyst), and the
/// cheapest way to go faster is to amortize one pass over the CSR arrays
/// across a batch of scenarios — structure-of-arrays DenseValuation lanes,
/// the batched-evaluation shape the incremental-maintenance literature uses
/// to make per-answer work sublinear. This header is the seam through which
/// every evaluation path (Valuation::EvaluateAll, ParallelEvaluateAll, the
/// serving EvaluateBatcher, the CLI, the benches) selects a strategy by
/// name, exactly how algo/compressor.h routes compression: adding a backend
/// means registering one adapter, and the cross-backend differential
/// battery gates it for free — the route the per-artifact JIT
/// (jit/jit_backend.h) arrived through.
///
/// Every backend MUST reproduce the canonical summation order documented on
/// Valuation::Evaluate operation-for-operation, so results are BITWISE
/// identical across all registered backends — tests and the
/// bench_evaluate_kernel batched arm assert IEEE-754 bit equality, not
/// tolerance, and the bench exits nonzero on any divergence.

/// Capability record advertised by an evaluation backend, served over the
/// wire by the ListBackends request so clients route without hardcoding
/// backend names.
struct EvaluationBackendInfo {
  std::string name;
  /// One-line description for --help / remote-info output.
  std::string summary;
  /// Uses SIMD lanes (evaluates several scenarios per instruction).
  bool vectorized = false;
  /// Same inputs always yield the same bits (all built-ins).
  bool deterministic = false;
  /// Batch width from which this backend beats the single-scenario kernel;
  /// auto-routing only considers it for batches >= this width. 1 = no
  /// batching requirement.
  uint32_t preferred_batch = 1;
  /// Speed tier for auto-routing: among eligible (preferred_batch) and
  /// available backends the HIGHEST tier wins. Built-ins: naive=0,
  /// compiled=1, simd_batch=2, jit=3 — the jit > simd_batch > compiled
  /// preference order ResolveForBatch documents.
  uint32_t tier = 0;
  /// Scenarios a compiled snapshot must have served on backends without a
  /// one-time cost before auto-routing picks this one for it: the backend's
  /// per-snapshot setup (jit emission) over its per-scenario saving. 0 =
  /// no setup cost (naive, compiled, simd_batch). Not part of the wire
  /// capability record.
  uint64_t break_even_scenarios = 0;
};

/// One evaluation strategy. Implementations must be stateless and
/// thread-safe: the serving layer calls a single instance from many pool
/// workers concurrently, each on a disjoint polynomial range.
class EvaluationBackend {
 public:
  virtual ~EvaluationBackend() = default;

  virtual const EvaluationBackendInfo& info() const = 0;

  /// Whether this backend can currently deliver its advertised tier. The
  /// auto policy skips unavailable backends; explicit selection by name
  /// still works (an unavailable backend must degrade internally, not
  /// fail). The jit backend reports false when executable memory is
  /// unavailable or PROVABS_EVAL_FORCE_NOJIT is set; everything else is
  /// unconditionally available.
  virtual bool Available() const { return true; }

  /// Evaluates polynomials [poly_begin, poly_end) of `compiled` under each
  /// of `scenarios[0..scenario_count)`; writes
  /// `outs[s][i] = value of polynomial (poly_begin + i) under scenario s`.
  /// Every output buffer must hold at least `poly_end - poly_begin` slots.
  ///
  /// Fails with kInvalidArgument when the range is out of bounds or any
  /// scenario was materialized against a DIFFERENT compiled form
  /// (fingerprint mismatch — a stale valuation from before a set was
  /// mutated would silently mis-index otherwise). Validation happens here,
  /// once per batch; implementations receive pre-validated input.
  Status EvaluateBatch(const CompiledPolynomialSet& compiled,
                       size_t poly_begin, size_t poly_end,
                       const DenseValuation* const* scenarios,
                       double* const* outs, size_t scenario_count) const;

 protected:
  /// The actual kernel, called with validated arguments.
  virtual void DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                               size_t poly_begin, size_t poly_end,
                               const DenseValuation* const* scenarios,
                               double* const* outs,
                               size_t scenario_count) const = 0;
};

/// Name -> backend registry, mirroring CompressorRegistry. `Default()` is
/// the process-wide instance pre-populated with the four built-ins:
///
///   naive      — scalar reference interpreter, one scenario at a time
///   compiled   — PR 5's CSR kernel (flat-array walks), one scenario at a
///                time; the single-scenario baseline
///   simd_batch — transposes the batch into structure-of-arrays lanes and
///                walks the CSR arrays ONCE per polynomial for all lanes;
///                AVX2 when the CPU has it (runtime-detected), with a
///                portable scalar-lane fallback compiled unconditionally
///   jit        — emits one straight-line native function per polynomial
///                of the compiled artifact (jit/jit_backend.h), cached by
///                compiled-form fingerprint; degrades to the compiled
///                kernel where executable memory is unavailable
///
/// Thread-safe; registered backends live for the registry's lifetime.
class EvaluationBackendRegistry {
 public:
  /// An empty registry (for tests and embedders composing their own set).
  EvaluationBackendRegistry() = default;

  EvaluationBackendRegistry(const EvaluationBackendRegistry&) = delete;
  EvaluationBackendRegistry& operator=(const EvaluationBackendRegistry&) =
      delete;

  /// The process-wide registry with the built-ins registered. Constructed
  /// on first use (no static-init-order hazards).
  static EvaluationBackendRegistry& Default();

  /// Registers a backend under its info().name. Duplicate names are
  /// rejected (kInvalidArgument) — silently replacing a backend another
  /// subsystem already resolved would change the bits under its feet.
  Status Register(std::unique_ptr<EvaluationBackend> backend);

  /// nullptr when no backend of that name is registered.
  const EvaluationBackend* Find(const std::string& name) const;

  /// Find() with a useful failure: the error lists every registered name.
  StatusOr<const EvaluationBackend*> Resolve(const std::string& name) const;

  /// Auto-routing policy shared by every evaluation path: an explicit
  /// `name` resolves strictly; an empty name picks the HIGHEST-tier
  /// backend among those that are Available() and whose preferred_batch
  /// <= `batch_size` — with the built-ins, jit > simd_batch > compiled
  /// (and jit force-disabled or without executable memory degrades to
  /// simd_batch for batches, compiled for single scenarios). Ties break
  /// toward the larger preferred_batch, then lexicographically smallest
  /// name, so routing is deterministic. Falls back to "compiled" when
  /// nothing is eligible (and to any registered backend if "compiled" was
  /// not registered — an empty registry is the only hard failure).
  ///
  /// With a `snapshot` (the compiled form the batch will run on), a
  /// backend with a break_even_scenarios cost is eligible only once the
  /// snapshot has served that many scenarios elsewhere, and a batch routed
  /// to a cost-free backend adds its width to the snapshot's count
  /// (CompiledPolynomialSet::CountInterpretedScenarios). A short-lived
  /// snapshot thus never pays a jit emission it cannot repay, while a
  /// long-lived one crosses over after its first ~100 scenarios. Without
  /// a snapshot, routing ignores break-even costs.
  StatusOr<const EvaluationBackend*> ResolveForBatch(
      const std::string& name, size_t batch_size,
      const CompiledPolynomialSet* snapshot = nullptr) const;

  /// Registered names in sorted order.
  std::vector<std::string> Names() const;

  /// Capability records in name-sorted order (the ListBackends payload).
  std::vector<EvaluationBackendInfo> Infos() const;

  /// "compiled, naive, simd_batch" — for error and usage text.
  std::string NamesCsv() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<EvaluationBackend>> by_name_;
};

/// Registers the built-in backends into `registry`. Default() calls this on
/// construction; exposed so tests can compose a fresh registry with the
/// same contents.
Status RegisterBuiltinEvaluationBackends(EvaluationBackendRegistry& registry);

/// True when the running CPU supports AVX2 and the PROVABS_EVAL_FORCE_SCALAR
/// environment variable is unset/0 — the condition under which the
/// registered "simd_batch" backend takes its vector path. Exposed so tests
/// and CI can tell which lane implementation the differential actually
/// covered (a scalar-forced job still gates the vector path's lane logic,
/// which the fallback shares).
bool SimdBatchAvx2Active();

/// The SIMD-batched backend, constructible directly so the differential
/// battery can pin each lane implementation regardless of the host CPU:
/// kForceScalar always takes the portable scalar-lane path; kAuto follows
/// SimdBatchAvx2Active(). Registered in Default() as "simd_batch" (kAuto).
class SimdBatchBackend : public EvaluationBackend {
 public:
  enum class Mode { kAuto, kForceScalar };
  explicit SimdBatchBackend(Mode mode = Mode::kAuto) : mode_(mode) {}

  const EvaluationBackendInfo& info() const override;

  /// True when this instance will execute AVX2 lanes.
  bool using_avx2() const;

 protected:
  void DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                       size_t poly_begin, size_t poly_end,
                       const DenseValuation* const* scenarios,
                       double* const* outs,
                       size_t scenario_count) const override;

 private:
  Mode mode_;
};

/// Convenience entry point for multi-scenario evaluation: compiles (cached
/// on the set), materializes every scenario, and routes the whole batch
/// through `ResolveForBatch(backend_name, scenarios.size())` against
/// `registry` (Default() when null). Returns one value vector per scenario,
/// each bitwise identical to Valuation::Evaluate per polynomial. Unknown
/// backend names fail listing the registered set.
StatusOr<std::vector<std::vector<double>>> EvaluateScenarios(
    const PolynomialSet& polys, const std::vector<Valuation>& scenarios,
    const std::string& backend_name = "",
    const EvaluationBackendRegistry* registry = nullptr);

}  // namespace provabs

#endif  // PROVABS_CORE_EVALUATION_BACKEND_H_
