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

/// The unified scenario-evaluation API. PR 5's compiled kernel made a
/// single scenario fast; the serving workload is MANY scenarios against one
/// resident artifact (the Fig. 10 interaction repeated per analyst), and the
/// cheapest way to go faster is to amortize one pass over the CSR arrays
/// across a batch of scenarios — structure-of-arrays DenseValuation lanes,
/// the batched-evaluation shape the incremental-maintenance literature uses
/// to make per-answer work sublinear. This header is the seam through which
/// every evaluation path (Valuation::EvaluateAll, the serving
/// EvaluateBatcher, the CLI, the benches) selects a strategy by name,
/// exactly how algo/compressor.h routes compression: adding a backend
/// means registering one adapter, and the cross-backend differential
/// battery gates it for free — the route the per-artifact JIT
/// (jit/jit_backend.h) arrived through.
///
/// Every backend MUST reproduce the canonical summation order documented on
/// Valuation::Evaluate operation-for-operation, so results are BITWISE
/// identical across all registered backends — tests and the
/// bench_evaluate_kernel batched arm assert IEEE-754 bit equality, not
/// tolerance, and the bench exits nonzero on any divergence.

/// Monomials a compiled set needs before auto-routing sends its wide calls
/// to simd_batch while its lanes are scalar. At width 40 on
/// bench_evaluate_kernel's smoke-scale sets the jit beat scalar lanes by
/// 1.05-1.6x on the sets of 126 and 151 monomials, and scalar lanes beat
/// the jit by 1.2-1.3x on the set of 536 and won on the set of 1,188; the
/// constant sits between the two sides (CHANGES.md has the runs). AVX2
/// lanes came within 0.87x of the jit on every set, so vector lanes (AVX2
/// or AVX-512) take every wide call.
inline constexpr uint64_t kScalarLaneMinMonomials = 256;

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
  /// Batch width from which this backend is the fastest. For simd_batch
  /// it is the width rule's crossover: auto-routing sends calls at least
  /// this wide to it. 1 = no batching requirement.
  uint32_t preferred_batch = 1;
  /// Scenarios a compiled snapshot must have served in the auto-routed
  /// calls this backend would take before auto-routing picks it: the
  /// backend's per-snapshot setup (jit emission) over its per-scenario
  /// saving. 0 = no setup cost (naive, compiled, simd_batch). Not part of
  /// the wire capability record.
  uint64_t break_even_scenarios = 0;
};

/// One evaluation strategy. Implementations must be stateless and
/// thread-safe: the serving layer calls a single instance from many
/// request and pool threads concurrently.
class EvaluationBackend {
 public:
  virtual ~EvaluationBackend() = default;

  virtual const EvaluationBackendInfo& info() const = 0;

  /// Whether this backend can currently deliver its advertised speed. The
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
///                walks the CSR arrays once per pass, as two independent
///                accumulator chains: 16 scenarios as two 8-lane chains
///                with AVX-512, 8 as two 4-lane chains with AVX2 (and for
///                any tail of 8 or fewer); the lane kind is runtime-
///                detected, with a portable scalar-lane fallback of the
///                AVX2 shape compiled unconditionally
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

  /// Auto-routing policy shared by every evaluation path. An explicit
  /// `name` resolves strictly. An empty name routes by batch width:
  ///   - a wide call, at least simd_batch's preferred_batch (one lane
  ///     group, 4 scenarios), runs simd_batch, except on a `snapshot`
  ///     under kScalarLaneMinMonomials monomials while the lanes are
  ///     scalar (SimdBatchLanes() is SimdLanes::kScalar);
  ///   - a narrower call, and a wide call under that exception, runs the
  ///     jit when it is Available() and, given a `snapshot`, once that
  ///     snapshot has served the jit's break_even_scenarios in such calls;
  ///   - every other call runs simd_batch when wide, else compiled (the
  ///     first registered backend in a registry without it; an empty
  ///     registry is the only hard failure). Batch 0 runs compiled.
  ///
  /// A call the jit could serve but does not yet adds its width to the
  /// snapshot's count (CompiledPolynomialSet::CountInterpretedScenarios).
  /// Wide calls that simd_batch takes never count, because the jit never
  /// serves them. A snapshot that sees only scenario families therefore
  /// never emits code, a short-lived one never pays an emission it cannot
  /// repay, and a long-lived narrow reader crosses over after its first
  /// ~100 scenarios. Without a snapshot, routing ignores the break-even
  /// and the set size.
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

/// The lane implementations simd_batch can run, narrowest first.
enum class SimdLanes { kScalar, kAvx2, kAvx512 };

/// "scalar", "avx2" or "avx512".
const char* SimdLanesName(SimdLanes lanes);

/// The lanes the registered "simd_batch" backend runs: kAvx512 when the
/// CPU has AVX-512F and AVX2 and the OS saves ZMM state, else kAvx2 when
/// it has AVX2, else kScalar; kScalar on every host while the
/// PROVABS_EVAL_FORCE_SCALAR environment variable is set and not 0.
/// Exposed so routing, tests and CI can tell which lane implementation
/// ran (a scalar-forced job still gates the vector paths' lane logic,
/// which the fallback shares).
SimdLanes SimdBatchLanes();

/// The SIMD-batched backend, constructible directly so the differential
/// battery can pin each lane implementation regardless of the host CPU:
/// kAuto runs SimdBatchLanes(); kForceAvx2 runs AVX2 lanes where that is
/// AVX-512 or AVX2 (so the AVX2 kernel stays covered on AVX-512 hosts) and
/// scalar lanes where it is scalar; kForceScalar always runs the portable
/// scalar lanes. Registered in Default() as "simd_batch" (kAuto).
class SimdBatchBackend : public EvaluationBackend {
 public:
  enum class Mode { kAuto, kForceAvx2, kForceScalar };
  explicit SimdBatchBackend(Mode mode = Mode::kAuto) : mode_(mode) {}

  const EvaluationBackendInfo& info() const override;

  /// The lane implementation this instance runs.
  SimdLanes lanes() const;

 protected:
  void DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                       size_t poly_begin, size_t poly_end,
                       const DenseValuation* const* scenarios,
                       double* const* outs,
                       size_t scenario_count) const override;

 private:
  Mode mode_;
};

}  // namespace provabs

#endif  // PROVABS_CORE_EVALUATION_BACKEND_H_
