#ifndef PROVABS_JIT_JIT_BACKEND_H_
#define PROVABS_JIT_JIT_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/evaluation_backend.h"
#include "jit/code_cache.h"

namespace provabs {

/// True when the PROVABS_EVAL_FORCE_NOJIT environment variable is set to a
/// non-empty value other than "0" — the deterministic CI knob (mirroring
/// PROVABS_EVAL_FORCE_SCALAR) that makes the registered "jit" backend take
/// its compiled-kernel fallback path on every call and the registry's auto
/// policy route around it. Read per call, so tests can flip it.
bool JitForceDisabled();

/// True when the "jit" backend will actually execute emitted code: the
/// force knob is unset AND the process can map executable memory
/// (jit::ExecArena::ExecMemoryAvailable() — false on noexec/hardened
/// systems and non-x86-64 builds).
bool JitNativeActive();

/// Scenarios a compiled snapshot serves in the auto-routed calls the jit
/// would take (with vector lanes, those narrower than one simd_batch lane
/// group) before auto-routing sends them to the jit (EvaluationBackendInfo::
/// break_even_scenarios). Emission is a one-time cost per snapshot, and
/// every width-1 scenario the jit then serves saves the compiled kernel's
/// extra time, so the break-even point is emission time over that saving.
/// On the four servebench views (`bench_serve --trace 1`, seed 1: jit.emit_us
/// over backend.compiled minus backend.jit us_per_scenario.w1) it is
/// 858/12.8 = 67 (evaluate-compressed), 5,313/66.5 = 80 (scenario-sweep),
/// 8,603/82.5 = 104 (compress-cold) and 6,442/66.5 = 97 (append-mixed)
/// scenarios; bench_evaluate_kernel's four workloads (JITSTAT emit_ms, a
/// fresh emission, over the per-scenario compiled-minus-jit time) give
/// 59-149 across three runs. One constant near the top of that range emits
/// only for snapshots that have shown they are read often, one scenario at
/// a time: append-mixed's views, replaced after about 10 reads each, stay
/// interpreted, views that live for thousands of narrow reads cross over
/// within their first 100, and scenario families never emit.
inline constexpr uint64_t kJitBreakEvenScenarios = 100;

/// The narrow-call backend: emits one straight-line native function per
/// polynomial of the compiled artifact (jit/code_generator.h), cached by
/// compiled-form fingerprint (jit/code_cache.h), and calls it per
/// (scenario, polynomial) — no interpreter loops, no per-factor offset
/// loads, coefficients embedded in the instruction stream. Registered in
/// EvaluationBackendRegistry::Default() as "jit".
///
/// Degrades gracefully instead of failing: when emission is impossible
/// (forced off, executable memory unavailable, per-set code cap, disp32
/// overflow) the batch runs through the compiled CSR kernel — bitwise
/// identical by the backend contract — and the reason is counted in
/// stats(). Explicitly selecting "jit" therefore always succeeds wherever
/// "compiled" would.
class JitBackend : public EvaluationBackend {
 public:
  enum class Mode {
    kAuto,           ///< Native when JitNativeActive(), else fallback.
    kForceFallback,  ///< Always the compiled-kernel path (tests/CI).
  };

  /// `cache` defaults to jit::JitCodeCache::Default(); tests pass their
  /// own to pin budget/eviction behaviour.
  explicit JitBackend(Mode mode = Mode::kAuto,
                      jit::JitCodeCache* cache = nullptr);

  const EvaluationBackendInfo& info() const override;

  /// False when this instance cannot execute native code (forced fallback
  /// or no executable memory) — the auto policy then routes narrow calls
  /// to compiled while explicit selection still works via the fallback
  /// path.
  bool Available() const override;

  /// Why batches went native or fell back, cumulative per instance.
  struct Stats {
    uint64_t native_batches = 0;
    uint64_t fallback_forced = 0;      ///< Mode/env force knob.
    uint64_t fallback_no_exec_mem = 0; ///< mmap/mprotect unavailable.
    uint64_t fallback_emit_failed = 0; ///< Code cap / encoding limits.
  };
  Stats stats() const;

 protected:
  void DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                       size_t poly_begin, size_t poly_end,
                       const DenseValuation* const* scenarios,
                       double* const* outs,
                       size_t scenario_count) const override;

 private:
  Mode mode_;
  jit::JitCodeCache* cache_;
  mutable std::atomic<uint64_t> native_batches_{0};
  mutable std::atomic<uint64_t> fallback_forced_{0};
  mutable std::atomic<uint64_t> fallback_no_exec_mem_{0};
  mutable std::atomic<uint64_t> fallback_emit_failed_{0};
};

/// Factory for the registry's built-in registration (keeps
/// core/evaluation_backend.cc ignorant of the concrete type).
std::unique_ptr<EvaluationBackend> MakeJitBackend();

}  // namespace provabs

#endif  // PROVABS_JIT_JIT_BACKEND_H_
