#include "jit/jit_backend.h"

#include <cstdlib>

namespace provabs {

bool JitForceDisabled() {
  const char* env = std::getenv("PROVABS_EVAL_FORCE_NOJIT");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

bool JitNativeActive() {
  return !JitForceDisabled() && jit::ExecArena::ExecMemoryAvailable();
}

JitBackend::JitBackend(Mode mode, jit::JitCodeCache* cache)
    : mode_(mode),
      cache_(cache != nullptr ? cache : &jit::JitCodeCache::Default()) {}

const EvaluationBackendInfo& JitBackend::info() const {
  static const EvaluationBackendInfo kInfo{
      "jit",
      "per-artifact native code emission (straight-line SSE2, "
      "fingerprint-cached; falls back to the compiled kernel where "
      "executable memory is unavailable)",
      /*vectorized=*/false, /*deterministic=*/true, /*preferred_batch=*/1,
      /*break_even_scenarios=*/kJitBreakEvenScenarios};
  return kInfo;
}

bool JitBackend::Available() const {
  return mode_ == Mode::kAuto && JitNativeActive();
}

void JitBackend::DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                                 size_t poly_begin, size_t poly_end,
                                 const DenseValuation* const* scenarios,
                                 double* const* outs,
                                 size_t scenario_count) const {
  if (mode_ == Mode::kForceFallback || JitForceDisabled()) {
    fallback_forced_.fetch_add(1, std::memory_order_relaxed);
  } else if (!jit::ExecArena::ExecMemoryAvailable()) {
    fallback_no_exec_mem_.fetch_add(1, std::memory_order_relaxed);
  } else {
    StatusOr<std::shared_ptr<const jit::JitModule>> module =
        cache_->GetOrEmit(compiled);
    if (module.ok()) {
      native_batches_.fetch_add(1, std::memory_order_relaxed);
      // A full-range batch takes the single range function (one native
      // call per scenario — the common serving and EvaluateAll shape);
      // partial ranges (parallel chunking) call per-polynomial entries.
      const bool full_range =
          poly_begin == 0 && poly_end == compiled.poly_count();
      for (size_t s = 0; s < scenario_count; ++s) {
        const double* slots = scenarios[s]->data();
        double* out = outs[s];
        if (full_range) {
          (*module)->EvalAll(slots, out);
          continue;
        }
        for (size_t p = poly_begin; p < poly_end; ++p) {
          out[p - poly_begin] = (*module)->Eval(p, slots);
        }
      }
      return;
    }
    fallback_emit_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  // Graceful degradation: the single-scenario CSR kernel, which shares the
  // canonical operation order, so the batch is still bitwise identical to
  // every other backend — just without the straight-line speedup.
  for (size_t s = 0; s < scenario_count; ++s) {
    compiled.EvaluateRange(poly_begin, poly_end, *scenarios[s], outs[s]);
  }
}

JitBackend::Stats JitBackend::stats() const {
  Stats s;
  s.native_batches = native_batches_.load(std::memory_order_relaxed);
  s.fallback_forced = fallback_forced_.load(std::memory_order_relaxed);
  s.fallback_no_exec_mem =
      fallback_no_exec_mem_.load(std::memory_order_relaxed);
  s.fallback_emit_failed =
      fallback_emit_failed_.load(std::memory_order_relaxed);
  return s;
}

std::unique_ptr<EvaluationBackend> MakeJitBackend() {
  return std::make_unique<JitBackend>();
}

}  // namespace provabs
