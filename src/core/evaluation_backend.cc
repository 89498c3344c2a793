#include "core/evaluation_backend.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/macros.h"
#include "jit/jit_backend.h"

#if defined(__x86_64__) || defined(__i386__)
#define PROVABS_EVAL_X86 1
#include <immintrin.h>
#endif

namespace provabs {

// ------------------------------------------------- base validation ------

Status EvaluationBackend::EvaluateBatch(const CompiledPolynomialSet& compiled,
                                        size_t poly_begin, size_t poly_end,
                                        const DenseValuation* const* scenarios,
                                        double* const* outs,
                                        size_t scenario_count) const {
  if (poly_begin > poly_end || poly_end > compiled.poly_count()) {
    return Status::InvalidArgument("polynomial range out of bounds");
  }
  if (scenario_count == 0 || poly_begin == poly_end) return Status::OK();
  if (scenarios == nullptr || outs == nullptr) {
    return Status::InvalidArgument("null scenario/output arrays");
  }
  for (size_t s = 0; s < scenario_count; ++s) {
    if (scenarios[s] == nullptr || outs[s] == nullptr) {
      return Status::InvalidArgument("null scenario/output in batch");
    }
    // The slot-mapping guard (the bug the differential harness surfaced):
    // a DenseValuation materialized against another compiled form — e.g.
    // before a copied set was mutated and recompiled — has a different (or
    // shorter) slot array, and indexing it with THIS form's slots would
    // silently produce wrong answers or read out of bounds. Fingerprints
    // make the mismatch a recoverable error instead.
    if (scenarios[s]->source_fingerprint() != compiled.fingerprint()) {
      return Status::InvalidArgument(
          "scenario " + std::to_string(s) +
          " was materialized against a different compiled form (the set was "
          "mutated or the valuation belongs to another set) — "
          "re-materialize it against the form being evaluated");
    }
  }
  DoEvaluateBatch(compiled, poly_begin, poly_end, scenarios, outs,
                  scenario_count);
  return Status::OK();
}

// ------------------------------------------------- builtin: naive ------

namespace {

/// Scalar reference interpreter: scenario-major, one polynomial at a time,
/// written out longhand (not delegating to EvaluateOne) so the registry
/// always contains an independent implementation of the canonical
/// summation order for the differential battery to compare against.
class NaiveBackend : public EvaluationBackend {
 public:
  const EvaluationBackendInfo& info() const override {
    static const EvaluationBackendInfo kInfo{
        "naive", "scalar reference interpreter, one scenario at a time",
        /*vectorized=*/false, /*deterministic=*/true, /*preferred_batch=*/1};
    return kInfo;
  }

 protected:
  void DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                       size_t poly_begin, size_t poly_end,
                       const DenseValuation* const* scenarios,
                       double* const* outs,
                       size_t scenario_count) const override {
    const CompiledPolynomialSet::CsrView csr = compiled.csr();
    for (size_t s = 0; s < scenario_count; ++s) {
      const double* values = scenarios[s]->data();
      double* out = outs[s];
      for (size_t p = poly_begin; p < poly_end; ++p) {
        double total = 0.0;
        for (uint32_t m = csr.poly_offsets[p]; m < csr.poly_offsets[p + 1];
             ++m) {
          double term = csr.coefficients[m];
          for (uint32_t f = csr.mono_offsets[m]; f < csr.mono_offsets[m + 1];
               ++f) {
            term *= values[csr.factor_slots[f]];
          }
          total += term;
        }
        out[p - poly_begin] = total;
      }
    }
  }
};

// ------------------------------------------------- builtin: compiled ----

/// PR 5's kernel behind the registry interface: per-scenario flat-array
/// walks (CompiledPolynomialSet::EvaluateRange). The single-scenario
/// baseline every batched backend is measured against.
class CompiledBackend : public EvaluationBackend {
 public:
  const EvaluationBackendInfo& info() const override {
    static const EvaluationBackendInfo kInfo{
        "compiled", "single-scenario CSR kernel (compiled evaluation)",
        /*vectorized=*/false, /*deterministic=*/true, /*preferred_batch=*/1};
    return kInfo;
  }

 protected:
  void DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                       size_t poly_begin, size_t poly_end,
                       const DenseValuation* const* scenarios,
                       double* const* outs,
                       size_t scenario_count) const override {
    for (size_t s = 0; s < scenario_count; ++s) {
      compiled.EvaluateRange(poly_begin, poly_end, *scenarios[s], outs[s]);
    }
  }
};

// ------------------------------------------------- builtin: simd_batch --

/// Lanes per group: one register of doubles, four in an AVX2 ymm and eight
/// in an AVX-512 zmm. A pass evaluates two groups per walk of the CSR
/// arrays, as independent accumulator chains: each multiplication of a
/// chain waits on the one before it, but the two chains' multiplications
/// overlap. The walk, not the arithmetic, is the kernel's cost, so wider
/// registers serve more scenarios per walk: at widths 16-1,024 a 16-lane
/// AVX-512 pass ran 1.9x faster per scenario than 8-lane AVX2 passes on
/// the 20,952-monomial telephony set (CHANGES.md has the runs). The scalar
/// fallback keeps the AVX2 lane and group structure (and is compiled
/// unconditionally), so a scalar-forced differential run still covers the
/// vector paths' transpose, pass and tail logic.
constexpr size_t kAvx2Lanes = 4;
constexpr size_t kAvx512Lanes = 8;
constexpr size_t kPassGroups = 2;

/// Evaluates polynomials [poly_begin, poly_end) for one pass of `kWidth`
/// scalar lanes. `lanes` is the SoA transpose
/// (lanes[slot * kWidth + j] = slot value of lane j); `outs[j]` receives
/// lane j's values indexed from the range start; only the first `live`
/// lanes are written (a partial pass pads with duplicated scenarios whose
/// outputs are discarded).
///
/// Per lane this performs exactly the canonical operation sequence —
/// term = coefficient, term *= value (once per slot entry), total += term
/// — so every lane is bitwise identical to the scalar paths. No FMA: the
/// build passes -ffp-contract=off, so the compiler never fuses a multiply
/// and an add into one rounding, in the scalar and the vector kernels
/// alike (target("avx512f") makes vfmadd available to the latter).
template <size_t kWidth>
void EvalLanesScalar(const CompiledPolynomialSet::CsrView& csr,
                     size_t poly_begin, size_t poly_end, const double* lanes,
                     double* const* outs, size_t live) {
  for (size_t p = poly_begin; p < poly_end; ++p) {
    double total[kWidth] = {};
    for (uint32_t m = csr.poly_offsets[p]; m < csr.poly_offsets[p + 1]; ++m) {
      double term[kWidth];
      for (size_t j = 0; j < kWidth; ++j) term[j] = csr.coefficients[m];
      for (uint32_t f = csr.mono_offsets[m]; f < csr.mono_offsets[m + 1];
           ++f) {
        const double* v = lanes + size_t{csr.factor_slots[f]} * kWidth;
        for (size_t j = 0; j < kWidth; ++j) term[j] *= v[j];
      }
      for (size_t j = 0; j < kWidth; ++j) total[j] += term[j];
    }
    for (size_t j = 0; j < live; ++j) outs[j][p - poly_begin] = total[j];
  }
}

#if defined(PROVABS_EVAL_X86) && defined(__GNUC__)
#define PROVABS_EVAL_HAVE_SIMD 1

/// AVX2 twin of EvalLanesScalar over `kGroups` 4-lane groups: one
/// coefficient broadcast per monomial, and per slot entry one slot load
/// feeding one vmulpd per group. Per-element IEEE-754 semantics of packed
/// mul/add are identical to scalar mul/add, so the bits match the scalar
/// paths exactly. Compiled with a function-level target attribute so the
/// rest of the binary stays baseline-ISA; only reached after
/// __builtin_cpu_supports("avx2") at runtime.
template <size_t kGroups>
__attribute__((target("avx2"))) void EvalLanesAvx2(
    const CompiledPolynomialSet::CsrView& csr, size_t poly_begin,
    size_t poly_end, const double* lanes, double* const* outs, size_t live) {
  constexpr size_t kWidth = kGroups * kAvx2Lanes;
  for (size_t p = poly_begin; p < poly_end; ++p) {
    __m256d total[kGroups];
    for (size_t g = 0; g < kGroups; ++g) total[g] = _mm256_setzero_pd();
    for (uint32_t m = csr.poly_offsets[p]; m < csr.poly_offsets[p + 1]; ++m) {
      const __m256d c = _mm256_set1_pd(csr.coefficients[m]);
      __m256d term[kGroups];
      for (size_t g = 0; g < kGroups; ++g) term[g] = c;
      for (uint32_t f = csr.mono_offsets[m]; f < csr.mono_offsets[m + 1];
           ++f) {
        const double* v = lanes + size_t{csr.factor_slots[f]} * kWidth;
        for (size_t g = 0; g < kGroups; ++g) {
          term[g] = _mm256_mul_pd(term[g],
                                  _mm256_loadu_pd(v + g * kAvx2Lanes));
        }
      }
      for (size_t g = 0; g < kGroups; ++g) {
        total[g] = _mm256_add_pd(total[g], term[g]);
      }
    }
    double values[kWidth];
    for (size_t g = 0; g < kGroups; ++g) {
      _mm256_storeu_pd(values + g * kAvx2Lanes, total[g]);
    }
    for (size_t j = 0; j < live; ++j) outs[j][p - poly_begin] = values[j];
  }
}

/// The 16-lane pass: EvalLanesAvx2's body over two 8-lane zmm groups.
/// Only reached after __builtin_cpu_supports("avx512f"), which also
/// checks that the OS saves ZMM state.
__attribute__((target("avx512f"))) void EvalLanesAvx512(
    const CompiledPolynomialSet::CsrView& csr, size_t poly_begin,
    size_t poly_end, const double* lanes, double* const* outs, size_t live) {
  constexpr size_t kWidth = kPassGroups * kAvx512Lanes;
  for (size_t p = poly_begin; p < poly_end; ++p) {
    __m512d total[kPassGroups];
    for (size_t g = 0; g < kPassGroups; ++g) total[g] = _mm512_setzero_pd();
    for (uint32_t m = csr.poly_offsets[p]; m < csr.poly_offsets[p + 1]; ++m) {
      const __m512d c = _mm512_set1_pd(csr.coefficients[m]);
      __m512d term[kPassGroups];
      for (size_t g = 0; g < kPassGroups; ++g) term[g] = c;
      for (uint32_t f = csr.mono_offsets[m]; f < csr.mono_offsets[m + 1];
           ++f) {
        const double* v = lanes + size_t{csr.factor_slots[f]} * kWidth;
        for (size_t g = 0; g < kPassGroups; ++g) {
          term[g] = _mm512_mul_pd(term[g],
                                  _mm512_loadu_pd(v + g * kAvx512Lanes));
        }
      }
      for (size_t g = 0; g < kPassGroups; ++g) {
        total[g] = _mm512_add_pd(total[g], term[g]);
      }
    }
    double values[kWidth];
    for (size_t g = 0; g < kPassGroups; ++g) {
      _mm512_storeu_pd(values + g * kAvx512Lanes, total[g]);
    }
    for (size_t j = 0; j < live; ++j) outs[j][p - poly_begin] = values[j];
  }
}
#endif  // PROVABS_EVAL_HAVE_SIMD

/// One pass of `kWidth` lanes: 16 run the AVX-512 kernel (only chosen
/// with AVX-512 lanes), 8 and 4 the AVX2 kernel with two and one groups,
/// or the scalar lanes when `kind` is scalar.
template <size_t kWidth>
void EvalPass([[maybe_unused]] SimdLanes kind,
              const CompiledPolynomialSet::CsrView& csr, size_t poly_begin,
              size_t poly_end, const double* lanes, double* const* outs,
              size_t live) {
#if defined(PROVABS_EVAL_HAVE_SIMD)
  if constexpr (kWidth == kPassGroups * kAvx512Lanes) {
    EvalLanesAvx512(csr, poly_begin, poly_end, lanes, outs, live);
    return;
  } else if (kind != SimdLanes::kScalar) {
    EvalLanesAvx2<kWidth / kAvx2Lanes>(csr, poly_begin, poly_end, lanes,
                                       outs, live);
    return;
  }
#endif
  EvalLanesScalar<kWidth>(csr, poly_begin, poly_end, lanes, outs, live);
}

SimdLanes CpuLanes() {
#if defined(PROVABS_EVAL_HAVE_SIMD)
  static const SimdLanes lanes =
      __builtin_cpu_supports("avx2") == 0      ? SimdLanes::kScalar
      : __builtin_cpu_supports("avx512f") == 0 ? SimdLanes::kAvx2
                                               : SimdLanes::kAvx512;
  return lanes;
#else
  return SimdLanes::kScalar;
#endif
}

}  // namespace

const char* SimdLanesName(SimdLanes lanes) {
  switch (lanes) {
    case SimdLanes::kAvx512:
      return "avx512";
    case SimdLanes::kAvx2:
      return "avx2";
    case SimdLanes::kScalar:
      break;
  }
  return "scalar";
}

SimdLanes SimdBatchLanes() {
  const char* env = std::getenv("PROVABS_EVAL_FORCE_SCALAR");
  if (env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0')) {
    return SimdLanes::kScalar;
  }
  return CpuLanes();
}

const EvaluationBackendInfo& SimdBatchBackend::info() const {
  // One lane group is the crossover. Through the serving evaluator on the
  // four servebench views with AVX2 lanes, the jit wins at widths 1-2 on
  // every view and at 3 on the Q10 view, and from width 4 simd_batch beats
  // it on the three large views and ties it on the Q10 view (CHANGES.md
  // has the table, AVX2 and scalar lanes). AVX-512 lanes change only
  // passes of more than eight scenarios.
  static const EvaluationBackendInfo kInfo{
      "simd_batch",
      "structure-of-arrays scenario lanes over the CSR arrays: 16 "
      "scenarios per walk with AVX-512, 8 with AVX2 and on tails of 8 or "
      "fewer (scalar lanes without either)",
      /*vectorized=*/true, /*deterministic=*/true,
      /*preferred_batch=*/kAvx2Lanes};
  return kInfo;
}

SimdLanes SimdBatchBackend::lanes() const {
  switch (mode_) {
    case Mode::kAuto:
      return SimdBatchLanes();
    case Mode::kForceAvx2:
      return std::min(SimdBatchLanes(), SimdLanes::kAvx2);
    case Mode::kForceScalar:
      break;
  }
  return SimdLanes::kScalar;
}

void SimdBatchBackend::DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                                       size_t poly_begin, size_t poly_end,
                                       const DenseValuation* const* scenarios,
                                       double* const* outs,
                                       size_t scenario_count) const {
  const CompiledPolynomialSet::CsrView csr = compiled.csr();
  const size_t slots = compiled.slot_count();
  const SimdLanes kind = lanes();
  // One SoA transpose buffer, refilled per pass: soa[slot * width + j]. A
  // pass takes the narrowest width of 4, 8 and 16 (16 only with AVX-512
  // lanes) that holds every scenario left, else the widest, so a tail of
  // eight or fewer takes the AVX2-shaped passes. A partial pass duplicates
  // its first scenario into the dead lanes (their outputs are discarded),
  // so the kernels never branch on lane liveness in the inner loops.
  const size_t max_width = kind == SimdLanes::kAvx512
                               ? kPassGroups * kAvx512Lanes
                               : kPassGroups * kAvx2Lanes;
  std::vector<double> soa(slots * max_width);
  for (size_t g = 0; g < scenario_count;) {
    const size_t left = scenario_count - g;
    size_t width = kAvx2Lanes;
    while (width < left && width < max_width) width *= 2;
    const size_t live = std::min(width, left);
    for (size_t j = 0; j < width; ++j) {
      const double* src = scenarios[g + (j < live ? j : 0)]->data();
      for (size_t slot = 0; slot < slots; ++slot) {
        soa[slot * width + j] = src[slot];
      }
    }
    switch (width) {
      case kPassGroups * kAvx512Lanes:
        EvalPass<kPassGroups * kAvx512Lanes>(kind, csr, poly_begin, poly_end,
                                             soa.data(), outs + g, live);
        break;
      case kPassGroups * kAvx2Lanes:
        EvalPass<kPassGroups * kAvx2Lanes>(kind, csr, poly_begin, poly_end,
                                           soa.data(), outs + g, live);
        break;
      default:
        EvalPass<kAvx2Lanes>(kind, csr, poly_begin, poly_end, soa.data(),
                             outs + g, live);
    }
    g += width;
  }
}

// ------------------------------------------------- registry -------------

EvaluationBackendRegistry& EvaluationBackendRegistry::Default() {
  static EvaluationBackendRegistry* registry = [] {
    auto* r = new EvaluationBackendRegistry();
    // The built-ins carry distinct hardcoded names; registration cannot
    // fail on a fresh registry.
    Status s = RegisterBuiltinEvaluationBackends(*r);
    (void)s;
    return r;
  }();
  return *registry;
}

Status EvaluationBackendRegistry::Register(
    std::unique_ptr<EvaluationBackend> backend) {
  if (backend == nullptr) {
    return Status::InvalidArgument("cannot register a null backend");
  }
  const std::string& name = backend->info().name;
  if (name.empty()) {
    return Status::InvalidArgument("backend name must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = by_name_.emplace(name, std::move(backend));
  (void)it;
  if (!inserted) {
    return Status::InvalidArgument("evaluation backend '" + name +
                                   "' is already registered");
  }
  return Status::OK();
}

const EvaluationBackend* EvaluationBackendRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second.get();
}

StatusOr<const EvaluationBackend*> EvaluationBackendRegistry::Resolve(
    const std::string& name) const {
  const EvaluationBackend* backend = Find(name);
  if (backend == nullptr) {
    return Status::InvalidArgument("unknown evaluation backend '" + name +
                                   "' (registered: " + NamesCsv() + ")");
  }
  return backend;
}

StatusOr<const EvaluationBackend*> EvaluationBackendRegistry::ResolveForBatch(
    const std::string& name, size_t batch_size,
    const CompiledPolynomialSet* snapshot) const {
  if (!name.empty()) return Resolve(name);
  std::lock_guard<std::mutex> lock(mutex_);
  if (by_name_.empty()) {
    return Status::InvalidArgument("no evaluation backends registered");
  }
  auto available = [this](const char* key) -> const EvaluationBackend* {
    auto it = by_name_.find(key);
    return it != by_name_.end() && it->second->Available() ? it->second.get()
                                                           : nullptr;
  };
  const EvaluationBackend* simd = available("simd_batch");
  const bool wide =
      simd != nullptr && batch_size >= simd->info().preferred_batch;
  // Scalar lanes trail the jit on sets under kScalarLaneMinMonomials, so
  // there the jit serves and counts wide calls too.
  if (wide &&
      (snapshot == nullptr || SimdBatchLanes() != SimdLanes::kScalar ||
       snapshot->monomial_count() >= kScalarLaneMinMonomials)) {
    return simd;
  }
  const EvaluationBackend* jit = available("jit");
  if (jit != nullptr && batch_size > 0 &&
      (snapshot == nullptr || snapshot->interpreted_scenarios() >=
                                  jit->info().break_even_scenarios)) {
    return jit;
  }
  if (snapshot != nullptr) snapshot->CountInterpretedScenarios(batch_size);
  if (wide) return simd;
  auto it = by_name_.find("compiled");
  return it != by_name_.end() ? it->second.get()
                              : by_name_.begin()->second.get();
}

std::vector<std::string> EvaluationBackendRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(by_name_.size());
  for (const auto& [name, backend] : by_name_) names.push_back(name);
  return names;  // std::map iterates in sorted order.
}

std::vector<EvaluationBackendInfo> EvaluationBackendRegistry::Infos() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<EvaluationBackendInfo> infos;
  infos.reserve(by_name_.size());
  for (const auto& [name, backend] : by_name_) {
    infos.push_back(backend->info());
  }
  return infos;
}

std::string EvaluationBackendRegistry::NamesCsv() const {
  std::vector<std::string> names = Names();
  std::string csv;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) csv += ", ";
    csv += names[i];
  }
  return csv;
}

Status RegisterBuiltinEvaluationBackends(
    EvaluationBackendRegistry& registry) {
  Status s = registry.Register(std::make_unique<NaiveBackend>());
  if (!s.ok()) return s;
  s = registry.Register(std::make_unique<CompiledBackend>());
  if (!s.ok()) return s;
  s = registry.Register(std::make_unique<SimdBatchBackend>());
  if (!s.ok()) return s;
  return registry.Register(MakeJitBackend());
}

}  // namespace provabs
