#include "core/evaluation_backend.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/macros.h"
#include "core/polynomial_set.h"
#include "core/valuation.h"
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
        /*vectorized=*/false, /*deterministic=*/true, /*preferred_batch=*/1,
        /*tier=*/0};
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
            const double v = values[csr.factor_slots[f]];
            for (uint32_t e = 0; e < csr.factor_exps[f]; ++e) term *= v;
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
        /*vectorized=*/false, /*deterministic=*/true, /*preferred_batch=*/1,
        /*tier=*/1};
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

/// Lane width of the SoA layout: one AVX2 register of doubles. The scalar
/// fallback keeps the identical 4-lane structure (and is compiled
/// unconditionally), so a scalar-forced differential run still covers the
/// vector path's transpose/lane/remainder logic.
constexpr size_t kLaneWidth = 4;

/// Evaluates polynomials [poly_begin, poly_end) for one lane group.
/// `lanes` is the SoA transpose (lanes[slot * kLaneWidth + j] = slot value
/// of lane j); `outs[j]` receives lane j's values indexed from the range
/// start; only the first `live` lanes are written (remainder groups pad
/// with duplicated scenarios whose outputs are discarded).
///
/// Per lane this performs exactly the canonical operation sequence —
/// term = coefficient, term *= value (exponent times), total += term — so
/// every lane is bitwise identical to the scalar paths. No FMA: mul and
/// add stay separate operations in both implementations.
void EvalLaneGroupScalar(const CompiledPolynomialSet::CsrView& csr,
                         size_t poly_begin, size_t poly_end,
                         const double* lanes, double* const* outs,
                         size_t live) {
  for (size_t p = poly_begin; p < poly_end; ++p) {
    double total[kLaneWidth] = {0.0, 0.0, 0.0, 0.0};
    for (uint32_t m = csr.poly_offsets[p]; m < csr.poly_offsets[p + 1]; ++m) {
      const double c = csr.coefficients[m];
      double term[kLaneWidth] = {c, c, c, c};
      for (uint32_t f = csr.mono_offsets[m]; f < csr.mono_offsets[m + 1];
           ++f) {
        const double* v = lanes + size_t{csr.factor_slots[f]} * kLaneWidth;
        for (uint32_t e = 0; e < csr.factor_exps[f]; ++e) {
          for (size_t j = 0; j < kLaneWidth; ++j) term[j] *= v[j];
        }
      }
      for (size_t j = 0; j < kLaneWidth; ++j) total[j] += term[j];
    }
    for (size_t j = 0; j < live; ++j) outs[j][p - poly_begin] = total[j];
  }
}

#if defined(PROVABS_EVAL_X86) && defined(__GNUC__)
#define PROVABS_EVAL_HAVE_AVX2 1

/// AVX2 twin of EvalLaneGroupScalar: one vmulpd/vaddpd per lane-group
/// operation. Per-element IEEE-754 semantics of packed mul/add are
/// identical to scalar mul/add (and intrinsics never contract into FMA),
/// so the bits match the scalar paths exactly. Compiled with a function-
/// level target attribute so the rest of the binary stays baseline-ISA;
/// only reached after __builtin_cpu_supports("avx2") at runtime.
__attribute__((target("avx2"))) void EvalLaneGroupAvx2(
    const CompiledPolynomialSet::CsrView& csr, size_t poly_begin,
    size_t poly_end, const double* lanes, double* const* outs, size_t live) {
  for (size_t p = poly_begin; p < poly_end; ++p) {
    __m256d total = _mm256_setzero_pd();
    for (uint32_t m = csr.poly_offsets[p]; m < csr.poly_offsets[p + 1]; ++m) {
      __m256d term = _mm256_set1_pd(csr.coefficients[m]);
      for (uint32_t f = csr.mono_offsets[m]; f < csr.mono_offsets[m + 1];
           ++f) {
        const __m256d v = _mm256_loadu_pd(
            lanes + size_t{csr.factor_slots[f]} * kLaneWidth);
        for (uint32_t e = 0; e < csr.factor_exps[f]; ++e) {
          term = _mm256_mul_pd(term, v);
        }
      }
      total = _mm256_add_pd(total, term);
    }
    double values[kLaneWidth];
    _mm256_storeu_pd(values, total);
    for (size_t j = 0; j < live; ++j) outs[j][p - poly_begin] = values[j];
  }
}
#endif  // PROVABS_EVAL_HAVE_AVX2

bool CpuHasAvx2() {
#if defined(PROVABS_EVAL_HAVE_AVX2)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

}  // namespace

bool SimdBatchAvx2Active() {
  const char* env = std::getenv("PROVABS_EVAL_FORCE_SCALAR");
  if (env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0')) {
    return false;
  }
  return CpuHasAvx2();
}

const EvaluationBackendInfo& SimdBatchBackend::info() const {
  static const EvaluationBackendInfo kInfo{
      "simd_batch",
      "structure-of-arrays scenario lanes over the CSR arrays "
      "(AVX2 when available, scalar lanes otherwise)",
      /*vectorized=*/true, /*deterministic=*/true, /*preferred_batch=*/8,
      /*tier=*/2};
  return kInfo;
}

bool SimdBatchBackend::using_avx2() const {
  return mode_ == Mode::kAuto && SimdBatchAvx2Active();
}

void SimdBatchBackend::DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                                       size_t poly_begin, size_t poly_end,
                                       const DenseValuation* const* scenarios,
                                       double* const* outs,
                                       size_t scenario_count) const {
  const CompiledPolynomialSet::CsrView csr = compiled.csr();
  const size_t slots = compiled.slot_count();
#if defined(PROVABS_EVAL_HAVE_AVX2)
  const bool avx2 = using_avx2();
#endif
  // One SoA transpose buffer, refilled per lane group: lanes[slot*W + j].
  // Remainder groups duplicate the group's first scenario into the dead
  // lanes (their outputs are discarded), so the kernels never branch on
  // lane liveness in the inner loops.
  std::vector<double> lanes(slots * kLaneWidth);
  for (size_t g = 0; g < scenario_count; g += kLaneWidth) {
    const size_t live = std::min(kLaneWidth, scenario_count - g);
    for (size_t j = 0; j < kLaneWidth; ++j) {
      const double* src = scenarios[g + (j < live ? j : 0)]->data();
      for (size_t slot = 0; slot < slots; ++slot) {
        lanes[slot * kLaneWidth + j] = src[slot];
      }
    }
    double* group_outs[kLaneWidth] = {nullptr, nullptr, nullptr, nullptr};
    for (size_t j = 0; j < live; ++j) group_outs[j] = outs[g + j];
#if defined(PROVABS_EVAL_HAVE_AVX2)
    if (avx2) {
      EvalLaneGroupAvx2(csr, poly_begin, poly_end, lanes.data(), group_outs,
                        live);
      continue;
    }
#endif
    EvalLaneGroupScalar(csr, poly_begin, poly_end, lanes.data(), group_outs,
                        live);
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
  const uint64_t served = snapshot != nullptr
                              ? snapshot->interpreted_scenarios()
                              : std::numeric_limits<uint64_t>::max();
  // Highest available tier among backends that already pay off at this
  // batch size: jit > simd_batch > compiled > naive with the built-ins.
  // (The old policy considered only vectorized backends, which would
  // leave the jit tier unreachable by auto-routing.) Ties break toward
  // the larger preferred width, then the lexicographically smallest name,
  // so routing never depends on map iteration order of future backends.
  const EvaluationBackend* best = nullptr;
  const std::string* best_name = nullptr;
  for (const auto& [key, backend] : by_name_) {
    const EvaluationBackendInfo& info = backend->info();
    if (info.preferred_batch > batch_size ||
        info.break_even_scenarios > served || !backend->Available()) {
      continue;
    }
    if (best == nullptr) {
      best = backend.get();
      best_name = &key;
      continue;
    }
    const EvaluationBackendInfo& incumbent = best->info();
    if (info.tier != incumbent.tier) {
      if (info.tier > incumbent.tier) {
        best = backend.get();
        best_name = &key;
      }
      continue;
    }
    if (info.preferred_batch != incumbent.preferred_batch) {
      if (info.preferred_batch > incumbent.preferred_batch) {
        best = backend.get();
        best_name = &key;
      }
      continue;
    }
    if (key < *best_name) {
      best = backend.get();
      best_name = &key;
    }
  }
  if (best == nullptr) {
    auto it = by_name_.find("compiled");
    best = it != by_name_.end() ? it->second.get()
                                : by_name_.begin()->second.get();
  }
  if (snapshot != nullptr && best->info().break_even_scenarios == 0) {
    snapshot->CountInterpretedScenarios(batch_size);
  }
  return best;
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

// ------------------------------------------------- convenience ----------

StatusOr<std::vector<std::vector<double>>> EvaluateScenarios(
    const PolynomialSet& polys, const std::vector<Valuation>& scenarios,
    const std::string& backend_name,
    const EvaluationBackendRegistry* registry) {
  const EvaluationBackendRegistry& reg =
      registry != nullptr ? *registry : EvaluationBackendRegistry::Default();
  StatusOr<const EvaluationBackend*> backend =
      reg.ResolveForBatch(backend_name, scenarios.size());
  if (!backend.ok()) return backend.status();

  std::shared_ptr<const CompiledPolynomialSet> compiled = polys.Compiled();
  const size_t n = scenarios.size();
  std::vector<std::vector<double>> out(
      n, std::vector<double>(compiled->poly_count()));
  std::vector<DenseValuation> dense;
  dense.reserve(n);
  std::vector<const DenseValuation*> dense_ptrs(n);
  std::vector<double*> out_ptrs(n);
  for (size_t s = 0; s < n; ++s) {
    dense.push_back(compiled->MaterializeValuation(scenarios[s]));
    dense_ptrs[s] = &dense[s];
    out_ptrs[s] = out[s].data();
  }
  Status status =
      (*backend)->EvaluateBatch(*compiled, 0, compiled->poly_count(),
                                dense_ptrs.data(), out_ptrs.data(), n);
  if (!status.ok()) return status;
  return out;
}

}  // namespace provabs
