/// Evaluation-kernel comparison: the scenario-evaluation hot path (the
/// operation Fig. 10's speedups are measured over) run three ways on the
/// standard workloads —
///   naive     : per-polynomial Valuation::Evaluate (pointer-chased nested
///               vectors, one hash probe per factor),
///   compiled  : CompiledPolynomialSet CSR arrays + DenseValuation (flat
///               sequential walks, one hash probe per distinct variable
///               per scenario),
///   parallel  : the serving evaluator (EvaluateBatcher) over a ThreadPool,
///               auto-routed on the artifact's snapshot; it splits a call
///               across the pool only above EvaluateBatcher::kSplitWork
///               scenarios × monomials, so these width-1 calls run on the
///               calling thread (bench_parallel_scaling times the split).
/// All three produce bitwise-identical values (asserted per scenario); the
/// driver exits nonzero on any mismatch, so the bench smoke CI step doubles
/// as an end-to-end equivalence check. Compile cost is reported separately:
/// it is paid once per artifact and amortized over every scenario.
///
/// A second, batched arm then runs the WHOLE scenario batch through every
/// registered evaluation backend (core/evaluation_backend.h) in one
/// EvaluateBatch call, asserts bitwise identity against the naive results,
/// and reports each backend's throughput ratio over the single-scenario
/// compiled loop as machine-parsable lines:
///
///   BATCHSTAT workload=<w> backend=<name> batch=<n> seconds=<t> ratio=<r>
///
/// Each backend runs one bit-checked batch before the timed rounds, so the
/// jit's line is its steady state and excludes the code emission.
///
/// The simd_batch ratio must not fall below 1.0x: a vectorized backend
/// slower than the scalar loop it batches is a regression even at smoke
/// scale. The floor is a same-run ratio, so it holds on any machine and the
/// driver enforces it through its exit code.
///
/// A third, jit arm re-runs the SINGLE-scenario sweep through the "jit"
/// backend (one EvaluateBatch of batch 1 per scenario — the shape
/// Valuation::EvaluateAll routes), bit-checked like the others, reporting
///
///   JITSTAT workload=<w> mode=native|fallback emit_ms=<ms> seconds=<t>
///           ratio=<r>
///
/// where ratio is over the same compiled-loop denominator and emit_ms is
/// the one-time code-emission cost (paid once per artifact, amortized like
/// compile cost), measured on a fresh cache. Native code must not fall
/// below 1.0x the compiled loop it replaces; the floor applies to
/// mode=native lines only, because a fallback line measures the compiled
/// kernel against itself plus dispatch overhead, so NOJIT-forced or
/// exec-restricted hosts skip it cleanly.
///
/// The compiled loop (each scenario materialized and run through the
/// compiled kernel, one at a time) is timed in the same interleaved rounds
/// as the batched and jit arms' calls, so seconds is the median over the
/// rounds and ratio the median of the per-round ratios.
///
/// A fourth, routing arm times every registered backend at width 1 (one
/// call per scenario) and at the batched arm's width (one call for every
/// scenario), on the artifact's snapshot past the jit break-even, against
/// the backend auto-routing picks for that width on that snapshot:
///
///   ROUTESTAT workload=<w> batch=<n> auto=<name> best=<name>
///             best_over_auto=<r>
///
/// where best is the backend with the lowest median time over nine
/// interleaved rounds, and best_over_auto is the median over the rounds of
/// best's time over auto's. It must not fall below kRoutingFloor:
/// auto-routing may be at most 1.5x slower than the fastest backend at
/// either width.
///
/// A fifth, lane arm times simd_batch on the same scenarios as one call of
/// the batched arm's width (passes of two lane groups: 16 + 16 + 8 lanes
/// for 40 scenarios with AVX-512 lanes, five passes of 8 with AVX2 or
/// scalar lanes) and as calls of one lane group each (one-group passes):
///
///   LANESTAT workload=<w> batch=<n> group=<g> wide_us=<t> grouped_us=<t>
///            ratio=<r>
///
/// where wide_us and grouped_us are medians over nine interleaved rounds
/// and ratio is the median over the rounds of grouped_us over wide_us. It
/// must not fall below kLaneFloor: two independent accumulator chains per
/// CSR walk must keep paying for themselves.
///
/// A sixth, lane-kind arm runs where simd_batch's lanes are AVX-512: the
/// auto instance against one pinned to AVX2 lanes, one call each on the
/// same scenarios, both bit-checked:
///
///   KINDSTAT workload=<w> batch=<n> lanes=avx512 pinned=avx2
///            lanes_us=<t> pinned_us=<t> ratio=<r>
///
/// with medians as in the lane arm and ratio = pinned_us over lanes_us.
/// It must not fall below kKindFloor: the 16-lane pass must not lose to
/// the AVX2 passes it replaces.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/compiled_polynomial_set.h"
#include "core/evaluation_backend.h"
#include "core/valuation.h"
#include "jit/jit_backend.h"
#include "parallel/thread_pool.h"
#include "server/evaluate_batcher.h"

namespace provabs::bench {
namespace {

constexpr int kScenarios = 40;
/// Same-run floor of the simd_batch and native jit ratios over the
/// compiled loop. Five smoke-scale runs on a 4-vCPU Xeon VM measured
/// 3.84-6.91x (simd_batch) and 2.55-4.95x (jit).
constexpr double kBackendFloor = 1.0;
/// Same-run floor of ROUTESTAT's best_over_auto. Five smoke-scale and five
/// full-scale runs per lane implementation on the same VM measured 1.00 on
/// every line but one: 0.87-0.93 for simd_batch against the jit at width
/// 40 on the 151-monomial smoke-scale Q10 set with AVX2 lanes.
constexpr double kRoutingFloor = 0.67;
/// Same-run floor of LANESTAT's ratio. With one lane group per pass the
/// ratio read 0.93-1.21 on the same VM, and with two groups per pass
/// 1.26-1.83, at smoke and full scale with either lane implementation.
constexpr double kLaneFloor = 1.2;
/// Same-run floor of KINDSTAT's ratio: the 16-lane pass must not lose to
/// the AVX2 passes. Thirteen smoke-scale and eleven full-scale runs on the
/// same VM measured 1.13-1.46 and 1.16-1.69, lowest on the Q10 set.
constexpr double kKindFloor = 1.0;

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One scenario per seed, assigning both parameter families (plans+months /
/// suppliers+parts) — the Fig. 10 interaction pattern.
Valuation MakeScenario(const Workload& w, uint64_t seed) {
  Rng rng(seed);
  Valuation val;
  for (VariableId v : w.tree_leaves) val.Set(v, rng.UniformReal(0.5, 1.5));
  for (VariableId v : w.other_leaves) val.Set(v, rng.UniformReal(0.5, 1.5));
  return val;
}

/// The scenarios materialized against one compiled form, with one output
/// row per scenario: the pointer arrays EvaluateBatch takes.
struct DenseBatch {
  DenseBatch(const CompiledPolynomialSet& compiled,
             const std::vector<Valuation>& scenarios)
      : out(scenarios.size(), std::vector<double>(compiled.poly_count())) {
    dense.reserve(scenarios.size());
    for (const Valuation& val : scenarios) {
      dense.push_back(compiled.MaterializeValuation(val));
    }
    for (size_t s = 0; s < scenarios.size(); ++s) {
      dense_ptrs.push_back(&dense[s]);
      out_ptrs.push_back(out[s].data());
    }
  }
  // The pointer arrays point into this object's own vectors.
  DenseBatch(const DenseBatch&) = delete;
  DenseBatch& operator=(const DenseBatch&) = delete;

  /// Evaluates scenarios [first, first + count) in one call.
  Status Run(const EvaluationBackend& backend,
             const CompiledPolynomialSet& compiled, size_t first,
             size_t count) {
    return backend.EvaluateBatch(compiled, 0, compiled.poly_count(),
                                 dense_ptrs.data() + first,
                                 out_ptrs.data() + first, count);
  }

  /// Evaluates every scenario in calls of `width` (the last may be
  /// narrower); true when every call succeeded.
  bool RunInCalls(const EvaluationBackend& backend,
                  const CompiledPolynomialSet& compiled, size_t width) {
    bool ok = true;
    for (size_t s = 0; s < dense.size(); s += width) {
      ok &= Run(backend, compiled, s, std::min(width, dense.size() - s)).ok();
    }
    return ok;
  }

  std::vector<DenseValuation> dense;
  std::vector<const DenseValuation*> dense_ptrs;
  std::vector<std::vector<double>> out;
  std::vector<double*> out_ptrs;
};

/// Times every call in `calls` in nine rounds of one sample each, about
/// 10 ms per sample, after one untimed probe of each call that sets its
/// repetitions. A burst of host noise then lands in one round, where it
/// moves one sample of every call, not all samples of one call. Returns
/// µs per call, samples[round][call].
std::vector<std::vector<double>> InterleavedSamplesUs(
    const std::vector<std::function<void()>>& calls) {
  std::vector<int> reps;
  for (const std::function<void()>& call : calls) {
    Timer once;
    call();
    const double first_s = std::max(once.ElapsedSeconds(), 1e-7);
    reps.push_back(static_cast<int>(std::clamp(0.01 / first_s, 1.0, 1e5)));
  }
  std::vector<std::vector<double>> samples(9);
  for (std::vector<double>& round : samples) {
    for (size_t c = 0; c < calls.size(); ++c) {
      Timer t;
      for (int r = 0; r < reps[c]; ++r) calls[c]();
      round.push_back(t.ElapsedSeconds() * 1e6 / reps[c]);
    }
  }
  return samples;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// The median over rounds of call `c`'s time, in µs.
double MedianUs(const std::vector<std::vector<double>>& samples, size_t c) {
  std::vector<double> values;
  for (const std::vector<double>& round : samples) values.push_back(round[c]);
  return Median(std::move(values));
}

/// The median over rounds of call `num`'s time over call `den`'s.
double MedianRatio(const std::vector<std::vector<double>>& samples,
                   size_t num, size_t den) {
  std::vector<double> values;
  for (const std::vector<double>& round : samples) {
    values.push_back(round[den] > 0 ? round[num] / round[den] : 0.0);
  }
  return Median(std::move(values));
}

/// Runs the whole batch through `backend` in one call and bit-checks every
/// scenario against the naive results; false (after printing why) on an
/// error or a mismatch.
bool RunAndCheck(const Workload& w, const EvaluationBackend& backend,
                 const std::string& label,
                 const CompiledPolynomialSet& compiled, DenseBatch& batch,
                 const std::vector<std::vector<double>>& naive_results) {
  const size_t n = batch.dense.size();
  Status status = batch.Run(backend, compiled, 0, n);
  if (!status.ok()) {
    std::printf("BATCH ERROR %s/%s: %s\n", w.name.c_str(), label.c_str(),
                status.ToString().c_str());
    return false;
  }
  bool all_equal = true;
  for (size_t s = 0; s < n; ++s) {
    if (!BitwiseEqual(naive_results[s], batch.out[s])) {
      std::printf("BATCH MISMATCH in %s backend=%s scenario %zu\n",
                  w.name.c_str(), label.c_str(), s);
      all_equal = false;
    }
  }
  return all_equal;
}

/// The batched arm: the whole scenario batch through each registered
/// backend in single EvaluateBatch calls, bit-checked against the naive
/// results, then timed in interleaved rounds with `compiled_loop`, the
/// single-scenario compiled loop over the same scenarios (the ratio's
/// denominator).
bool RunBatchedArm(const Workload& w,
                   const CompiledPolynomialSet& compiled, DenseBatch& batch,
                   const std::vector<std::vector<double>>& naive_results,
                   const std::function<void()>& compiled_loop,
                   bool* floors_hold) {
  const size_t n = batch.dense.size();
  const EvaluationBackendRegistry& registry =
      EvaluationBackendRegistry::Default();
  const std::vector<std::string> names = registry.Names();
  // The bit-checked batch also emits the jit's code for this snapshot, so
  // the timed rounds are the steady state; the jit and routing arms leave
  // emission out of their timings too.
  bool all_equal = true;
  bool ok = true;
  std::vector<std::function<void()>> calls = {compiled_loop};
  for (const std::string& name : names) {
    const EvaluationBackend* backend = registry.Find(name);
    all_equal &= RunAndCheck(w, *backend, name, compiled, batch, naive_results);
    calls.push_back(
        [&, backend] { ok &= batch.Run(*backend, compiled, 0, n).ok(); });
  }
  const std::vector<std::vector<double>> samples = InterleavedSamplesUs(calls);
  if (!ok) {
    std::printf("BATCH ERROR %s\n", w.name.c_str());
    return false;
  }
  for (size_t b = 0; b < names.size(); ++b) {
    const double ratio = MedianRatio(samples, 0, b + 1);
    std::printf(
        "BATCHSTAT workload=%s backend=%s batch=%zu seconds=%.6f "
        "ratio=%.2f\n",
        w.name.c_str(), names[b].c_str(), n, MedianUs(samples, b + 1) * 1e-6,
        ratio);
    if (names[b] == "simd_batch") {
      *floors_hold &= RatioFloorHolds(("simd_batch " + w.name).c_str(),
                                      ratio, kBackendFloor);
    }
  }
  return all_equal;
}

/// The jit arm: the single-scenario sweep through the "jit" backend, one
/// batch-of-1 EvaluateBatch per scenario, bit-checked against naive, then
/// timed in interleaved rounds with `compiled_loop`. A local backend
/// instance exposes the native/fallback decision through its stats, and
/// its private code cache makes the first batch a fresh emission even
/// though the parallel arm already filled the process-wide cache for this
/// artifact.
bool RunJitArm(const Workload& w, const CompiledPolynomialSet& compiled,
               const DenseBatch& batch,
               const std::vector<std::vector<double>>& naive_results,
               const std::function<void()>& compiled_loop,
               bool* floors_hold) {
  const size_t poly_count = compiled.poly_count();
  const size_t n = batch.dense.size();
  const std::vector<DenseValuation>& dense = batch.dense;
  jit::JitCodeCache cache(jit::JitCodeCache::kDefaultByteBudget);
  JitBackend jit(JitBackend::Mode::kAuto, &cache);
  std::vector<double> out(poly_count);
  auto run_one = [&](size_t s) {
    const DenseValuation* scenario = &dense[s];
    double* out_ptr = out.data();
    return jit.EvaluateBatch(compiled, 0, poly_count, &scenario, &out_ptr, 1);
  };

  // The first batch pays the one-time emission (always a miss in the
  // private cache); report it apart so the steady-state ratio reflects the
  // amortized serving cost.
  Timer emit_timer;
  Status status = run_one(0);
  const double emit_ms = emit_timer.ElapsedMillis();
  bool all_equal = true;
  for (size_t s = 0; s < n && status.ok(); ++s) {
    status = run_one(s);
    if (status.ok() && !BitwiseEqual(naive_results[s], out)) {
      std::printf("JIT MISMATCH in %s scenario %zu\n", w.name.c_str(), s);
      all_equal = false;
    }
  }
  bool ok = status.ok();
  const std::vector<std::vector<double>> samples =
      ok ? InterleavedSamplesUs({compiled_loop,
                                 [&] {
                                   for (size_t s = 0; s < n; ++s) {
                                     ok &= run_one(s).ok();
                                   }
                                 }})
         : std::vector<std::vector<double>>{};
  if (!ok) {
    std::printf("JIT ERROR %s\n", w.name.c_str());
    return false;
  }

  const JitBackend::Stats stats = jit.stats();
  const bool native = stats.native_batches > 0 && stats.fallback_forced == 0 &&
                      stats.fallback_no_exec_mem == 0 &&
                      stats.fallback_emit_failed == 0;
  const double ratio = MedianRatio(samples, 0, 1);
  std::printf(
      "JITSTAT workload=%s mode=%s emit_ms=%.3f seconds=%.6f ratio=%.2f\n",
      w.name.c_str(), native ? "native" : "fallback", emit_ms,
      MedianUs(samples, 1) * 1e-6, ratio);
  if (native) {
    *floors_hold &=
        RatioFloorHolds(("jit " + w.name).c_str(), ratio, kBackendFloor);
  }
  return all_equal;
}

/// The routing arm: at width 1 and at the batched arm's width, every
/// registered backend against the one auto-routing picks on `compiled`
/// once that snapshot is past the jit break-even, timed in interleaved
/// rounds.
bool RunRoutingArm(const Workload& w, const CompiledPolynomialSet& compiled,
                   DenseBatch& batch, bool* floors_hold) {
  const size_t n = batch.dense.size();
  compiled.CountInterpretedScenarios(kJitBreakEvenScenarios);

  const EvaluationBackendRegistry& registry =
      EvaluationBackendRegistry::Default();
  const std::vector<std::string> names = registry.Names();
  for (size_t width : {size_t{1}, n}) {
    // Width 1 runs one call per scenario; the first sweep (which emits jit
    // code) is the untimed probe.
    bool ok = true;
    std::vector<std::function<void()>> calls;
    for (const std::string& name : names) {
      const EvaluationBackend* backend = registry.Find(name);
      calls.push_back(
          [&, backend] { ok &= batch.RunInCalls(*backend, compiled, width); });
    }
    const std::vector<std::vector<double>> samples =
        InterleavedSamplesUs(calls);
    if (!ok) {
      std::printf("ROUTE ERROR %s\n", w.name.c_str());
      return false;
    }
    StatusOr<const EvaluationBackend*> chosen =
        registry.ResolveForBatch("", width, &compiled);
    if (!chosen.ok()) return false;
    const size_t auto_at =
        std::find(names.begin(), names.end(), (*chosen)->info().name) -
        names.begin();
    size_t best_at = 0;
    for (size_t b = 0; b < names.size(); ++b) {
      if (MedianUs(samples, b) < MedianUs(samples, best_at)) best_at = b;
    }
    const double ratio = MedianRatio(samples, best_at, auto_at);
    std::printf(
        "ROUTESTAT workload=%s batch=%zu auto=%s best=%s "
        "best_over_auto=%.2f\n",
        w.name.c_str(), width, names[auto_at].c_str(), names[best_at].c_str(),
        ratio);
    *floors_hold &= RatioFloorHolds(
        ("routing " + w.name + " batch " + std::to_string(width)).c_str(),
        ratio, kRoutingFloor);
  }
  return true;
}

/// The lane arm: simd_batch over the same scenarios as one wide call and
/// as calls of one lane group each, timed in interleaved rounds.
bool RunLaneArm(const Workload& w, const CompiledPolynomialSet& compiled,
                DenseBatch& batch, bool* floors_hold) {
  const EvaluationBackend* simd =
      EvaluationBackendRegistry::Default().Find("simd_batch");
  const size_t n = batch.dense.size();
  const size_t group = simd->info().preferred_batch;
  bool ok = true;
  const std::vector<std::vector<double>> samples = InterleavedSamplesUs(
      {[&] { ok &= batch.RunInCalls(*simd, compiled, n); },
       [&] { ok &= batch.RunInCalls(*simd, compiled, group); }});
  if (!ok) {
    std::printf("LANE ERROR %s\n", w.name.c_str());
    return false;
  }
  const double ratio = MedianRatio(samples, 1, 0);
  std::printf(
      "LANESTAT workload=%s batch=%zu group=%zu wide_us=%.3f "
      "grouped_us=%.3f ratio=%.2f\n",
      w.name.c_str(), n, group, MedianUs(samples, 0), MedianUs(samples, 1),
      ratio);
  *floors_hold &=
      RatioFloorHolds(("lanes " + w.name).c_str(), ratio, kLaneFloor);
  return true;
}

/// The lane-kind arm, where simd_batch runs AVX-512 lanes: the auto
/// instance against one pinned to AVX2 lanes, one bit-checked call each on
/// the same scenarios, then timed in interleaved rounds.
bool RunLaneKindArm(const Workload& w, const CompiledPolynomialSet& compiled,
                    DenseBatch& batch,
                    const std::vector<std::vector<double>>& naive_results,
                    bool* floors_hold) {
  const SimdBatchBackend lanes(SimdBatchBackend::Mode::kAuto);
  const SimdBatchBackend pinned(SimdBatchBackend::Mode::kForceAvx2);
  if (lanes.lanes() != SimdLanes::kAvx512) return true;
  const char* lanes_name = SimdLanesName(lanes.lanes());
  const char* pinned_name = SimdLanesName(pinned.lanes());
  if (!RunAndCheck(w, lanes, std::string("simd_batch(") + lanes_name + ")",
                   compiled, batch, naive_results) ||
      !RunAndCheck(w, pinned, std::string("simd_batch(") + pinned_name + ")",
                   compiled, batch, naive_results)) {
    return false;
  }
  const size_t n = batch.dense.size();
  bool ok = true;
  const std::vector<std::vector<double>> samples = InterleavedSamplesUs(
      {[&] { ok &= batch.Run(lanes, compiled, 0, n).ok(); },
       [&] { ok &= batch.Run(pinned, compiled, 0, n).ok(); }});
  if (!ok) {
    std::printf("KIND ERROR %s\n", w.name.c_str());
    return false;
  }
  const double ratio = MedianRatio(samples, 1, 0);
  std::printf(
      "KINDSTAT workload=%s batch=%zu lanes=%s pinned=%s lanes_us=%.3f "
      "pinned_us=%.3f ratio=%.2f\n",
      w.name.c_str(), n, lanes_name, pinned_name, MedianUs(samples, 0),
      MedianUs(samples, 1), ratio);
  *floors_hold &=
      RatioFloorHolds(("lane kind " + w.name).c_str(), ratio, kKindFloor);
  return true;
}

bool Run() {
  PrintHeader("Evaluate kernel: naive vs compiled vs compiled+parallel");
  const size_t threads = std::thread::hardware_concurrency();
  ThreadPool pool(threads);
  std::printf("scenarios per workload: %d; pool threads: %zu\n", kScenarios,
              threads);
  std::printf("MACHINEKEY cpu=%s\n", CpuModel().c_str());
  std::printf("SIMDLANES %s\n", SimdLanesName(SimdBatchLanes()));
  std::printf("%-16s %7s %10s %12s %11s %11s %11s %9s %9s\n", "workload",
              "polys", "monomials", "compile[ms]", "naive[s]", "compiled[s]",
              "parallel[s]", "speedup", "par-spdup");

  bool all_equal = true;
  bool floors_hold = true;
  for (Workload& w : StandardWorkloads()) {
    // Compile once (cached on the set afterwards — the artifact-resident
    // situation the server maintains).
    Timer compile_timer;
    std::shared_ptr<const CompiledPolynomialSet> compiled = w.polys.Compiled();
    const double compile_ms = compile_timer.ElapsedMillis();
    auto shared = std::make_shared<const PolynomialSet>(w.polys);
    EvaluateBatcher evaluator(pool);

    double t_naive = 0, t_compiled = 0, t_parallel = 0;
    std::vector<Valuation> scenarios;
    std::vector<std::vector<double>> naive_results;
    scenarios.reserve(kScenarios);
    naive_results.reserve(kScenarios);
    for (int s = 0; s < kScenarios; ++s) {
      const Valuation val = MakeScenario(w, 9000 + s);

      Timer t1;
      std::vector<double> naive;
      naive.reserve(w.polys.count());
      for (const Polynomial& p : w.polys.polynomials()) {
        naive.push_back(val.Evaluate(p));
      }
      t_naive += t1.ElapsedSeconds();

      Timer t2;
      const DenseValuation dense = compiled->MaterializeValuation(val);
      std::vector<double> fast = compiled->EvaluateAll(dense);
      t_compiled += t2.ElapsedSeconds();

      Timer t3;
      std::vector<double> par = *evaluator.Evaluate(shared, val);
      t_parallel += t3.ElapsedSeconds();

      if (!BitwiseEqual(naive, fast) || !BitwiseEqual(naive, par)) {
        std::printf("MISMATCH in %s scenario %d\n", w.name.c_str(), s);
        all_equal = false;
      }
      scenarios.push_back(val);
      naive_results.push_back(std::move(naive));
    }

    std::printf("%-16s %7zu %10zu %12.3f %11.5f %11.5f %11.5f %8.2fx %8.2fx\n",
                w.name.c_str(), w.polys.count(), w.polys.SizeM(), compile_ms,
                t_naive, t_compiled, t_parallel,
                t_compiled > 0 ? t_naive / t_compiled : 0.0,
                t_parallel > 0 ? t_naive / t_parallel : 0.0);

    DenseBatch batch(*compiled, scenarios);
    // The denominator of the BATCHSTAT and JITSTAT ratios: the compiled
    // column's loop, re-run inside each arm's interleaved rounds.
    const std::function<void()> compiled_loop = [&] {
      for (const Valuation& val : scenarios) {
        compiled->EvaluateAll(compiled->MaterializeValuation(val));
      }
    };
    if (!RunJitArm(w, *compiled, batch, naive_results, compiled_loop,
                   &floors_hold)) {
      all_equal = false;
    }
    if (!RunBatchedArm(w, *compiled, batch, naive_results, compiled_loop,
                       &floors_hold)) {
      all_equal = false;
    }
    if (!RunRoutingArm(w, *compiled, batch, &floors_hold) ||
        !RunLaneArm(w, *compiled, batch, &floors_hold) ||
        !RunLaneKindArm(w, *compiled, batch, naive_results, &floors_hold)) {
      all_equal = false;
    }
  }
  if (all_equal) {
    std::printf("all arms bitwise identical across %d scenarios/workload\n",
                kScenarios);
  }
  return all_equal && floors_hold;
}

}  // namespace
}  // namespace provabs::bench

int main() { return provabs::bench::Run() ? 0 : 1; }
