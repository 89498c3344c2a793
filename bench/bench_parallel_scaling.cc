/// Extension bench: multi-core scaling of the compression/evaluation
/// primitives (the paper's offline deployment runs on strong hardware
/// [24]). Sweeps the thread count for the registry-routed compression
/// (default: brute force, the one with a parallel implementation), with the
/// serial run as the baseline. `--algo NAME[,NAME...]` selects other
/// registered algorithms — those without a parallel variant run their
/// serial implementation on every thread count, making the flat line
/// visible rather than implied.
///
/// The evaluation table times the serving evaluator (EvaluateBatcher) per
/// call on a warm compiled form past the jit break-even, on a TPC-H Q10
/// view compressed at half its feasible loss and on the raw running
/// example (the views servebench's evaluate-compressed and scenario-sweep
/// serve), at widths 1/16/64/256/1024 and pool sizes 1/2/4. Each cell prints
/// one backend call run directly on the calling thread against the same
/// call split into monomial-balanced ranges (MonomialBalancedRanges) across
/// the pool, with work = scenarios × monomials, and what the evaluator
/// itself takes (it splits above EvaluateBatcher::kSplitWork, which is read
/// off this table). Every split and evaluator answer is checked bitwise
/// against the direct one, and the driver exits 1 on a mismatch.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "algo/compressor.h"
#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/valuation.h"
#include "jit/jit_backend.h"
#include "parallel/parallel_compress.h"
#include "parallel/thread_pool.h"
#include "server/evaluate_batcher.h"
#include "workload/tree_gen.h"

namespace provabs::bench {
namespace {

void Run(const std::vector<std::string>& algos) {
  PrintHeader("Parallel scaling: registry compression, and evaluation "
              "direct against split");

  Workload w = MakeTelephonyWorkload(0.5 * BenchScale());
  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(*w.vars, w.tree_leaves, {2, 2}, "PSC_"));
  const size_t bound = FeasibleBound(w.polys, forest, 0.5);

  std::printf("%-24s %10s %12s\n", "primitive", "threads", "time[s]");
  for (const std::string& algo : algos) {
    const Compressor* compressor = CompressorRegistry::Default().Find(algo);
    CompressOptions options;
    options.bound = bound;
    Timer t_serial;
    auto serial = compressor->Compress(w.polys, forest, options);
    double serial_s = t_serial.ElapsedSeconds();
    std::printf("%-24s %10s %12.4f%s\n", algo.c_str(), "serial", serial_s,
                serial.ok() ? "" : " (error)");

    for (size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      Timer t;
      auto parallel = ParallelCompress(w.polys, forest, algo, options, pool);
      (void)parallel;
      std::printf("%-24s %10zu %12.4f\n", algo.c_str(), threads,
                  t.ElapsedSeconds());
    }
  }
}

/// Returns false when a split or evaluator answer differs from the direct
/// one.
bool RunEvaluateTable() {
  struct View {
    std::string name;
    std::shared_ptr<const PolynomialSet> polys;
  };
  std::vector<View> views;
  {
    Workload q10 = MakeTpchWorkload(TpchQuery::kQ10, "tpch-q10");
    AbstractionForest forest;
    forest.AddTree(
        BuildUniformTree(*q10.vars, q10.tree_leaves, {4, 4}, "EVC_"));
    CompressOptions options;
    options.bound = FeasibleBound(q10.polys, forest, 0.5);
    auto result =
        CompressorRegistry::Default().Find("opt")->Compress(q10.polys, forest,
                                                            options);
    if (result.ok()) {
      views.push_back({"q10-view", std::make_shared<PolynomialSet>(
                                       result->Apply(forest, q10.polys))});
    }
    Workload telephony = MakeTelephonyWorkload();
    views.push_back(
        {"telephony", std::make_shared<PolynomialSet>(telephony.polys)});
  }

  bool all_equal = true;
  std::printf("\n%-10s %6s %9s %6s %11s %8s %11s %11s %8s %11s\n", "view",
              "polys", "monomials", "width", "work", "threads", "direct[us]",
              "split[us]", "split/dir", "served[us]");
  for (const View& view : views) {
    std::shared_ptr<const CompiledPolynomialSet> compiled =
        view.polys->Compiled();
    // Past the jit break-even, as a long-lived served view is.
    compiled->CountInterpretedScenarios(kJitBreakEvenScenarios);
    const std::vector<VariableId>& slots = compiled->slot_variables();
    for (size_t width : {1u, 16u, 64u, 256u, 1024u}) {
      std::vector<DenseValuation> family;
      for (size_t s = 0; s < width; ++s) {
        Valuation val;
        for (size_t i = 0; i < slots.size(); ++i) {
          if ((i + s) % 3 != 0) val.Set(slots[i], 0.5 + 0.01 * ((i + s) % 97));
        }
        family.push_back(compiled->MaterializeValuation(val));
      }
      std::vector<std::vector<double>> direct_out(
          width, std::vector<double>(compiled->poly_count()));
      std::vector<std::vector<double>> split_out = direct_out;
      std::vector<std::vector<double>> served;
      std::vector<const DenseValuation*> in;
      std::vector<double*> direct_ptrs, split_ptrs;
      for (size_t s = 0; s < width; ++s) {
        in.push_back(&family[s]);
        direct_ptrs.push_back(direct_out[s].data());
        split_ptrs.push_back(split_out[s].data());
      }
      for (size_t threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        EvaluateBatcher evaluator(pool);
        const EvaluationBackend* backend =
            *EvaluationBackendRegistry::Default().ResolveForBatch(
                "", width, compiled.get());
        const std::vector<size_t> bounds =
            MonomialBalancedRanges(*compiled, threads);
        const double direct_us = MedianCallUs([&] {
          (void)backend->EvaluateBatch(*compiled, 0, compiled->poly_count(),
                                       in.data(), direct_ptrs.data(), width);
        });
        const double split_us = MedianCallUs([&] {
          pool.ParallelFor(bounds.size() - 1, [&](size_t r) {
            std::vector<double*> shifted(width);
            for (size_t s = 0; s < width; ++s) {
              shifted[s] = split_ptrs[s] + bounds[r];
            }
            (void)backend->EvaluateBatch(*compiled, bounds[r], bounds[r + 1],
                                         in.data(), shifted.data(), width);
          });
        });
        const double served_us = MedianCallUs([&] {
          served = *evaluator.EvaluateDense(view.polys, compiled, family);
        });
        for (size_t s = 0; s < width; ++s) {
          const size_t bytes = direct_out[s].size() * sizeof(double);
          if (std::memcmp(direct_out[s].data(), split_out[s].data(), bytes) !=
                  0 ||
              std::memcmp(direct_out[s].data(), served[s].data(), bytes) !=
                  0) {
            std::printf("MISMATCH %s width %zu scenario %zu\n",
                        view.name.c_str(), width, s);
            all_equal = false;
          }
        }
        std::printf(
            "%-10s %6zu %9zu %6zu %11llu %8zu %11.1f %11.1f %8.2f %11.1f\n",
            view.name.c_str(), compiled->poly_count(),
            compiled->monomial_count(), width,
            static_cast<unsigned long long>(width *
                                            compiled->monomial_count()),
            threads, direct_us, split_us,
            direct_us > 0 ? split_us / direct_us : 0.0, served_us);
      }
    }
  }
  std::printf("served = the evaluator as the server runs it: split when "
              "work > %llu\n",
              static_cast<unsigned long long>(EvaluateBatcher::kSplitWork));
  return all_equal;
}

}  // namespace
}  // namespace provabs::bench

int main(int argc, char** argv) {
  provabs::bench::Run(provabs::bench::SelectedAlgos(argc, argv, {"brute"}));
  return provabs::bench::RunEvaluateTable() ? 0 : 1;
}
