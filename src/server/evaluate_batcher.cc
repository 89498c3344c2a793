#include "server/evaluate_batcher.h"

#include <algorithm>

#include "common/macros.h"

namespace provabs {

StatusOr<std::vector<double>> EvaluateBatcher::Evaluate(
    std::shared_ptr<const PolynomialSet> polys, Valuation val,
    const std::string& backend, std::string* ran) {
  // The compiled form is cached on the set (pre-warmed for server
  // artifacts), and materialization is one hash probe per distinct
  // variable; the backend then touches only flat arrays.
  std::shared_ptr<const CompiledPolynomialSet> compiled = polys->Compiled();
  const DenseValuation dense = compiled->MaterializeValuation(val);
  std::vector<double> out(compiled->poly_count());
  const DenseValuation* in = &dense;
  double* out_ptr = out.data();
  PROVABS_RETURN_IF_ERROR(Run(*compiled, backend, &in, &out_ptr, 1, ran));
  return out;
}

StatusOr<std::vector<std::vector<double>>> EvaluateBatcher::EvaluateDense(
    std::shared_ptr<const PolynomialSet> /*polys*/,
    std::shared_ptr<const CompiledPolynomialSet> compiled,
    std::vector<DenseValuation> scenarios, const std::string& backend,
    std::string* ran) {
  if (compiled == nullptr) {
    return Status::InvalidArgument("EvaluateDense needs a compiled form");
  }
  if (scenarios.empty()) return std::vector<std::vector<double>>{};
  for (const DenseValuation& dense : scenarios) {
    if (dense.source_fingerprint() != compiled->fingerprint()) {
      return Status::InvalidArgument(
          "scenario valuation was materialized against a different compiled "
          "form (fingerprint mismatch)");
    }
  }
  const size_t count = scenarios.size();
  std::vector<std::vector<double>> results(
      count, std::vector<double>(compiled->poly_count()));
  std::vector<const DenseValuation*> in(count);
  std::vector<double*> outs(count);
  for (size_t s = 0; s < count; ++s) {
    in[s] = &scenarios[s];
    outs[s] = results[s].data();
  }
  PROVABS_RETURN_IF_ERROR(
      Run(*compiled, backend, in.data(), outs.data(), count, ran));
  return results;
}

Status EvaluateBatcher::Run(const CompiledPolynomialSet& compiled,
                            const std::string& backend,
                            const DenseValuation* const* in,
                            double* const* outs, size_t count,
                            std::string* ran) {
  requests_.fetch_add(count, std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
  PROVABS_ASSIGN_OR_RETURN(const EvaluationBackend* chosen,
                           registry_->ResolveForBatch(backend, count,
                                                      &compiled));
  if (ran != nullptr) *ran = chosen->info().name;

  const size_t poly_count = compiled.poly_count();
  const std::vector<size_t> bounds = MonomialBalancedRanges(
      compiled, count * compiled.monomial_count() > kSplitWork
                    ? pool_.thread_count()
                    : 1);
  const size_t ranges = bounds.size() - 1;
  backend_calls_.fetch_add(ranges, std::memory_order_relaxed);
  if (ranges == 1) {
    return chosen->EvaluateBatch(compiled, 0, poly_count, in, outs, count);
  }

  std::vector<Status> status(ranges);
  pool_.ParallelFor(ranges, [&](size_t r) {
    std::vector<double*> shifted(count);
    for (size_t s = 0; s < count; ++s) shifted[s] = outs[s] + bounds[r];
    status[r] = chosen->EvaluateBatch(compiled, bounds[r], bounds[r + 1], in,
                                      shifted.data(), count);
  });
  for (const Status& s : status) PROVABS_RETURN_IF_ERROR(s);
  return Status::OK();
}

std::vector<size_t> MonomialBalancedRanges(
    const CompiledPolynomialSet& compiled, size_t parts) {
  const size_t poly_count = compiled.poly_count();
  const uint64_t monomials = compiled.monomial_count();
  const uint32_t* offsets = compiled.csr().poly_offsets;
  std::vector<size_t> bounds = {0};
  for (size_t c = 1; c < parts; ++c) {
    const size_t cut = static_cast<size_t>(
        std::lower_bound(offsets, offsets + poly_count,
                         monomials * c / parts) -
        offsets);
    if (cut > bounds.back() && cut < poly_count) bounds.push_back(cut);
  }
  bounds.push_back(poly_count);
  return bounds;
}

EvaluateBatcher::Stats EvaluateBatcher::stats() const {
  Stats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.calls = calls_.load(std::memory_order_relaxed);
  stats.backend_calls = backend_calls_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace provabs
