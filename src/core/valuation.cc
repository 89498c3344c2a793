#include "core/valuation.h"

#include <cmath>
#include <memory>

#include "common/macros.h"
#include "core/compiled_polynomial_set.h"
#include "core/evaluation_backend.h"

namespace provabs {

double Valuation::Evaluate(const Polynomial& poly) const {
  double total = 0.0;
  for (const Monomial& m : poly.monomials()) {
    double term = m.coefficient();
    for (const Factor& f : m.factors()) {
      double v = Get(f.var);
      // Exponents are small (bounded by the query's join arity), so repeated
      // multiplication beats std::pow here.
      for (uint32_t e = 0; e < f.exp; ++e) term *= v;
    }
    total += term;
  }
  return total;
}

std::vector<double> Valuation::EvaluateAll(const PolynomialSet& polys) const {
  // Routed through the backend registry so a single scenario and a served
  // batch exercise the same entry point; the registry's auto policy sends a
  // width-1 call to the per-artifact "jit" code when executable memory is
  // usable and to the "compiled" kernel otherwise — every backend is
  // bitwise identical by contract, so the choice never changes the result.
  std::shared_ptr<const CompiledPolynomialSet> compiled = polys.Compiled();
  DenseValuation dense = compiled->MaterializeValuation(*this);
  std::vector<double> out(compiled->poly_count());
  StatusOr<const EvaluationBackend*> backend =
      EvaluationBackendRegistry::Default().ResolveForBatch("", 1);
  PROVABS_CHECK(backend.ok());
  const DenseValuation* scenario = &dense;
  double* out_ptr = out.data();
  Status status = (*backend)->EvaluateBatch(*compiled, 0,
                                            compiled->poly_count(), &scenario,
                                            &out_ptr, 1);
  PROVABS_CHECK(status.ok());
  return out;
}

}  // namespace provabs
