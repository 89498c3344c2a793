#ifndef PROVABS_CORE_POLYNOMIAL_H_
#define PROVABS_CORE_POLYNOMIAL_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/monomial.h"
#include "core/variable.h"

namespace provabs {

/// How coefficients of colliding power products combine when a polynomial
/// is canonicalized or abstracted. `kAdd` is the SUM-aggregate (and
/// semiring-polynomial) case of §2.1; `kMin`/`kMax` support MIN/MAX
/// aggregates, whose "+" is min/max — for non-negative valuations,
/// min(c1·v, c2·v) = min(c1, c2)·v, so combining coefficients by min keeps
/// abstraction exact for group-uniform scenarios.
enum class CoefficientCombine { kAdd, kMin, kMax };

/// A provenance polynomial: a canonical sum of monomials (§2.1 of the
/// paper). Canonical means the monomial list is sorted by power product and
/// contains no two monomials with the same power product; `|P|_M` is then
/// simply the list length and `V(P)` the union of factor variables.
class Polynomial {
 public:
  Polynomial() = default;

  /// Builds a canonical polynomial from arbitrary terms: monomials with
  /// equal power products are merged (coefficients combined per `combine`).
  /// Under kAdd, zero-coefficient monomials produced by exact cancellation
  /// are dropped (a zero term is the additive identity); under kMin/kMax
  /// zeros are meaningful values and are kept.
  static Polynomial FromMonomials(
      std::vector<Monomial> terms,
      CoefficientCombine combine = CoefficientCombine::kAdd);

  /// The canonical monomial list M(P).
  const std::vector<Monomial>& monomials() const {
    return monomials_ != nullptr ? *monomials_ : NoMonomials();
  }

  /// |P|_M — the number of monomials, the paper's size measure.
  size_t SizeM() const { return monomials().size(); }

  /// V(P) — the set of distinct variables.
  std::unordered_set<VariableId> Variables() const;

  /// |P|_V — the number of distinct variables, the granularity measure.
  size_t SizeV() const;

  /// Appends the variables of this polynomial into `out`.
  void CollectVariables(std::unordered_set<VariableId>& out) const;

  /// Returns P with every variable replaced through `map` and the result
  /// re-canonicalized; this implements P↓S for a substitution map derived
  /// from a valid variable set. `combine` selects how the coefficients of
  /// monomials identified by the abstraction merge (kAdd for SUM/semiring
  /// provenance, kMin/kMax for MIN/MAX-aggregate provenance).
  Polynomial MapVariables(
      const std::function<VariableId(VariableId)>& map,
      CoefficientCombine combine = CoefficientCombine::kAdd) const;

  /// True if some monomial mentions `var`.
  bool Mentions(VariableId var) const;

  /// Structural equality (same canonical monomials, exact coefficients).
  friend bool operator==(const Polynomial& a, const Polynomial& b);

  /// Renders e.g. "220.8*p1*m1 + 240*p1*m3" using names from `vars`.
  std::string ToString(const VariableTable& vars) const;

 private:
  static const std::vector<Monomial>& NoMonomials();

  /// The monomial list, immutable once built and therefore shared by
  /// copies: copying a set of polynomials (an artifact's next generation,
  /// a view grown by an append) costs one reference per polynomial, not
  /// one allocation per monomial. Null for the zero polynomial.
  std::shared_ptr<const std::vector<Monomial>> monomials_;
};

/// Polynomial ring operations, used by the provenance-annotated query
/// engine (join multiplies annotations, projection/union adds them).
Polynomial Add(const Polynomial& a, const Polynomial& b);
Polynomial Multiply(const Polynomial& a, const Polynomial& b);

/// The polynomial "1" (single coefficient-1 monomial, no variables).
Polynomial OnePolynomial();

/// The polynomial "coefficient * var".
Polynomial VariablePolynomial(VariableId var, double coefficient = 1.0);

}  // namespace provabs

#endif  // PROVABS_CORE_POLYNOMIAL_H_
