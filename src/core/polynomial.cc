#include "core/polynomial.h"

#include <algorithm>

namespace provabs {

Polynomial Polynomial::FromMonomials(std::vector<Monomial> terms,
                                     CoefficientCombine combine) {
  std::sort(terms.begin(), terms.end(), Monomial::PowerProductLess);
  // Merge equal power products in place: terms[0, kept) is the canonical
  // prefix built so far.
  size_t kept = 0;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (kept > 0 && terms[kept - 1].SamePowerProduct(terms[i])) {
      Monomial& acc = terms[kept - 1];
      const double c = terms[i].coefficient();
      switch (combine) {
        case CoefficientCombine::kAdd:
          acc.add_to_coefficient(c);
          break;
        case CoefficientCombine::kMin:
          acc.set_coefficient(std::min(acc.coefficient(), c));
          break;
        case CoefficientCombine::kMax:
          acc.set_coefficient(std::max(acc.coefficient(), c));
          break;
      }
      continue;
    }
    if (kept != i) terms[kept] = std::move(terms[i]);
    ++kept;
  }
  terms.resize(kept);
  if (combine == CoefficientCombine::kAdd) {
    // Drop monomials whose coefficients cancelled exactly to zero. With the
    // positive coefficients arising from provenance this never fires
    // (Claim 25 in the paper), but the polynomial algebra stays correct in
    // general. Under kMin/kMax a zero coefficient is a real value.
    terms.erase(std::remove_if(terms.begin(), terms.end(),
                               [](const Monomial& m) {
                                 return m.coefficient() == 0.0;
                               }),
                terms.end());
  }
  Polynomial p;
  if (!terms.empty()) {
    p.monomials_ =
        std::make_shared<const std::vector<Monomial>>(std::move(terms));
  }
  return p;
}

const std::vector<Monomial>& Polynomial::NoMonomials() {
  static const std::vector<Monomial>* const kNone =
      new std::vector<Monomial>();
  return *kNone;
}

std::unordered_set<VariableId> Polynomial::Variables() const {
  std::unordered_set<VariableId> vars;
  CollectVariables(vars);
  return vars;
}

size_t Polynomial::SizeV() const { return Variables().size(); }

void Polynomial::CollectVariables(std::unordered_set<VariableId>& out) const {
  for (const Monomial& m : monomials()) {
    for (const Factor& f : m.factors()) out.insert(f.var);
  }
}

Polynomial Polynomial::MapVariables(
    const std::function<VariableId(VariableId)>& map,
    CoefficientCombine combine) const {
  std::vector<Monomial> mapped;
  mapped.reserve(monomials().size());
  for (const Monomial& m : monomials()) mapped.push_back(m.MapVariables(map));
  return FromMonomials(std::move(mapped), combine);
}

bool Polynomial::Mentions(VariableId var) const {
  for (const Monomial& m : monomials()) {
    if (m.Contains(var)) return true;
  }
  return false;
}

bool operator==(const Polynomial& a, const Polynomial& b) {
  const std::vector<Monomial>& am = a.monomials();
  const std::vector<Monomial>& bm = b.monomials();
  if (am.size() != bm.size()) return false;
  for (size_t i = 0; i < am.size(); ++i) {
    if (!am[i].SamePowerProduct(bm[i])) return false;
    if (am[i].coefficient() != bm[i].coefficient()) return false;
  }
  return true;
}

Polynomial Add(const Polynomial& a, const Polynomial& b) {
  std::vector<Monomial> terms = a.monomials();
  terms.insert(terms.end(), b.monomials().begin(), b.monomials().end());
  return Polynomial::FromMonomials(std::move(terms));
}

Polynomial Multiply(const Polynomial& a, const Polynomial& b) {
  std::vector<Monomial> terms;
  terms.reserve(a.monomials().size() * b.monomials().size());
  for (const Monomial& ma : a.monomials()) {
    for (const Monomial& mb : b.monomials()) {
      std::vector<Factor> factors = ma.factors();
      factors.insert(factors.end(), mb.factors().begin(),
                     mb.factors().end());
      terms.emplace_back(ma.coefficient() * mb.coefficient(),
                         std::move(factors));
    }
  }
  return Polynomial::FromMonomials(std::move(terms));
}

Polynomial OnePolynomial() {
  return Polynomial::FromMonomials({Monomial(1.0, {})});
}

Polynomial VariablePolynomial(VariableId var, double coefficient) {
  return Polynomial::FromMonomials(
      {Monomial(coefficient, {Factor{var, 1}})});
}

std::string Polynomial::ToString(const VariableTable& vars) const {
  const std::vector<Monomial>& terms = monomials();
  if (terms.empty()) return "0";
  std::string s;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) s += " + ";
    s += terms[i].ToString(vars);
  }
  return s;
}

}  // namespace provabs
